// Package heax is the public face of this HEAX reproduction: a full-RNS
// CKKS engine (encode, encrypt, evaluate, decrypt) built on the lazy-
// reduction NTT core and the row-parallel key switch of the
// internal packages, exposed through four coordinated layers.
//
// # Key-bound evaluators
//
// An Evaluator is constructed once against a parameter set and an
// EvaluationKeySet, then used without threading keys through every call:
//
//	evk := &heax.EvaluationKeySet{Relin: rlk, Galois: gks}
//	eval := heax.NewEvaluator(params, evk, heax.WithWorkers(8))
//	prod, err := eval.MulRelin(ctX, ctY) // relinearization key is bound
//	rot, err := eval.RotateLeft(ctX, 1)  // Galois keys are bound
//
// Evaluators are safe for concurrent use: share one across goroutines.
//
// # In-place operation variants
//
// The hot operations have *Into forms that land results in caller-owned
// ciphertexts (AddInto, MulRelinInto, RescaleInto, RotateInto), reusing
// the ring context's pooled scratch for every intermediate. A serving
// loop that cycles over a fixed set of NewCiphertext outputs runs at
// zero steady-state allocations — the software analogue of the HEAX
// device memory map, where results stay in preallocated buffers. The
// allocating forms are thin wrappers that hand the same kernels a fresh
// output.
//
// # Compiled circuits: build, compile, run
//
// A Circuit declares a fixed encrypted dataflow symbolically — Input,
// Add, MulRelin, MulPlain, Rotate, InnerSum, Output — with no Rescale,
// Relinearize or level bookkeeping anywhere. Compile runs scale/level
// inference over the DAG, inserts every maintenance operation, encodes
// all plaintext operands, eliminates common subexpressions, prunes dead
// nodes and groups same-source rotations into hoisted-decomposition
// batches; impossible circuits fail at compile time with the same
// sentinels. The resulting Plan is immutable and concurrency-safe:
//
//	c := heax.NewCircuit()
//	y := c.AddConst(c.MulRelin(c.Input("x"), c.Input("x")), 1)
//	c.Output("y", y)
//	plan, err := c.Compile(params, evk)
//	out, err := plan.Run(map[string]*heax.Ciphertext{"x": ct})
//
// Plan.RunBatch streams many input sets through the worker pool — the
// paper's compile-once, stream-many host model (Section 5.2) — and the
// Context variants (RunContext, RunBatchContext) abort cleanly
// mid-flight when a serving front end drops a request.
//
// # Serving over the wire
//
// Circuits export and import as versioned JSON (Circuit.MarshalJSON /
// UnmarshalJSON; version 2 carries plaintext payloads as base64 of
// their little-endian float64 words), and the serialization layer moves
// every object a serving host needs — parameters, ciphertexts, whole
// evaluation key sets (WriteEvaluationKeySet) and named ciphertext
// batches (WriteCiphertextBatch) — as framed, length-checked blobs that
// fail with ErrCorrupt on anything malformed. The heax/serve package builds
// the multi-tenant daemon on top (see cmd/heax-serve and
// examples/client).
//
// The hardware model, architecture generator and cycle-level simulator
// behind the paper's tables are exported separately in heax/arch, and
// the table/benchmark harness in heax/bench.
package heax
