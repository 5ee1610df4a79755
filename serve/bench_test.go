package serve_test

// Serve_* benches: wire-protocol serving throughput over loopback —
// the end-to-end cost of one streamed input set (serialize, frame,
// admit, Plan.RunContext, serialize back) and of a plan-cache hit.
// Tracked in BENCH_5.json by scripts/bench.sh.

import (
	"fmt"
	"math/rand"
	"testing"

	"heax"
	"heax/circuits"
	"heax/serve"
)

func BenchmarkServe_RunBatchMatvec(b *testing.B) {
	addr := startServer(b, testParams(b))
	cl, err := serve.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	kit := newTenantKit(b, cl.Params(), 51)
	if err := cl.Register("bench", kit.evk); err != nil {
		b.Fatal(err)
	}
	info, err := cl.Compile("bench", kit.matvecCircuit())
	if err != nil {
		b.Fatal(err)
	}
	in, _ := kit.batches(b, 52, 8)
	b.ResetTimer()
	for done := 0; done < b.N; {
		chunk := in
		if rem := b.N - done; rem < len(chunk) {
			chunk = chunk[:rem]
		}
		if _, err := cl.Run("bench", info.ID, chunk); err != nil {
			b.Fatal(err)
		}
		done += len(chunk)
	}
}

func BenchmarkServe_CompileCached(b *testing.B) {
	addr := startServer(b, testParams(b))
	cl, err := serve.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	kit := newTenantKit(b, cl.Params(), 53)
	if err := cl.Register("bench", kit.evk); err != nil {
		b.Fatal(err)
	}
	circ := kit.matvecCircuit()
	if _, err := cl.Compile("bench", circ); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		info, err := cl.Compile("bench", circ)
		if err != nil {
			b.Fatal(err)
		}
		if !info.Cached {
			b.Fatal("expected a cache hit")
		}
	}
}

// BenchmarkServe_CompileMiss prices a compile that misses the plan
// cache over loopback: the client's JSON encoding of matvec-serve-A's
// circuit (Set-A 256×256 BSGS matvec), the server's decode, canonical
// re-encode and digest, and the Compile. Every iteration renames the
// output, so every one is a miss; building the circuit is not timed.
func BenchmarkServe_CompileMiss(b *testing.B) {
	addr := startServer(b, testParams(b))
	cl, err := serve.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	rng := rand.New(rand.NewSource(54))
	const n = 256
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			m[i][j] = rng.Float64()*2 - 1
		}
	}
	lt, err := circuits.FromRealMatrix(m)
	if err != nil {
		b.Fatal(err)
	}
	build := func(i int) *heax.Circuit {
		c := heax.NewCircuit()
		y, err := lt.Apply(c, c.Input("x"))
		if err != nil {
			b.Fatal(err)
		}
		c.Output(fmt.Sprintf("y%d", i), y)
		return c
	}
	steps, err := build(0).RequiredRotations(cl.Params())
	if err != nil {
		b.Fatal(err)
	}
	kg := heax.NewKeyGenerator(cl.Params(), 55)
	if err := cl.Register("bench", heax.GenEvaluationKeys(kg, kg.GenSecretKey(), steps, false)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		circ := build(i)
		b.StartTimer()
		info, err := cl.Compile("bench", circ)
		if err != nil {
			b.Fatal(err)
		}
		if info.Cached {
			b.Fatal("expected a cache miss")
		}
	}
}
