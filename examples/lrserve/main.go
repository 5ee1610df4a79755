// Encrypted logistic-regression inference served over the wire: the
// capstone of the circuits layer. The model's weight vector becomes a
// circuits.BatchedDot linear transform (one score per 8-slot feature
// block), the sigmoid becomes a degree-7 Chebyshev polynomial evaluated
// with the Paterson–Stockmeyer structure, and the whole pipeline is a
// single heax.Circuit compiled *server-side* by heax-serve and streamed
// through the cached plan. Circuit.RequiredRotations reports exactly
// the Galois keys the client must generate and upload — no guessing,
// no over-provisioning.
//
// Accuracy contract, checked at the end against the cleartext model:
//
//   - the wire results must be bit-identical to an in-process
//     Plan.RunBatch oracle (both sides run the same deterministic
//     pipeline on the same key material);
//   - every decrypted score must match σ(w·x+b) within 3.2e-2 — the
//     pinned 3.1e-2 sup-norm error of the degree-7 Chebyshev sigmoid
//     on [-8, 8] (see circuits.Sigmoid) plus ~1e-3 of CKKS noise.
//
// Run against a daemon with `heax-serve -params C` and -addr, or with
// no flags for a self-contained in-process server on a loopback port.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net"

	"heax"
	"heax/circuits"
	"heax/serve"
)

const (
	features = 8
	degree   = 7
	errBound = 3.2e-2
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lrserve: ")
	addr := flag.String("addr", "", "heax-serve address (empty: start an in-process server)")
	flag.Parse()

	// The degree-7 sigmoid needs Set-C's modulus chain: three levels of
	// Paterson–Stockmeyer products on top of the dot product's one.
	params, err := heax.NewParams(heax.SetC)
	if err != nil {
		log.Fatal(err)
	}
	target := *addr
	if target == "" {
		srv, err := serve.NewServer(params)
		if err != nil {
			log.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go srv.Serve(ln)
		defer srv.Close()
		target = ln.Addr().String()
		fmt.Printf("no -addr given: in-process heax-serve on %s (Set-C)\n", target)
	}

	cl, err := serve.Dial(target)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	params = cl.Params()
	samples := params.Slots() / features

	// A fixed toy model: weights small enough that every score lands
	// well inside the sigmoid's approximation interval.
	rng := rand.New(rand.NewSource(9))
	w := make([]float64, features)
	for i := range w {
		w[i] = rng.Float64() - 0.5
	}
	bias := 0.25

	// The full inference circuit: score = w·x + b per feature block,
	// then the degree-7 Chebyshev sigmoid.
	dot, err := circuits.BatchedDot(w)
	if err != nil {
		log.Fatal(err)
	}
	sigmoid := circuits.Sigmoid(degree)
	c := heax.NewCircuit()
	scores, err := dot.Apply(c, c.Input("x"))
	if err != nil {
		log.Fatal(err)
	}
	prob, err := sigmoid.Apply(c, c.AddConst(scores, bias))
	if err != nil {
		log.Fatal(err)
	}
	c.Output("p", prob)

	// RequiredRotations is the key contract: generate exactly the Galois
	// keys the compiled plan will look up.
	steps, err := c.RequiredRotations(params)
	if err != nil {
		log.Fatal(err)
	}
	kg := heax.NewKeyGenerator(params, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	evk := heax.GenEvaluationKeys(kg, sk, steps, false)
	enc := heax.NewEncoder(params)
	encryptor := heax.NewEncryptor(params, pk, 2)
	decryptor := heax.NewDecryptor(params, sk)
	fmt.Printf("model: %d features, degree-%d sigmoid; RequiredRotations: %v\n", features, degree, steps)

	if err := cl.Register("lr", evk); err != nil {
		log.Fatal(err)
	}
	info, err := cl.Compile("lr", c)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled server-side: plan %s… (%d steps, cache hit: %v)\n", info.ID.String()[:12], info.Steps, info.Cached)

	// Two batches of slots/8 samples each, one sample per feature block.
	const nBatches = 2
	batches := make([]map[string]*heax.Ciphertext, nBatches)
	data := make([][][]float64, nBatches)
	for bi := range batches {
		data[bi] = make([][]float64, samples)
		packed := make([]float64, params.Slots())
		for s := 0; s < samples; s++ {
			x := make([]float64, features)
			for j := range x {
				x[j] = rng.Float64()*4 - 2
			}
			data[bi][s] = x
			copy(packed[s*features:], x)
		}
		pt, err := enc.EncodeReal(packed, params.MaxLevel(), params.DefaultScale())
		if err != nil {
			log.Fatal(err)
		}
		ct, err := encryptor.Encrypt(pt)
		if err != nil {
			log.Fatal(err)
		}
		batches[bi] = map[string]*heax.Ciphertext{"x": ct}
	}

	got, err := cl.Run("lr", info.ID, batches)
	if err != nil {
		log.Fatal(err)
	}

	// In-process oracle: same circuit, same keys, no network.
	oracle, err := c.Compile(params, evk)
	if err != nil {
		log.Fatal(err)
	}
	// The sigmoid bounds p, so the plan starts below the top level and
	// reads the top-level uploads through a view.
	outLevel, err := oracle.OutputLevel("p")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("in-process plan: inputs enter at L%d of L%d, p leaves at L%d\n",
		oracle.InputLevel(), params.MaxLevel(), outLevel)
	want, err := oracle.RunBatch(batches)
	if err != nil {
		log.Fatal(err)
	}

	identical := true
	worst := 0.0
	for bi := range batches {
		if !ctEqual(got[bi]["p"], want[bi]["p"]) {
			identical = false
		}
		pt, err := decryptor.Decrypt(got[bi]["p"])
		if err != nil {
			log.Fatal(err)
		}
		dec := enc.Decode(pt)
		for s, x := range data[bi] {
			score := bias
			for j, v := range x {
				score += w[j] * v
			}
			cleartext := 1 / (1 + math.Exp(-score))
			if d := math.Abs(real(dec[s*features]) - cleartext); d > worst {
				worst = d
			}
		}
	}
	fmt.Printf("scored %d samples in %d wire batches; max |p - σ(w·x+b)| = %.2e (bound %.1e)\n",
		nBatches*samples, nBatches, worst, errBound)
	fmt.Printf("bit-identical to the in-process Plan.RunBatch oracle: %v\n", identical)
	if !identical {
		log.Fatal("wire results diverged from the in-process oracle")
	}
	if worst > errBound {
		log.Fatalf("max error %.2e exceeds the documented bound %.1e", worst, errBound)
	}
	if err := cl.Unregister("lr"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("tenant evicted; done")
}

// ctEqual reports bit-identity of two ciphertexts.
func ctEqual(a, b *heax.Ciphertext) bool {
	if a == nil || b == nil || a.Scale != b.Scale || a.Level != b.Level || len(a.Polys) != len(b.Polys) {
		return false
	}
	for i := range a.Polys {
		if !a.Polys[i].Equal(b.Polys[i]) {
			return false
		}
	}
	return true
}
