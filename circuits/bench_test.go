package circuits_test

// Throughput of the two circuit generators once compiled to Plans:
// BSGS matvec (rotation-bound, exercises the hoisted batches) and
// Paterson–Stockmeyer polynomial evaluation (relin/rescale-bound).
// scripts/bench.sh records both into the benchmark snapshot.

import (
	"fmt"
	"math/rand"
	"testing"

	"heax"
	"heax/circuits"
)

// BenchmarkCircuits_MatVec: 256×256 encrypted matrix-vector product on
// Set-A via the BSGS diagonal method. BabyDim=16 is the split the
// transform picks for itself — one hoisted batch of 15 baby rotations, 16
// inner sums of 16 plaintext products, 15 giant rotations — and
// BabyDim=256 the other end: 255 baby rotations in one batch and a single
// 256-term sum, the shape with no step-level parallelism left.
func BenchmarkCircuits_MatVec(b *testing.B) {
	k := newKit(b, heax.SetA)
	rng := rand.New(rand.NewSource(11))
	const n = 256
	xv := make([]float64, n)
	for i := range xv {
		xv[i] = rng.Float64()*2 - 1
	}
	x, err := circuits.ReplicateReal(xv, n, k.params.Slots())
	if err != nil {
		b.Fatal(err)
	}
	in := map[string]*heax.Ciphertext{"x": k.encrypt(b, x)}
	for _, babyDim := range []int{16, 256} {
		plan := matVecPlan(b, k, rng, babyDim)
		b.Run(fmt.Sprintf("BabyDim=%d", babyDim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := plan.Run(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCircuits_ChebyshevEval: degree-3 Chebyshev exp on Set-B —
// the PS baby/giant structure end to end, no rotations.
func BenchmarkCircuits_ChebyshevEval(b *testing.B) {
	k := newKit(b, heax.SetB)
	p := circuits.Exp(3)
	c := heax.NewCircuit()
	out, err := p.Apply(c, c.Input("x"))
	if err != nil {
		b.Fatal(err)
	}
	c.Output("y", out)
	plan, err := c.Compile(k.params, k.keys(b, nil))
	if err != nil {
		b.Fatal(err)
	}
	xs := make([]complex128, 256)
	rng := rand.New(rand.NewSource(12))
	for i := range xs {
		xs[i] = complex(-1+2*rng.Float64(), 0)
	}
	in := map[string]*heax.Ciphertext{"x": k.encrypt(b, xs)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Run(in); err != nil {
			b.Fatal(err)
		}
	}
}
