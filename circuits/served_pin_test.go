package circuits_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"heax"
	"heax/circuits"
)

// servedLogistic builds the circuit the lr-serve-C benchmark serves: a
// BatchedDot of 8 weights, a bias and the degree-7 sigmoid, with the
// Galois steps it needs.
func servedLogistic(t *testing.T, k *kit) (*heax.Circuit, []int) {
	t.Helper()
	dot, err := circuits.BatchedDot([]float64{0.3, -0.2, 0.1, 0.4, -0.5, 0.25, -0.1, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	c := heax.NewCircuit()
	scores, err := dot.Apply(c, c.Input("x"))
	if err != nil {
		t.Fatal(err)
	}
	prob, err := circuits.Sigmoid(7).Apply(c, c.AddConst(scores, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	c.Output("p", prob)
	steps, err := c.RequiredRotations(k.params)
	if err != nil {
		t.Fatal(err)
	}
	return c, steps
}

// TestServedLogisticOutputsPinned pins the output bits of the lr-serve-C
// plan on fixed inputs to one hash, compiled and run inline and on two
// workers: how the plan computes may change, its bits may not. The hash
// depends on the seeded draws behind the keys and inputs too, so only a
// change to the sampler may move it.
func TestServedLogisticOutputsPinned(t *testing.T) {
	const want = 0x43955c74e722c79f
	k := newKit(t, heax.SetC)
	c, steps := servedLogistic(t, k)
	evk := k.keys(t, steps)
	rng := rand.New(rand.NewSource(41))
	xs := make([]complex128, k.params.Slots())
	for i := range xs {
		xs[i] = complex(4*rng.Float64()-2, 0)
	}
	in := map[string]*heax.Ciphertext{"x": k.encrypt(t, xs)}
	ring := k.params.RingQP
	defer ring.SetWorkers(ring.Workers())
	for _, workers := range []int{1, 2} {
		ring.SetWorkers(workers)
		plan, err := c.Compile(k.params, evk)
		if err != nil {
			t.Fatal(err)
		}
		out, err := plan.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		p := out["p"]
		h := fnv.New64a()
		var w [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(w[:], v)
			h.Write(w[:])
		}
		put(uint64(p.Level))
		put(math.Float64bits(p.Scale))
		for _, poly := range p.Polys {
			for _, row := range poly.Coeffs {
				for _, v := range row {
					put(v)
				}
			}
		}
		if got := h.Sum64(); got != want {
			t.Errorf("%d workers: p hashes to %#x, want %#x", workers, got, uint64(want))
		}
	}
}
