package heax

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// hashOutputs writes a run's outputs into h in name order: each
// ciphertext's level, the bits of its scale and every coefficient.
func hashOutputs(h hash.Hash64, outs map[string]*Ciphertext) {
	names := make([]string, 0, len(outs))
	for name := range outs {
		names = append(names, name)
	}
	sort.Strings(names)
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
	for _, name := range names {
		ct := outs[name]
		h.Write([]byte(name))
		put(uint64(ct.Level))
		put(math.Float64bits(ct.Scale))
		for _, p := range ct.Polys {
			for _, row := range p.Coeffs {
				for _, v := range row {
					put(v)
				}
			}
		}
	}
}

// TestRandomDAGOutputsPinned pins the output bits of random DAGs —
// randomCircuit with bounds and chains, on TestPlanRandomDAGs's seeds and
// inputs — to one hash, so a change to how a plan computes (which steps
// Compile fuses, how a step divides by a prime) must leave every output
// bit where it was. A refused circuit counts as such. The hash depends
// on the seeded draws behind the keys and inputs too, so only a change to
// the sampler may move it.
func TestRandomDAGOutputsPinned(t *testing.T) {
	const want = 0x74c762082e0436ec
	h := fnv.New64a()
	for _, pass := range []struct {
		spec  ParamSpec
		count int
		seed  int64
	}{{SetA, 200, 18}, {SetB, 50, 19}} {
		k := newOracleKit(t, pass.spec, []int{1, 2, 3, -1}, true)
		rng := rand.New(rand.NewSource(pass.seed))
		bounds := rand.New(rand.NewSource(pass.seed + 100))
		chains := rand.New(rand.NewSource(pass.seed + 200))
		in := map[string]*Ciphertext{
			"x": k.encrypt(t, []float64{0.5, -0.25, 0.75, 1}),
			"y": k.encrypt(t, []float64{-1, 0.125, 0.5, -0.5}),
		}
		for n := 0; n < pass.count; n++ {
			plan, err := randomCircuit(rng, bounds, chains, nil, k.params.Slots()).Compile(k.params, k.evk)
			if err != nil {
				h.Write([]byte("refused"))
				continue
			}
			got, err := plan.Run(in)
			if err != nil {
				t.Fatalf("%s circuit %d: %v", pass.spec.Name, n, err)
			}
			hashOutputs(h, got)
		}
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("random DAG outputs hash to %#x, want %#x", got, uint64(want))
	}
}
