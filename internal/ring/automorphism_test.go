package ring

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"heax/internal/uintmod"
)

// gatherTable is the closed form of X -> X^g on a bit-reversed NTT row
// of n = 2^logn, one slot at a time — the oracle for the block maps:
// out[i] = in[table[i]], where slot i holds the evaluation at ψ^(2r+1),
// r = brev(i), and g sends r to g·r + (g−1)/2 mod n.
func gatherTable(g uint64, logn int) []int {
	n := uint64(1) << logn
	table := make([]int, n)
	for i := uint64(0); i < n; i++ {
		rev := bits.Reverse64(i) >> (64 - logn)
		idx := g * (2*rev + 1) >> 1 & (n - 1)
		table[i] = int(bits.Reverse64(idx) >> (64 - logn))
	}
	return table
}

// automorphismCoeff applies X -> X^g to a coefficient-domain polynomial
// (g odd): the reference the NTT-domain maps are checked against.
func automorphismCoeff(c *Context, a *Poly, g uint64, out *Poly) {
	n := uint64(c.N)
	mask := 2*n - 1
	for i, p := range c.Basis.Primes[:rowsOf(a, out)] {
		for j, v := range a.Coeffs[i] {
			e := uint64(j) * g & mask
			if e < n {
				out.Coeffs[i][e] = v
			} else {
				out.Coeffs[i][e-n] = uintmod.NegMod(v, p)
			}
		}
	}
}

// expand is the gather a block map stands for.
func expand(a *Automorphism, n int) []int {
	w := n / len(a.blocks)
	idx := make([]int, n)
	for i := range idx {
		m := a.blocks[i/w]
		idx[i] = int(m>>3)*w + int(a.lanes[m&7][i%w])
	}
	return idx
}

// ringElements lists every Galois element the ring hands out for n: the
// rotations 5^k (k < n/2), conjugation, and the 3 and 25 of
// TestAutomorphismNTTMatchesCoeffDomain.
func ringElements(n int) []uint64 {
	m := uint64(2 * n)
	gs := []uint64{GaloisConjugate(n), 3, 25}
	g := uint64(1)
	for k := 0; k < max(n/2, 1); k++ {
		gs = append(gs, g)
		g = g * 5 % m
	}
	return gs
}

// Every element the ring hands out, at every size from one block (n = 8)
// to 2^16, is a permutation of whole 8-lane blocks whose used lane orders
// are permutations, at most 8 of them; and at every size up to 2^12 (and
// for the served steps above it) the map is the closed-form gather.
// Under -race the sizes above 2^13 check the served steps only.
func TestAutomorphismBlockStructure(t *testing.T) {
	for logn := 3; logn <= 16; logn++ {
		n := 1 << logn
		steps := map[uint64]bool{GaloisConjugate(n): true, 3: true, 25: true}
		for _, s := range []int{1, 2, 3, 4, 7, 16, 240, n/2 - 1} {
			steps[GaloisElement(s, n)] = true
		}
		seen := make([]bool, n/8)
		for _, g := range ringElements(n) {
			if raceEnabled && logn > 13 && !steps[g] {
				continue
			}
			a := newAutomorphism(g, logn)
			clear(seen)
			var used [8]bool
			for b, m := range a.blocks {
				src := m >> 3
				if seen[src] {
					t.Fatalf("n=%d g=%d: source block %d read twice (output block %d)", n, g, src, b)
				}
				seen[src] = true
				used[m&7] = true
			}
			shuffles := map[[8]uint64]bool{}
			for k, u := range used {
				if !u {
					continue
				}
				shuffles[a.lanes[k]] = true
				l := slices.Clone(a.lanes[k][:])
				slices.Sort(l)
				if !slices.Equal(l, []uint64{0, 1, 2, 3, 4, 5, 6, 7}) {
					t.Fatalf("n=%d g=%d: shuffle %d = %v is not a lane permutation", n, g, k, a.lanes[k])
				}
			}
			if len(shuffles) > 8 {
				t.Fatalf("n=%d g=%d: %d shuffles", n, g, len(shuffles))
			}
			if (logn <= 12 || steps[g]) && !slices.Equal(expand(a, n), gatherTable(g, logn)) {
				t.Fatalf("n=%d g=%d: block map differs from the closed-form gather", n, g)
			}
		}
	}
	// A row shorter than a vector is one block of all its lanes.
	for _, logn := range []int{1, 2} {
		for _, g := range ringElements(1 << logn) {
			if a := newAutomorphism(g, logn); !slices.Equal(expand(a, 1<<logn), gatherTable(g, logn)) {
				t.Fatalf("n=%d g=%d: block map differs from the closed-form gather", 1<<logn, g)
			}
		}
	}
}

// The row operations equal the gather on every shape: a row shorter than
// a vector (the Go form), a single-vector row, the Set-A and Set-C rows
// (the vector kernel on an AVX-512 host), on IFMA-sized and 55-bit
// primes; serial and fanned out. The pair's add must be AddMod's.
func TestAutomorphismNTTMatchesGather(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, shape := range []struct{ n, rows, bits int }{
		{4, 2, 30}, {8, 2, 30}, {4096, 3, 36}, {16384, 2, 49}, {16384, 2, 55},
	} {
		ctx := testContext(t, shape.n, shape.rows, shape.bits)
		a0, a1 := randPoly(ctx, shape.rows, rng), randPoly(ctx, shape.rows, rng)
		init0 := randPoly(ctx, shape.rows, rng)
		srcs := []*Poly{CopyOf(a0), CopyOf(a1)}
		for _, g := range []uint64{GaloisElement(1, shape.n), GaloisElement(-3, shape.n), GaloisConjugate(shape.n)} {
			auto := ctx.AutomorphismNTTTable(g)
			if ctx.AutomorphismNTTTable(g) != auto {
				t.Fatalf("n=%d g=%d: the block map is not cached", shape.n, g)
			}
			table := gatherTable(g, ctx.LogN)
			want0, want1, wantAdd := ctx.NewPoly(shape.rows), ctx.NewPoly(shape.rows), ctx.NewPoly(shape.rows)
			for i := range want0.Coeffs {
				p := ctx.Basis.Primes[i]
				for j, s := range table {
					want0.Coeffs[i][j] = a0.Coeffs[i][s]
					want1.Coeffs[i][j] = a1.Coeffs[i][s]
					wantAdd.Coeffs[i][j] = (init0.Coeffs[i][j] + a0.Coeffs[i][s]) % p
				}
			}
			for _, workers := range []int{1, 4} {
				ctx.SetWorkers(workers)
				out0, out1 := ctx.NewPoly(shape.rows), ctx.NewPoly(shape.rows)
				ctx.AutomorphismNTT(a0, auto, out0)
				if !out0.Equal(want0) {
					t.Fatalf("n=%d g=%d workers=%d: AutomorphismNTT differs from the gather", shape.n, g, workers)
				}
				ctx.RunRows(shape.rows, func(i int) {
					ctx.AutomorphismNTTPairRow(a0.Coeffs[i], a1.Coeffs[i], auto, out0.Coeffs[i], out1.Coeffs[i], false, i)
				})
				if !out0.Equal(want0) || !out1.Equal(want1) {
					t.Fatalf("n=%d g=%d workers=%d: AutomorphismNTTPairRow differs from the gather", shape.n, g, workers)
				}
				for i := range out0.Coeffs {
					ctx.AutomorphismNTTRow(a1.Coeffs[i], auto, out1.Coeffs[i])
					copy(out0.Coeffs[i], init0.Coeffs[i])
					ctx.AutomorphismNTTPairRow(a0.Coeffs[i], a1.Coeffs[i], auto, out0.Coeffs[i], out1.Coeffs[i], true, i)
				}
				if !out0.Equal(wantAdd) || !out1.Equal(want1) {
					t.Fatalf("n=%d g=%d workers=%d: AutomorphismNTTPairRow with add differs", shape.n, g, workers)
				}
				if !a0.Equal(srcs[0]) || !a1.Equal(srcs[1]) {
					t.Fatalf("n=%d g=%d: an automorphism modified its source", shape.n, g)
				}
			}
		}
	}
}

// An output that shares a row with an input is refused, however it is
// reached: the same poly, a Resize view of it (another *Poly over the
// same rows, which a pointer comparison lets through — the permutation
// would then read rows it had already overwritten), or a row handed to
// the row functions twice.
func TestAutomorphismNTTRefusesAliasedRows(t *testing.T) {
	ctx := testContext(t, 64, 2, 30)
	s := NewSampler(ctx, 4)
	a0, a1, other := uniform(s, 2), uniform(s, 2), ctx.NewPoly(2)
	auto := ctx.AutomorphismNTTTable(GaloisElement(1, 64))
	view := a0.Resize(2)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: aliased rows were not refused", name)
			}
		}()
		f()
	}
	mustPanic("AutomorphismNTT same poly", func() { ctx.AutomorphismNTT(a0, auto, a0) })
	mustPanic("AutomorphismNTT Resize view", func() { ctx.AutomorphismNTT(a0, auto, view) })
	mustPanic("AutomorphismNTT later rows", func() { ctx.AutomorphismNTT(a0, auto, &Poly{Coeffs: [][]uint64{other.Coeffs[0], a0.Coeffs[0]}}) })
	mustPanic("AutomorphismNTTPairRow out0 view", func() {
		ctx.AutomorphismNTTPairRow(a0.Coeffs[0], a1.Coeffs[0], auto, view.Coeffs[0], other.Coeffs[0], false, 0)
	})
	mustPanic("AutomorphismNTTPairRow out0 = out1", func() {
		ctx.AutomorphismNTTPairRow(a0.Coeffs[0], a1.Coeffs[0], auto, other.Coeffs[0], other.Resize(2).Coeffs[0], false, 0)
	})
	mustPanic("AutomorphismNTTRow", func() { ctx.AutomorphismNTTRow(a0.Coeffs[0], auto, view.Coeffs[0]) })
	mustPanic("AutomorphismNTTPairRow out0 = a1", func() {
		ctx.AutomorphismNTTPairRow(a0.Coeffs[0], a1.Coeffs[0], auto, a1.Coeffs[0], other.Coeffs[0], true, 0)
	})
	mustPanic("AutomorphismNTTPairRow out1 = a0", func() {
		ctx.AutomorphismNTTPairRow(a0.Coeffs[0], a1.Coeffs[0], auto, other.Coeffs[0], view.Coeffs[0], false, 0)
	})
}

// BenchmarkAutomorphismNTT prices one row of each permutation form on a
// Set-A (2^12, 36-bit) and a Set-C (2^14, 49-bit) row: store (σ of a
// hoisted digit or of c0), pair (σ of both components) and pair-add (a
// sum of rotations' σ(c0) folded into its running sum).
func BenchmarkAutomorphismNTT(b *testing.B) {
	for _, shape := range []struct {
		name    string
		n, bits int
	}{{"SetA", 4096, 36}, {"SetC", 16384, 49}} {
		ctx := testContext(b, shape.n, 1, shape.bits)
		rng := rand.New(rand.NewSource(1))
		a0, a1 := randPoly(ctx, 1, rng), randPoly(ctx, 1, rng)
		out0, out1 := ctx.NewPoly(1), ctx.NewPoly(1)
		auto := ctx.AutomorphismNTTTable(GaloisElement(1, shape.n))
		b.Run(shape.name+"/store", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx.AutomorphismNTTRow(a0.Coeffs[0], auto, out0.Coeffs[0])
			}
		})
		b.Run(shape.name+"/pair", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx.AutomorphismNTTPairRow(a0.Coeffs[0], a1.Coeffs[0], auto, out0.Coeffs[0], out1.Coeffs[0], false, 0)
			}
		})
		b.Run(shape.name+"/pair-add", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx.AutomorphismNTTPairRow(a0.Coeffs[0], a1.Coeffs[0], auto, out0.Coeffs[0], out1.Coeffs[0], true, 0)
			}
		})
	}
}
