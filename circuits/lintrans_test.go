package circuits_test

// LinearTransform property tests: encrypted matvec against a cleartext
// oracle across every standard parameter set and awkward shapes (1×1,
// prime, non-square), the BSGS structure assertions at full slot width,
// and the batched-dot layout.

import (
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"

	"heax"
	"heax/circuits"
	"heax/internal/ring"
)

// matvecTol bounds the error of slot s of an encrypted y = m·x, x
// replicated with period n, computed as Apply builds it: baby rotations
// rot(x, b) in one hoisted batch, products by the diagonals a_d, and the
// giant rotations in one RotateSum. Slot j of the encoding is the value at
// the root ζ^(5^j) of X^N + 1, ζ = e^(iπ/N), so a coefficient-domain error
// e lands on slot j as e(ζ^(5^j)); errors are summed as independent
// Gaussians (variances add), z = 4 standard deviations wide. Every term is
// divided by the scale Δ at the end.
//
//   - Fresh encryption: c = ⌊(u·pk + (e0, e1))/P⌉ + (m, 0) decrypts with
//     error r0 + r1·s + (u·e + e0 + e1·s)/P, the rounding r uniform in
//     [-1/2, 1/2]. With s of weight at most N a slot has variance at most
//     σ_f² = N(N+1)/12; the /P part is below one unit.
//   - Baby rotation b ≠ 0 (its key switch): Σ_i σ_b(d_i)·e_i/P over the
//     K digits d_i ∈ [0, q_i) of the input's c1, e_i the key errors of
//     variance σ_e² = CBDWidth/2. A digit is its mean q_i/2 times the
//     all-ones polynomial 1(X) plus a centred part; σ_b moves 1(X)'s slot
//     values by b slots and the giant rotation g by g more, so on output
//     slot s the term of diagonal d = g + b carries
//     σ_k(s+d)² = K·N·σ_e²·((q/2)²·|1(ζ^(5^(s+d)))|² + N·q²/12)/P², with
//     |1(ζ^k)| = 1/|sin(πk/2N)|: large only on the slots whose root is
//     near 1. Its floor by P adds a rounding like a fresh one (σ_f²) and,
//     being a floor, a mean ½·1(X)·(1 + s(X)): at most
//     ½·C_s·(1 + z·√(2N/3)) on slot s, C_s the largest |1| over the slots
//     s..s+n-1 the giant rotations read, and the same for every term of a
//     giant group, so these add linearly.
//   - Each of the n diagonals is encoded at scale Δ, rounding N
//     coefficients: a slot error of variance N/12 that multiplies x
//     (|x| ≤ √2 in these tests), the only error on a zero slot.
//   - The giant rotations' key switches act at scale Δ², so their error is
//     Δ times smaller than a baby rotation's.
//
// So, with a_d the entry of diagonal d on slot s (m[s mod n][(s+d) mod n],
// zero outside m),
//
//	tol·Δ = z·√(Σ_d |a_d|²·(σ_f² + [d≠0]·(σ_f² + σ_k(s+d)²)) + 2nN/12)
//	        + Σ_{d≠0} |a_d|·½·C_s·(1 + z·√(2N/3)).
//
// On Set-C (q > P) the key switch dominates; on Set-A and Set-B (q < P)
// the floor's mean does. TestMatVecOracle logs the largest share of its
// bound an error takes: 0.40, 0.40 and 0.63 on Sets A, B and C with
// newKit's seeds.
func matvecTol(p *heax.Params, m [][]complex128, n, s int) float64 {
	const z = 4
	N := float64(p.N)
	q := 0.0
	for _, qi := range p.Q {
		q = max(q, float64(qi))
	}
	P := float64(p.P)
	ones := func(slot int) float64 { // |1(ζ^(5^slot))|
		k := 1
		for i := 0; i < slot; i++ {
			k = k * 5 % (2 * p.N)
		}
		return 1 / math.Abs(math.Sin(math.Pi*float64(k)/(2*N)))
	}
	fresh := N * (N + 1) / 12
	keyErr := float64(len(p.Q)) * N * ring.CBDWidth / 2 / (P * P)
	var cs float64
	for t := s; t < s+n; t++ {
		cs = max(cs, ones(t))
	}
	floorMean := cs / 2 * (1 + z*math.Sqrt(2*N/3))
	var v, lin float64
	if r := s % n; r < len(m) {
		for d := 0; d < n; d++ {
			j := (r + d) % n
			if j >= len(m[r]) {
				continue
			}
			a := cmplx.Abs(m[r][j])
			v += a * a * fresh
			if d == 0 {
				continue
			}
			c := ones(s + d)
			v += a * a * (fresh + keyErr*(q*q/4*c*c+N*q*q/12))
			lin += a * floorMean
		}
	}
	v += 2 * float64(n) * N / 12
	return (z*math.Sqrt(v) + lin) / p.DefaultScale()
}

// TestMatVecOracle runs random complex matrices of awkward shapes —
// including dimension 1, a prime dimension, and non-square tall/wide —
// through FromMatrix/Apply on every standard parameter set and checks
// every slot of the first two replica blocks against the cleartext
// product, padding included.
func TestMatVecOracle(t *testing.T) {
	dims := []struct{ rows, cols int }{{1, 1}, {7, 7}, {12, 5}, {3, 7}, {8, 8}}
	for _, spec := range heax.StandardSets {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			k := newKit(t, spec)
			rng := rand.New(rand.NewSource(42))
			worst, worstRatio := 0.0, 0.0
			for _, dim := range dims {
				m := make([][]complex128, dim.rows)
				for i := range m {
					m[i] = randComplex(rng, dim.cols)
				}
				x := randComplex(rng, dim.cols)

				lt, err := circuits.FromMatrix(m)
				if err != nil {
					t.Fatalf("%dx%d: FromMatrix: %v", dim.rows, dim.cols, err)
				}
				c := heax.NewCircuit()
				out, err := lt.Apply(c, c.Input("x"))
				if err != nil {
					t.Fatalf("%dx%d: Apply: %v", dim.rows, dim.cols, err)
				}
				c.Output("y", out)
				steps, err := c.RequiredRotations(k.params)
				if err != nil {
					t.Fatalf("%dx%d: RequiredRotations: %v", dim.rows, dim.cols, err)
				}
				plan, err := c.Compile(k.params, k.keys(t, steps))
				if err != nil {
					t.Fatalf("%dx%d: Compile: %v", dim.rows, dim.cols, err)
				}
				xs, err := circuits.Replicate(x, lt.Dimension, k.params.Slots())
				if err != nil {
					t.Fatalf("%dx%d: Replicate: %v", dim.rows, dim.cols, err)
				}
				res, err := plan.Run(map[string]*heax.Ciphertext{"x": k.encrypt(t, xs)})
				if err != nil {
					t.Fatalf("%dx%d: Run: %v", dim.rows, dim.cols, err)
				}
				got := k.decrypt(t, res["y"])

				n := lt.Dimension
				for block := 0; block < 2; block++ {
					for i := 0; i < n; i++ {
						var want complex128
						if i < dim.rows {
							for j := 0; j < dim.cols; j++ {
								want += m[i][j] * x[j]
							}
						}
						d := cmplx.Abs(got[block*n+i] - want)
						tol := matvecTol(k.params, m, n, block*n+i)
						if d > tol {
							t.Fatalf("%dx%d on %s: block %d slot %d: |got-want| = %g (got %v, want %v)",
								dim.rows, dim.cols, spec.Name, block, i, d, got[block*n+i], want)
						}
						worst, worstRatio = max(worst, d), max(worstRatio, d/tol)
					}
				}
			}
			t.Logf("%s: largest |got-want| %.3g, largest share of its slot's bound %.2f", spec.Name, worst, worstRatio)
		})
	}
}

// TestMatVecDenseAtSlotWidth is the acceptance check for the BSGS
// structure: a dense transform at n = slots (2048 on Set-A, all 2048
// diagonals nonzero) must compile to O(√n) rotations — one hoisted
// baby-step batch plus n/n1 − 1 giant-step rotations, all of them terms of
// one RotateSum — not O(n).
func TestMatVecDenseAtSlotWidth(t *testing.T) {
	k := newKit(t, heax.SetA)
	n := k.params.Slots() // 2048
	rng := rand.New(rand.NewSource(7))

	// Every diagonal nonzero, value in slot 0 only: the transform is
	// y[0] = Σ_d w_d·x[d], y[i≠0] = 0 — dense in diagonals (what BSGS
	// cost depends on) while keeping the plan's plaintext footprint
	// small.
	w := make([]complex128, n)
	diags := make(map[int][]complex128, n)
	for d := 0; d < n; d++ {
		w[d] = complex(2*rng.Float64()-1, 0)
		diags[d] = []complex128{w[d]}
	}
	lt := &circuits.LinearTransform{Dimension: n, Diagonals: diags}

	c := heax.NewCircuit()
	out, err := lt.Apply(c, c.Input("x"))
	if err != nil {
		t.Fatal(err)
	}
	c.Output("y", out)

	// √n accounting: the picker should land on n1 = 64 (63 babies + 31
	// giants = 94 distinct rotations for n = 2048).
	steps, err := c.RequiredRotations(k.params)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 94 {
		t.Fatalf("dense n=%d matvec needs %d distinct rotations, want 94 (n1+n/n1-2)", n, len(steps))
	}

	plan, err := c.Compile(k.params, k.keys(t, steps))
	if err != nil {
		t.Fatal(err)
	}
	counts := stepCounts(plan.Describe())
	if counts["RotateHoisted"] != 1 {
		t.Fatalf("baby-step rotations should compile to exactly 1 hoisted batch, got %d", counts["RotateHoisted"])
	}
	if counts["RotateSum"] != 1 || sumRotations(plan.Describe()) != 31 {
		t.Fatalf("giant-step rotations should compile to 31 rotated terms of one RotateSum step, got %d in %d such steps",
			sumRotations(plan.Describe()), counts["RotateSum"])
	}

	x := randComplex(rng, n)
	res, err := plan.Run(map[string]*heax.Ciphertext{"x": k.encrypt(t, x)})
	if err != nil {
		t.Fatal(err)
	}
	got := k.decrypt(t, res["y"])
	var want complex128
	for d := 0; d < n; d++ {
		want += w[d] * x[d]
	}
	// The dot product sums 2048 terms, so allow the per-slot budget
	// scaled by √n noise growth.
	if d := cmplx.Abs(got[0] - want); d > 0.05 {
		t.Fatalf("slot 0: |got-want| = %g (got %v, want %v)", d, got[0], want)
	}
	for _, i := range []int{1, 17, n - 1} {
		if d := cmplx.Abs(got[i]); d > 0.05 {
			t.Fatalf("slot %d should be ~0, got %v", i, got[i])
		}
	}
}

// TestMatVecFusesInnerSums: the 256×256 BSGS matvec (the benchmark's
// matvec-serve-A plan) compiles to one hoisted batch of the 15 baby
// rotations and one RotateSum: the 15 giant rotations of their groups'
// 16-term inner sums plus the unrotated group — 2 steps where every
// product and partial sum once had its own (527), and every inner sum, giant
// rotation and join had one until the giant step fused too (47). With
// BabyDim = 256 it is two steps: 255 rotations in one batch and a
// RotateSum of one unrotated 256-product dot product. Every diagonal has
// period 256 in the slots, so every plaintext is stored compact.
func TestMatVecFusesInnerSums(t *testing.T) {
	k := newKit(t, heax.SetA)
	rng := rand.New(rand.NewSource(13))
	for _, shape := range []struct {
		babyDim int
		want    map[string]int
		terms   string
	}{
		{0, map[string]int{"RotateHoisted": 1, "RotateSum": 1}, " terms=16 factors=256 compact=256\n"},
		{256, map[string]int{"RotateHoisted": 1, "RotateSum": 1}, " rot[0] terms=1 factors=256 compact=256\n"},
	} {
		plan := matVecPlan(t, k, rng, shape.babyDim)
		desc := plan.Describe()
		counts := stepCounts(desc)
		total := 0
		for kind, want := range shape.want {
			if counts[kind] != want {
				t.Fatalf("BabyDim=%d: %d %s steps, want %d\n%s", shape.babyDim, counts[kind], kind, want, desc)
			}
			total += want
		}
		if plan.NumSteps() != total {
			t.Fatalf("BabyDim=%d: %d steps, want %d\n%s", shape.babyDim, plan.NumSteps(), total, desc)
		}
		if got := strings.Count(desc, shape.terms); got != 1 {
			t.Fatalf("BabyDim=%d: %d sums of%swant 1\n%s", shape.babyDim, got, shape.terms, desc)
		}
		if left := unfusedSums(t, desc); len(left) != 0 {
			t.Fatalf("BabyDim=%d: sums of plaintext products left unfused:\n%s", shape.babyDim, strings.Join(left, "\n"))
		}
	}
}

// TestBatchedDot scores slots/8 samples against one weight vector in a
// single transform and checks both the values and the rotation set the
// n1 picker selects.
func TestBatchedDot(t *testing.T) {
	k := newKit(t, heax.SetA)
	rng := rand.New(rand.NewSource(11))
	w := make([]float64, 8)
	for i := range w {
		w[i] = 2*rng.Float64() - 1
	}
	lt, err := circuits.BatchedDot(w)
	if err != nil {
		t.Fatal(err)
	}
	if lt.Dimension != 8 {
		t.Fatalf("BatchedDot dimension = %d, want 8", lt.Dimension)
	}
	// All 8 diagonals present: the picker should choose n1 = 4 (babies
	// 1,2,3 + giant 4), beating n1 = 1 or 8 (7 rotations each).
	rots, err := lt.Rotations()
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 3, 4}; !equalInts(rots, want) {
		t.Fatalf("Rotations() = %v, want %v", rots, want)
	}

	c := heax.NewCircuit()
	out, err := lt.Apply(c, c.Input("x"))
	if err != nil {
		t.Fatal(err)
	}
	c.Output("scores", out)
	steps, err := c.RequiredRotations(k.params)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(steps, rots) {
		t.Fatalf("RequiredRotations = %v, want %v", steps, rots)
	}
	plan, err := c.Compile(k.params, k.keys(t, steps))
	if err != nil {
		t.Fatal(err)
	}
	if left := unfusedSums(t, plan.Describe()); len(left) != 0 || stepCounts(plan.Describe())["RotateSum"] != 1 || sumRotations(plan.Describe()) != 1 {
		t.Fatalf("BatchedDot's inner sums and its giant rotation should be one RotateSum step:\n%s", plan.Describe())
	}

	// One sample's features per 8-slot block, no replication.
	slots := k.params.Slots()
	x := make([]complex128, slots)
	for i := range x {
		x[i] = complex(2*rng.Float64()-1, 0)
	}
	res, err := plan.Run(map[string]*heax.Ciphertext{"x": k.encrypt(t, x)})
	if err != nil {
		t.Fatal(err)
	}
	got := k.decrypt(t, res["scores"])
	for s := 0; s < 16; s++ { // first 16 samples
		base := s * 8
		var want complex128
		for j := 0; j < 8; j++ {
			want += complex(w[j], 0) * x[base+j]
		}
		if d := cmplx.Abs(got[base] - want); d > 2e-3 {
			t.Fatalf("sample %d: |got-want| = %g", s, d)
		}
		for j := 1; j < 8; j++ {
			if d := cmplx.Abs(got[base+j]); d > 2e-3 {
				t.Fatalf("sample %d slot %d should be ~0, got %v", s, j, got[base+j])
			}
		}
	}
}

// TestZeroTransform: the all-zero matrix is a valid transform that
// degenerates to the zero vector (and needs no rotation keys at all).
func TestZeroTransform(t *testing.T) {
	k := newKit(t, heax.SetA)
	lt, err := circuits.FromRealMatrix([][]float64{{0, 0}, {0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	rots, err := lt.Rotations()
	if err != nil {
		t.Fatal(err)
	}
	if len(rots) != 0 {
		t.Fatalf("zero transform Rotations() = %v, want none", rots)
	}
	c := heax.NewCircuit()
	out, err := lt.Apply(c, c.Input("x"))
	if err != nil {
		t.Fatal(err)
	}
	c.Output("y", out)
	plan, err := c.Compile(k.params, k.keys(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	xs, err := circuits.ReplicateReal([]float64{3, -4}, lt.Dimension, k.params.Slots())
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Run(map[string]*heax.Ciphertext{"x": k.encrypt(t, xs)})
	if err != nil {
		t.Fatal(err)
	}
	got := k.decrypt(t, res["y"])
	for i := 0; i < 8; i++ {
		if math.Abs(real(got[i])) > 2e-3 || math.Abs(imag(got[i])) > 2e-3 {
			t.Fatalf("slot %d of zero transform = %v, want ~0", i, got[i])
		}
	}
}

// TestLinearTransformValidation pins the error paths of the
// constructors, the BSGS planner and Replicate.
func TestLinearTransformValidation(t *testing.T) {
	if _, err := circuits.FromMatrix(nil); err == nil {
		t.Fatal("FromMatrix(nil) should fail")
	}
	if _, err := circuits.FromMatrix([][]complex128{{}}); err == nil {
		t.Fatal("FromMatrix with empty rows should fail")
	}
	if _, err := circuits.FromMatrix([][]complex128{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged matrix should fail")
	}
	if _, err := circuits.BatchedDot(nil); err == nil {
		t.Fatal("BatchedDot(nil) should fail")
	}

	bad := []circuits.LinearTransform{
		{Dimension: 3, Diagonals: map[int][]complex128{0: {1}}},             // non-pow2 dim
		{Dimension: 0, Diagonals: map[int][]complex128{0: {1}}},             // zero dim
		{Dimension: 4, Diagonals: nil},                                      // no diagonals
		{Dimension: 4, Diagonals: map[int][]complex128{0: {1, 2, 3, 4, 5}}}, // oversize diagonal
		{Dimension: 4, Diagonals: map[int][]complex128{1: {1}, 5: {2}}},     // 1 ≡ 5 mod 4
		{Dimension: 4, Diagonals: map[int][]complex128{0: {cmplx.Inf()}}},   // non-finite value
		{Dimension: 4, Diagonals: map[int][]complex128{1: {1}}, BabyDim: 3}, // bad BabyDim
		{Dimension: 4, Diagonals: map[int][]complex128{1: {1}}, BabyDim: 8}, // BabyDim > dim
		{Dimension: 4, Diagonals: map[int][]complex128{0: {complex(math.NaN(), 0)}}},
	}
	for i, lt := range bad {
		lt := lt
		if _, err := lt.Rotations(); err == nil {
			t.Fatalf("case %d: Rotations should fail for %+v", i, lt)
		}
		c := heax.NewCircuit()
		if _, err := lt.Apply(c, c.Input("x")); err == nil {
			t.Fatalf("case %d: Apply should fail", i)
		}
	}

	// Negative diagonal indices are canonicalized modulo the dimension.
	lt := circuits.LinearTransform{Dimension: 8, Diagonals: map[int][]complex128{-1: {1}}}
	rots, err := lt.Rotations()
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(rots, []int{7}) {
		t.Fatalf("diagonal -1 mod 8: Rotations() = %v, want [7]", rots)
	}

	if _, err := circuits.Replicate(nil, 3, 8); err == nil {
		t.Fatal("Replicate with non-pow2 dim should fail")
	}
	if _, err := circuits.Replicate(make([]complex128, 5), 4, 8); err == nil {
		t.Fatal("Replicate with oversize vector should fail")
	}
	if _, err := circuits.Replicate(make([]complex128, 4), 16, 8); err == nil {
		t.Fatal("Replicate with dim > slots should fail")
	}

	got, err := circuits.ReplicateReal([]float64{1, 2, 3}, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := []complex128{1, 2, 3, 0, 1, 2, 3, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Replicate layout slot %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestBabyDimOverride: an explicit BabyDim changes the rotation set as
// documented (n1 = 1 degenerates to one rotation per diagonal).
func TestBabyDimOverride(t *testing.T) {
	diags := map[int][]complex128{}
	for d := 0; d < 8; d++ {
		diags[d] = []complex128{1}
	}
	lt := circuits.LinearTransform{Dimension: 8, Diagonals: diags, BabyDim: 1}
	rots, err := lt.Rotations()
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(rots, []int{1, 2, 3, 4, 5, 6, 7}) {
		t.Fatalf("BabyDim=1 Rotations() = %v, want all giants", rots)
	}
	lt.BabyDim = 8
	rots, err = lt.Rotations()
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(rots, []int{1, 2, 3, 4, 5, 6, 7}) {
		t.Fatalf("BabyDim=8 Rotations() = %v, want all babies", rots)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
