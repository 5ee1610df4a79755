package circuits_test

// Polynomial tests: pinned max-error bounds for the stock Chebyshev
// approximations, encrypted Paterson–Stockmeyer evaluation against the
// Clenshaw oracle, and the relin/depth accounting the PS structure
// buys.

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"heax"
	"heax/circuits"
)

// TestApproximateBounds pins the sup-norm error of every stock
// approximation over its interval (sampled at 4001 points). The bounds
// are ~5% above the measured error, so a regression in the
// interpolation or the coefficient math trips them immediately.
func TestApproximateBounds(t *testing.T) {
	sigmoid := func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
	inverse := func(x float64) float64 { return 1 / x }
	cases := []struct {
		name  string
		p     circuits.Polynomial
		f     func(float64) float64
		bound float64
	}{
		{"Sigmoid/3", circuits.Sigmoid(3), sigmoid, 0.12},
		{"Sigmoid/5", circuits.Sigmoid(5), sigmoid, 0.065},
		{"Sigmoid/7", circuits.Sigmoid(7), sigmoid, 0.031},
		{"Sigmoid/9", circuits.Sigmoid(9), sigmoid, 0.015},
		{"Sigmoid/15", circuits.Sigmoid(15), sigmoid, 0.0015},
		{"Exp/3", circuits.Exp(3), math.Exp, 7e-3},
		{"Exp/5", circuits.Exp(5), math.Exp, 6e-5},
		{"Exp/7", circuits.Exp(7), math.Exp, 3e-7},
		{"Inverse/3", circuits.Inverse(3), inverse, 0.05},
		{"Inverse/5", circuits.Inverse(5), inverse, 6e-3},
		{"Inverse/7", circuits.Inverse(7), inverse, 7e-4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			worst := 0.0
			for i := 0; i <= 4000; i++ {
				x := tc.p.A + (tc.p.B-tc.p.A)*float64(i)/4000
				if e := math.Abs(tc.p.Eval(x) - tc.f(x)); e > worst {
					worst = e
				}
			}
			if worst > tc.bound {
				t.Fatalf("max |p - f| = %g over [%g, %g], pinned bound %g", worst, tc.p.A, tc.p.B, tc.bound)
			}
		})
	}
}

// TestApproximateExactOnPolynomials: interpolating a polynomial of
// degree ≤ the requested degree reproduces it to rounding error.
func TestApproximateExactOnPolynomials(t *testing.T) {
	f := func(x float64) float64 { return 2*x*x*x - x + 0.5 }
	p, err := circuits.Approximate(f, -2, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Degree() != 3 {
		t.Fatalf("Degree() = %d, want 3", p.Degree())
	}
	for i := 0; i <= 100; i++ {
		x := -2 + 5*float64(i)/100
		if d := math.Abs(p.Eval(x) - f(x)); d > 1e-12 {
			t.Fatalf("x=%g: |p-f| = %g, want exact to rounding", x, d)
		}
	}
}

// TestEncryptedSigmoid evaluates the degree-7 sigmoid on Set-C and
// checks every used slot against the Clenshaw oracle — the scheme error
// of the whole PS pipeline (normalization, baby/giant powers, block
// combine) on top of CKKS noise.
func TestEncryptedSigmoid(t *testing.T) {
	k := newKit(t, heax.SetC)
	p := circuits.Sigmoid(7)

	c := heax.NewCircuit()
	out, err := p.Apply(c, c.Input("x"))
	if err != nil {
		t.Fatal(err)
	}
	c.Output("y", out)
	plan, err := c.Compile(k.params, k.keys(t, nil))
	if err != nil {
		t.Fatal(err)
	}

	// PS accounting for d=7, k=4: babies u²,u³ + giant u⁴ + one block
	// combine = exactly 4 relinearizations (Horner would need 6), no
	// rotations, and ⌈log₂ 7⌉+O(1) depth out of Set-C's 7 levels.
	counts := stepCounts(plan.Describe())
	if counts["MulRelin"] != 4 {
		t.Fatalf("degree-7 PS should relinearize exactly 4 times, got %d\n%s", counts["MulRelin"], plan.Describe())
	}
	if sumRotations(plan.Describe()) != 0 || counts["RotateHoisted"] != 0 {
		t.Fatalf("polynomial evaluation should need no rotations:\n%s", plan.Describe())
	}
	// The block sums Σ cⱼ·uʲ are sums of plaintext products.
	if left := unfusedSums(t, plan.Describe()); len(left) != 0 || counts["RotateSum"] == 0 {
		t.Fatalf("the Chebyshev block sums should compile to RotateSum steps:\n%s", plan.Describe())
	}
	lv, err := plan.OutputLevel("y")
	if err != nil {
		t.Fatal(err)
	}
	if lv < plan.InputLevel()-5 {
		t.Fatalf("degree-7 PS burned %d levels, want ≤ 5", plan.InputLevel()-lv)
	}

	rng := rand.New(rand.NewSource(3))
	n := 512
	xs := make([]complex128, n)
	for i := range xs {
		xs[i] = complex(-8+16*rng.Float64(), 0)
	}
	res, err := plan.Run(map[string]*heax.Ciphertext{"x": k.encrypt(t, xs)})
	if err != nil {
		t.Fatal(err)
	}
	got := k.decrypt(t, res["y"])
	for i := range xs {
		want := p.Eval(real(xs[i]))
		if d := math.Abs(real(got[i]) - want); d > 1e-4 {
			t.Fatalf("slot %d (x=%g): encrypted %g vs oracle %g (Δ=%g)", i, real(xs[i]), real(got[i]), want, d)
		}
	}
}

// TestServedLogisticPlan pins the plan the lr-serve-C benchmark serves: a
// BatchedDot of 8 weights, a bias and the degree-7 sigmoid on Set-C
// compile to 14 steps, the dot product's giant step and both Chebyshev
// block sums each one RotateSum, with no sum left unfused, every one of
// the 9 rescales fused with the single-use steps before it into 8 chains,
// a value that meets a lower one read through a view of its first rows,
// and one lift left (before the final Add), placed one level below the
// top by the sigmoid's bound.
func TestServedLogisticPlan(t *testing.T) {
	k := newKit(t, heax.SetC)
	c, steps := servedLogistic(t, k)
	plan, err := c.Compile(k.params, k.keys(t, steps))
	if err != nil {
		t.Fatal(err)
	}
	desc := plan.Describe()
	want := map[string]int{"RotateHoisted": 1, "RotateSum": 3, "MulPlain": 1, "Rescale": 4, "MulRelin": 4, "AddPlain": 0, "Add": 1}
	counts := stepCounts(desc)
	for kind, n := range want {
		if counts[kind] != n {
			t.Errorf("%d %s steps, want %d", counts[kind], kind, n)
		}
	}
	if plan.NumSteps() != 14 {
		t.Errorf("%d steps, want 14", plan.NumSteps())
	}
	if n := strings.Count(desc, "chain["); n != 8 {
		t.Errorf("%d fused chains, want 8", n)
	}
	if left := unfusedSums(t, desc); len(left) != 0 {
		t.Errorf("sums left unfused:\n%s", strings.Join(left, "\n"))
	}
	// The sigmoid bounds p, so the plan starts one level down and p
	// leaves at L1: two levels down a rescale would fall below L0.
	if lv := plan.InputLevel(); lv != k.params.MaxLevel()-1 {
		t.Errorf("input level %d, want %d", lv, k.params.MaxLevel()-1)
	}
	if lv, err := plan.OutputLevel("p"); err != nil || lv != 1 {
		t.Errorf("output level %d (%v), want 1", lv, err)
	}
	if t.Failed() {
		t.Log(desc)
	}
}

// TestEncryptedExpSetB: a degree-3 evaluation fits Set-B's 3-level
// chain.
func TestEncryptedExpSetB(t *testing.T) {
	k := newKit(t, heax.SetB)
	p := circuits.Exp(3)
	c := heax.NewCircuit()
	out, err := p.Apply(c, c.Input("x"))
	if err != nil {
		t.Fatal(err)
	}
	c.Output("y", out)
	plan, err := c.Compile(k.params, k.keys(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	n := 256
	xs := make([]complex128, n)
	for i := range xs {
		xs[i] = complex(-1+2*rng.Float64(), 0)
	}
	res, err := plan.Run(map[string]*heax.Ciphertext{"x": k.encrypt(t, xs)})
	if err != nil {
		t.Fatal(err)
	}
	got := k.decrypt(t, res["y"])
	for i := range xs {
		want := p.Eval(real(xs[i]))
		if d := math.Abs(real(got[i]) - want); d > 1e-4 {
			t.Fatalf("slot %d (x=%g): encrypted %g vs oracle %g (Δ=%g)", i, real(xs[i]), real(got[i]), want, d)
		}
	}
}

// TestEncryptedDegenerate: degree-0 and degree-1 polynomials compile to
// plain affine circuits (no relinearization at all) and still match the
// oracle.
func TestEncryptedDegenerate(t *testing.T) {
	k := newKit(t, heax.SetA)
	for _, tc := range []struct {
		name string
		p    circuits.Polynomial
	}{
		{"constant", circuits.Polynomial{Coeffs: []float64{0.75}, A: -1, B: 1}},
		{"affine", circuits.Polynomial{Coeffs: []float64{0.5, 2}, A: -1, B: 1}}, // 0.5 + 2u, u = x here
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := heax.NewCircuit()
			out, err := tc.p.Apply(c, c.Input("x"))
			if err != nil {
				t.Fatal(err)
			}
			c.Output("y", out)
			plan, err := c.Compile(k.params, k.keys(t, nil))
			if err != nil {
				t.Fatal(err)
			}
			if n := stepCounts(plan.Describe())["MulRelin"]; n != 0 {
				t.Fatalf("degenerate polynomial should not relinearize, got %d", n)
			}
			xs := []complex128{0.25, -0.5, 1}
			res, err := plan.Run(map[string]*heax.Ciphertext{"x": k.encrypt(t, xs)})
			if err != nil {
				t.Fatal(err)
			}
			got := k.decrypt(t, res["y"])
			for i := range xs {
				want := tc.p.Eval(real(xs[i]))
				if d := math.Abs(real(got[i]) - want); d > 2e-3 {
					t.Fatalf("slot %d: got %g, want %g", i, real(got[i]), want)
				}
			}
		})
	}
}

// TestPolynomialValidation pins the error paths of Apply and
// Approximate, and the stock constructors' panic contract.
func TestPolynomialValidation(t *testing.T) {
	c := heax.NewCircuit()
	in := c.Input("x")
	bad := []circuits.Polynomial{
		{},                                 // no coefficients
		{Coeffs: []float64{1}, A: 1, B: 1}, // empty interval
		{Coeffs: []float64{1}, A: 2, B: 1}, // inverted interval
		{Coeffs: []float64{1, math.NaN()}, A: 0, B: 1},              // NaN coefficient
		{Coeffs: make([]float64, circuits.MaxDegree+2), A: 0, B: 1}, // degree 32
	}
	bad[4].Coeffs[circuits.MaxDegree+1] = 1
	for i, p := range bad {
		if _, err := p.Apply(c, in); err == nil {
			t.Fatalf("case %d: Apply should fail for %+v", i, p)
		}
	}

	if _, err := circuits.Approximate(math.Exp, 0, 1, -1); err == nil {
		t.Fatal("Approximate with negative degree should fail")
	}
	if _, err := circuits.Approximate(math.Exp, 0, 1, circuits.MaxDegree+1); err == nil {
		t.Fatal("Approximate beyond MaxDegree should fail")
	}
	if _, err := circuits.Approximate(math.Exp, 1, 0, 3); err == nil {
		t.Fatal("Approximate with inverted interval should fail")
	}
	if _, err := circuits.Approximate(func(float64) float64 { return math.NaN() }, 0, 1, 3); err == nil {
		t.Fatal("Approximate of a NaN-valued f should fail")
	}

	for _, d := range []int{0, -1, circuits.MaxDegree + 1} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("Sigmoid(%d) should panic", d)
				} else if !strings.Contains(r.(string), "Sigmoid") {
					t.Fatalf("panic message %q should name the constructor", r)
				}
			}()
			circuits.Sigmoid(d)
		}()
	}
}
