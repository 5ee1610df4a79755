package heax_test

// Compile-time edge cases: identities, degenerate constants and
// pass-through outputs must either compile to correct plans or fail
// with a typed sentinel — never panic (the serving daemon feeds
// Compile with tenant-supplied DAGs).

import (
	"math"
	"strings"
	"testing"

	"heax"
)

// TestPlanRotateZeroIsIdentity: Rotate(a, 0) is eliminated — no Rotate
// step, no Galois key demanded — and the value passes through.
func TestPlanRotateZeroIsIdentity(t *testing.T) {
	k := newAPIKit(t)
	c := heax.NewCircuit()
	x := c.Input("x")
	c.Output("y", c.AddConst(c.Rotate(x, 0), 1))
	plan, err := c.Compile(k.params, &heax.EvaluationKeySet{}) // no keys at all
	if err != nil {
		t.Fatalf("Rotate by 0 must not demand keys: %v", err)
	}
	if strings.Contains(plan.Describe(), "Rotate") {
		t.Fatalf("Rotate(a, 0) must be eliminated:\n%s", plan.Describe())
	}
	in := []float64{1.5, -2}
	out, err := plan.Run(map[string]*heax.Ciphertext{"x": k.encrypt(t, in)})
	if err != nil {
		t.Fatal(err)
	}
	got := k.decodeReal(t, out["y"], len(in))
	for i, v := range in {
		if math.Abs(got[i]-(v+1)) > 1e-3 {
			t.Fatalf("slot %d: got %g, want %g", i, got[i], v+1)
		}
	}
}

// TestPlanInnerSumOneIsNoOp: InnerSum(a, 1) sums one slot — the value
// itself — and must compile to nothing extra.
func TestPlanInnerSumOneIsNoOp(t *testing.T) {
	k := newAPIKit(t)
	c := heax.NewCircuit()
	x := c.Input("x")
	c.Output("y", c.AddConst(c.InnerSum(x, 1), 0.5))
	plan, err := c.Compile(k.params, &heax.EvaluationKeySet{})
	if err != nil {
		t.Fatalf("InnerSum width 1 must not demand keys: %v", err)
	}
	if strings.Contains(plan.Describe(), "InnerSum") {
		t.Fatalf("InnerSum(a, 1) must be eliminated:\n%s", plan.Describe())
	}
	in := []float64{2, 3}
	out, err := plan.Run(map[string]*heax.Ciphertext{"x": k.encrypt(t, in)})
	if err != nil {
		t.Fatal(err)
	}
	got := k.decodeReal(t, out["y"], len(in))
	for i, v := range in {
		if math.Abs(got[i]-(v+0.5)) > 1e-3 {
			t.Fatalf("slot %d: got %g, want %g", i, got[i], v+0.5)
		}
	}
}

// TestPlanMulConstDegenerate: multiplying by 0 and by 1 must ride the
// scale ladder like any other plaintext product — compiling, running,
// and decrypting to exactly-zero / unchanged values.
func TestPlanMulConstDegenerate(t *testing.T) {
	k := newAPIKit(t)
	in := []float64{0.75, -1.25, 2}
	for _, tc := range []struct {
		name  string
		c     float64
		wants func(v float64) float64
	}{
		{"zero", 0, func(float64) float64 { return 0 }},
		{"one", 1, func(v float64) float64 { return v }},
		{"minus one", -1, func(v float64) float64 { return -v }},
	} {
		c := heax.NewCircuit()
		x := c.Input("x")
		// Feed the product into an addition with the original so the
		// compiler also has to reconcile the tiers.
		c.Output("y", c.Add(c.MulConst(x, tc.c), x))
		plan, err := c.Compile(k.params, k.evk)
		if err != nil {
			t.Fatalf("MulConst by %s: %v", tc.name, err)
		}
		out, err := plan.Run(map[string]*heax.Ciphertext{"x": k.encrypt(t, in)})
		if err != nil {
			t.Fatalf("MulConst by %s: %v", tc.name, err)
		}
		got := k.decodeReal(t, out["y"], len(in))
		for i, v := range in {
			want := tc.wants(v) + v
			if math.Abs(got[i]-want) > 1e-3 {
				t.Fatalf("MulConst by %s, slot %d: got %g, want %g", tc.name, i, got[i], want)
			}
		}
	}
}

// TestPlanPassThroughOutput: an Output that is also an Input compiles
// to a copy — the returned ciphertext carries the input's exact bits
// in caller-owned storage.
func TestPlanPassThroughOutput(t *testing.T) {
	k := newAPIKit(t)
	c := heax.NewCircuit()
	x := c.Input("x")
	c.Output("y", x)
	c.Output("z", x) // two outputs of the same node must also work
	plan, err := c.Compile(k.params, &heax.EvaluationKeySet{})
	if err != nil {
		t.Fatal(err)
	}
	ct := k.encrypt(t, []float64{1, 2, 3})
	out, err := plan.Run(map[string]*heax.Ciphertext{"x": ct})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"y", "z"} {
		got := out[name]
		if got == ct {
			t.Fatalf("output %q must not alias the caller's input", name)
		}
		if got.Scale != ct.Scale || got.Level != ct.Level || len(got.Polys) != len(ct.Polys) {
			t.Fatalf("output %q metadata differs from the input", name)
		}
		for i := range ct.Polys {
			if &got.Polys[i].Coeffs[0][0] == &ct.Polys[i].Coeffs[0][0] {
				t.Fatalf("output %q shares backing storage with the input", name)
			}
			if !got.Polys[i].Equal(ct.Polys[i]) {
				t.Fatalf("output %q is not bit-identical to the input", name)
			}
		}
	}
	if out["y"] == out["z"] {
		t.Fatal("distinct outputs must be distinct ciphertexts")
	}
}

// TestPlanWithoutProductSumsIsUntouched: the fusion of plaintext-product
// sums and the slot renumbering after it leave a plan with nothing to
// fuse exactly as it was lowered — here the benchmark's wire-addsub-C
// circuit, whose listing is pinned to what it was before the pass existed.
func TestPlanWithoutProductSumsIsUntouched(t *testing.T) {
	params, err := heax.NewParams(heax.SetC)
	if err != nil {
		t.Fatal(err)
	}
	c := heax.NewCircuit()
	x, y := c.Input("x"), c.Input("y")
	c.Output("s", c.Add(x, y))
	c.Output("d", c.Sub(x, y))
	plan, err := c.Compile(params, nil)
	if err != nil {
		t.Fatal(err)
	}
	const want = "plan: 2 steps, 4 slots, inputs [x y]\n" +
		"  0  Add            [0 1] -> [2]  @L7 scale=2^40.00\n" +
		"  1  Sub            [0 1] -> [3]  @L7 scale=2^40.00\n" +
		"outputs: d=s3@L7 s=s2@L7\n"
	if got := plan.Describe(); got != want {
		t.Fatalf("listing changed:\n%s\nwant:\n%s", got, want)
	}
}
