package heax_test

// Black-box tests of the Circuit → Compile → Plan pipeline: value
// correctness against cleartext, compile-time structure (CSE, pruning,
// hoisting), the compile-time sentinels, and run-time input validation.

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"heax"
	"heax/circuits"
)

func encryptVals(t testing.TB, k *apiKit, vals []float64) *heax.Ciphertext {
	t.Helper()
	return k.encrypt(t, vals)
}

// TestPlanSquarePlusOne: y = x² + 1 with zero manual maintenance.
func TestPlanSquarePlusOne(t *testing.T) {
	k := newAPIKit(t)
	c := heax.NewCircuit()
	x := c.Input("x")
	c.Output("y", c.AddConst(c.MulRelin(x, x), 1))
	plan, err := c.Compile(k.params, k.evk)
	if err != nil {
		t.Fatal(err)
	}
	in := []float64{0.5, -1.25, 2.0}
	out, err := plan.Run(map[string]*heax.Ciphertext{"x": encryptVals(t, k, in)})
	if err != nil {
		t.Fatal(err)
	}
	got := k.decodeReal(t, out["y"], len(in))
	for i, v := range in {
		want := v*v + 1
		if math.Abs(got[i]-want) > 1e-3 {
			t.Fatalf("slot %d: got %g, want %g", i, got[i], want)
		}
	}
	if lv, _ := plan.OutputLevel("y"); lv != k.params.MaxLevel() {
		t.Fatalf("x²+1 should stay at the top level (unrescaled product), got %d", lv)
	}
}

// TestPlanDepthChain drives a chain of squarings through every level of
// Set-B and checks both the values and the inferred levels.
func TestPlanDepthChain(t *testing.T) {
	k := newAPIKit(t)
	c := heax.NewCircuit()
	x := c.Input("x")
	// ((x²)²)² consumes MaxLevel rescales when each square feeds the next.
	v := x
	for i := 0; i < k.params.MaxLevel(); i++ {
		v = c.MulRelin(v, v)
	}
	c.Output("y", v)
	plan, err := c.Compile(k.params, k.evk)
	if err != nil {
		t.Fatal(err)
	}
	in := []float64{1.1, -0.9}
	out, err := plan.Run(map[string]*heax.Ciphertext{"x": encryptVals(t, k, in)})
	if err != nil {
		t.Fatal(err)
	}
	got := k.decodeReal(t, out["y"], len(in))
	for i, val := range in {
		want := val
		for j := 0; j < k.params.MaxLevel(); j++ {
			want *= want
		}
		if math.Abs(got[i]-want) > 1e-2 {
			t.Fatalf("slot %d: got %g, want %g", i, got[i], want)
		}
	}
	// MaxLevel+1 squarings still fit — the final product may stay
	// unrescaled at level 0 — but one more has nowhere to go.
	c2 := heax.NewCircuit()
	x2 := c2.Input("x")
	v2 := x2
	for i := 0; i <= k.params.MaxLevel()+1; i++ {
		v2 = c2.MulRelin(v2, v2)
	}
	c2.Output("y", v2)
	if _, err := c2.Compile(k.params, k.evk); !errors.Is(err, heax.ErrLevelMismatch) {
		t.Fatalf("over-deep circuit: got %v, want ErrLevelMismatch", err)
	}
}

// TestPlanMixedLevelsAdd reconciles operands that live at different
// levels and tiers — the case that forces compiler-inserted lifts.
func TestPlanMixedLevelsAdd(t *testing.T) {
	k := newAPIKit(t)
	c := heax.NewCircuit()
	x := c.Input("x")
	cube := c.MulRelin(c.MulRelin(x, x), x) // two levels deep
	lin := c.MulConst(x, 0.5)               // shallow product
	c.Output("y", c.AddConst(c.Add(cube, lin), 0.25))
	plan, err := c.Compile(k.params, k.evk)
	if err != nil {
		t.Fatal(err)
	}
	in := []float64{0.75, -0.5, 1.25}
	out, err := plan.Run(map[string]*heax.Ciphertext{"x": encryptVals(t, k, in)})
	if err != nil {
		t.Fatal(err)
	}
	got := k.decodeReal(t, out["y"], len(in))
	for i, v := range in {
		want := v*v*v + 0.5*v + 0.25
		if math.Abs(got[i]-want) > 1e-3 {
			t.Fatalf("slot %d: got %g, want %g", i, got[i], want)
		}
	}
}

// TestPlanCSEAndPruning: duplicate subexpressions compile once, dead
// nodes compile to nothing.
func TestPlanCSEAndPruning(t *testing.T) {
	k := newAPIKit(t)

	build := func(dedup bool) *heax.Circuit {
		c := heax.NewCircuit()
		x := c.Input("x")
		y := c.Input("y")
		a := c.MulRelin(x, y)
		var b heax.Node
		if dedup {
			b = c.MulRelin(y, x) // commutative duplicate of a
		} else {
			b = a
		}
		c.Output("z", c.Add(a, b))
		return c
	}
	single, err := build(false).Compile(k.params, k.evk)
	if err != nil {
		t.Fatal(err)
	}
	dup, err := build(true).Compile(k.params, k.evk)
	if err != nil {
		t.Fatal(err)
	}
	if single.NumSteps() != dup.NumSteps() {
		t.Fatalf("CSE failed: %d steps with duplicate vs %d without\n%s", dup.NumSteps(), single.NumSteps(), dup.Describe())
	}

	// A dead branch (never reaching an output) adds no steps.
	c := heax.NewCircuit()
	x := c.Input("x")
	y := c.Input("y")
	a := c.MulRelin(x, y)
	c.InnerSum(c.MulRelin(a, a), 4) // dead
	c.Output("z", c.Add(a, a))
	pruned, err := c.Compile(k.params, k.evk)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.NumSteps() != single.NumSteps() {
		t.Fatalf("pruning failed: %d steps, want %d\n%s", pruned.NumSteps(), single.NumSteps(), pruned.Describe())
	}
}

// TestPlanRotationHoisting: rotations sharing a source compile into one
// hoisted-decomposition batch, which agrees with rotating step by step
// on the imperative evaluator.
func TestPlanRotationHoisting(t *testing.T) {
	k := newAPIKit(t)
	c := heax.NewCircuit()
	x := c.Input("x")
	s := c.Add(c.Rotate(x, 1), c.Rotate(x, 2))
	c.Output("y", c.Add(s, x))
	hoisted, err := c.Compile(k.params, k.evk)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(hoisted.Describe(), "RotateHoisted"); n != 1 || hoisted.NumSteps() != 3 {
		t.Fatalf("hoisting should merge 2 rotations into 1 step beside the 2 additions: %d hoisted, %d steps\n%s",
			n, hoisted.NumSteps(), hoisted.Describe())
	}

	ct := encryptVals(t, k, []float64{1, 2, 3, 4})
	out, err := hoisted.Run(map[string]*heax.Ciphertext{"x": ct})
	if err != nil {
		t.Fatal(err)
	}
	want := ct
	for _, step := range []int{1, 2} {
		r, err := k.eval.RotateLeft(ct, step)
		if err != nil {
			t.Fatal(err)
		}
		if want, err = k.eval.Add(want, r); err != nil {
			t.Fatal(err)
		}
	}
	gotH := k.decodeReal(t, out["y"], 4)
	gotP := k.decodeReal(t, want, 4)
	for i := range gotH {
		if math.Abs(gotH[i]-gotP[i]) > 1e-4 {
			t.Fatalf("hoisted plan and step-by-step rotation diverge at slot %d: %g vs %g", i, gotH[i], gotP[i])
		}
	}
}

// TestPlanCompileSentinels: missing keys and impossible assignments are
// rejected at compile time with the PR-3 sentinels.
func TestPlanCompileSentinels(t *testing.T) {
	k := newAPIKit(t)

	c := heax.NewCircuit()
	x := c.Input("x")
	c.Output("y", c.MulRelin(x, x))
	if _, err := c.Compile(k.params, nil); !errors.Is(err, heax.ErrKeyMissing) {
		t.Fatalf("MulRelin without relin key: got %v, want ErrKeyMissing", err)
	}

	c2 := heax.NewCircuit()
	x2 := c2.Input("x")
	c2.Output("y", c2.Rotate(x2, 999))
	if _, err := c2.Compile(k.params, k.evk); !errors.Is(err, heax.ErrKeyMissing) {
		t.Fatalf("Rotate with missing step key: got %v, want ErrKeyMissing", err)
	}

	c3 := heax.NewCircuit()
	x3 := c3.Input("x")
	c3.Output("y", c3.InnerSum(x3, 8)) // needs steps 4, 2, 1; kit has 1, 2
	if _, err := c3.Compile(k.params, k.evk); !errors.Is(err, heax.ErrKeyMissing) {
		t.Fatalf("InnerSum with missing span keys: got %v, want ErrKeyMissing", err)
	}

	// Builder misuse surfaces at Compile.
	c4 := heax.NewCircuit()
	other := heax.NewCircuit()
	c4.Output("y", c4.Add(c4.Input("x"), other.Input("z")))
	if _, err := c4.Compile(k.params, k.evk); err == nil {
		t.Fatal("cross-circuit node must fail to compile")
	}

	// No outputs.
	c5 := heax.NewCircuit()
	c5.Input("x")
	if _, err := c5.Compile(k.params, k.evk); err == nil {
		t.Fatal("output-less circuit must fail to compile")
	}
}

// TestPlanRunValidation: Run rejects missing and malformed inputs with
// the usual sentinels.
func TestPlanRunValidation(t *testing.T) {
	k := newAPIKit(t)
	c := heax.NewCircuit()
	x := c.Input("x")
	c.Output("y", c.MulConst(x, 2))
	plan, err := c.Compile(k.params, k.evk)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := plan.Run(map[string]*heax.Ciphertext{}); err == nil {
		t.Fatal("missing input must fail")
	}
	dropped, err := k.eval.DropLevel(encryptVals(t, k, []float64{1}), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Run(map[string]*heax.Ciphertext{"x": dropped}); !errors.Is(err, heax.ErrLevelMismatch) {
		t.Fatalf("low-level input: got %v, want ErrLevelMismatch", err)
	}
	pt, err := k.enc.EncodeReal([]float64{1}, k.params.MaxLevel(), 2*k.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	odd, err := k.encryptor.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Run(map[string]*heax.Ciphertext{"x": odd}); !errors.Is(err, heax.ErrScaleMismatch) {
		t.Fatalf("off-scale input: got %v, want ErrScaleMismatch", err)
	}
}

// TestPlanRunBatch streams several input sets and pins every batch to
// its single-run result.
func TestPlanRunBatch(t *testing.T) {
	k := newAPIKit(t)
	c := heax.NewCircuit()
	x := c.Input("x")
	y := c.Input("y")
	c.Output("z", c.AddConst(c.MulRelin(x, y), -0.5))
	plan, err := c.Compile(k.params, k.evk)
	if err != nil {
		t.Fatal(err)
	}

	const batches = 6
	ins := make([]map[string]*heax.Ciphertext, batches)
	for i := range ins {
		ins[i] = map[string]*heax.Ciphertext{
			"x": encryptVals(t, k, []float64{float64(i), 1}),
			"y": encryptVals(t, k, []float64{2, float64(-i)}),
		}
	}
	outs, err := plan.RunBatch(ins)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		single, err := plan.Run(ins[i])
		if err != nil {
			t.Fatal(err)
		}
		if !ctEqual(single["z"], out["z"]) {
			t.Fatalf("batch %d diverged from its single run", i)
		}
		got := k.decodeReal(t, out["z"], 2)
		want := []float64{float64(i)*2 - 0.5, float64(-i) - 0.5}
		for s := range want {
			if math.Abs(got[s]-want[s]) > 1e-3 {
				t.Fatalf("batch %d slot %d: got %g, want %g", i, s, got[s], want[s])
			}
		}
	}
}

// TestPlanOutputAliases: outputs naming an input or the same node twice
// still come back as distinct, caller-owned ciphertexts.
func TestPlanOutputAliases(t *testing.T) {
	k := newAPIKit(t)
	c := heax.NewCircuit()
	x := c.Input("x")
	d := c.MulConst(x, 3)
	c.Output("thrice", d)
	c.Output("same", d)
	c.Output("echo", x)
	plan, err := c.Compile(k.params, k.evk)
	if err != nil {
		t.Fatal(err)
	}
	ct := encryptVals(t, k, []float64{1.5})
	out, err := plan.Run(map[string]*heax.Ciphertext{"x": ct})
	if err != nil {
		t.Fatal(err)
	}
	if out["thrice"] == out["same"] || out["echo"] == ct {
		t.Fatal("outputs must be distinct, caller-owned ciphertexts")
	}
	if !ctEqual(out["thrice"], out["same"]) {
		t.Fatal("aliased outputs must hold equal values")
	}
	if got := k.decodeReal(t, out["echo"], 1); math.Abs(got[0]-1.5) > 1e-4 {
		t.Fatalf("echo output: got %g, want 1.5", got[0])
	}
}

// TestPlanRunAllocations: what the executor allocates for a run does not
// depend on how many steps the plan has — no goroutine, one ready list
// and a handful of per-run slices, nothing per step — and the dyadic
// kernels the steps call allocate nothing at all. Each plan is judged by
// its fewest allocations over several windows: a run's pool workers put
// buffers back on their own processors, so sync.Pool now and then grows
// a per-processor list from the heap, in any window; a cost per step
// shows in every one.
func TestPlanRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; alloc counts are not meaningful")
	}
	k := newAPIKit(t)
	in := map[string]*heax.Ciphertext{"x": encryptVals(t, k, []float64{0.5, -0.75})}
	measure := func(terms int) float64 {
		plan, err := heax.WideCircuit(terms).Compile(k.params, k.evk)
		if err != nil {
			t.Fatal(err)
		}
		fewest := math.Inf(1)
		for window := 0; window < 5; window++ {
			fewest = min(fewest, testing.AllocsPerRun(10, func() {
				if _, err := plan.Run(in); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return fewest
	}
	narrow, wide := measure(128), measure(256)
	if wide-narrow > 8 {
		t.Fatalf("a 511-step run allocates %.0f times, a 255-step run %.0f: the executor pays per step", wide, narrow)
	}
	t.Logf("allocations per run: %.0f at 255 steps, %.0f at 511", narrow, wide)
}

// TestPlanFootprintCoversMatVec: on the 256×256 BSGS matvec that
// heax/circuits builds (the benchmark's matvec-serve-A plan) no run, at
// crew 1, 2 or 4, holds more pooled buffers than FootprintBytes admits
// it for. With its giant step fused the plan is 2 steps — one RotateHoisted
// batch of baby steps and one RotateSum — and 17 slots, shorter than the
// window of a crew of 1, so the bound is absolute: no more than the 35, 51
// and 83 slots the plan was admitted for when every product and partial
// sum had a slot of its own (542), which a fusion that dropped the steps
// but kept their slots would overshoot.
func TestPlanFootprintCoversMatVec(t *testing.T) {
	plan, in := denseMatVec(t)
	desc := plan.Describe()
	if plan.NumSteps() != 2 || !strings.Contains(desc, "\n  0  RotateHoisted ") || !strings.Contains(desc, "\n  1  RotateSum ") {
		t.Fatalf("matvec plan has %d steps, want RotateHoisted then RotateSum:\n%s", plan.NumSteps(), desc)
	}
	heax.PeakFootprint(t, plan, in, [2]int{1, 35}, [2]int{2, 51}, [2]int{4, 83})
}

// TestPlanCompactRowsMatVec: every diagonal of the 256×256 BSGS matvec has
// period 256 in the slots, so Compile stores all 256 of the plan's
// plaintexts compact, and the plan gives bit for bit what it gives with
// those plaintexts expanded back to full rows.
func TestPlanCompactRowsMatVec(t *testing.T) {
	plan, in := denseMatVec(t)
	if compact, total := heax.PlainRowShapes(plan); compact != 256 || total != 256 {
		t.Fatalf("%d of the matvec plan's %d plaintexts are compact, want 256 of 256:\n%s", compact, total, plan.Describe())
	}
	want, err := plan.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	heax.ExpandPlainRows(plan)
	if compact, total := heax.PlainRowShapes(plan); compact != 0 || total != 256 {
		t.Fatalf("%d of %d plaintexts still compact after expanding", compact, total)
	}
	got, err := plan.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if !ctEqual(got["y"], want["y"]) || got["y"].Scale != want["y"].Scale {
		t.Fatal("the matvec plan with its plaintexts expanded differs from the compact one")
	}
}

// denseMatVec compiles the 256×256 BSGS matvec heax/circuits builds (the
// benchmark's matvec-serve-A plan) on Set-A and encrypts an input for it.
func denseMatVec(t *testing.T) (*heax.Plan, map[string]*heax.Ciphertext) {
	t.Helper()
	params, err := heax.NewParams(heax.SetA)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
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
		t.Fatal(err)
	}
	c := heax.NewCircuit()
	y, err := lt.Apply(c, c.Input("x"))
	if err != nil {
		t.Fatal(err)
	}
	c.Output("y", y)
	steps, err := c.RequiredRotations(params)
	if err != nil {
		t.Fatal(err)
	}
	kg := heax.NewKeyGenerator(params, 3)
	sk := kg.GenSecretKey()
	plan, err := c.Compile(params, heax.GenEvaluationKeys(kg, sk, steps, false))
	if err != nil {
		t.Fatal(err)
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*2 - 1
	}
	x, err := circuits.ReplicateReal(v, n, params.Slots())
	if err != nil {
		t.Fatal(err)
	}
	pt, err := heax.NewEncoder(params).Encode(x, params.MaxLevel(), params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := heax.NewEncryptor(params, kg.GenPublicKey(sk), 4).Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	return plan, map[string]*heax.Ciphertext{"x": ct}
}
