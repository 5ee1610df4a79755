package heax

// Placement: a circuit whose outputs all carry a Bound starts as low in
// the modulus chain as still compiles and holds each output; every other
// circuit compiles exactly as it did before bounds existed.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The sweep of TestPlanRandomDAGs's circuits, drawn with no bound and no
// chains, is pinned by two SHA-256 digests in sweep order.
//
// unboundedPlanDigest covers each plan's Describe() ("refused" when it
// does not compile), as computed once Compile lowered a rescaled value a
// level by a row view rather than a lift by q_ℓ and a Rescale (Describe
// lists the chains, and no longer the hops). It was taken apart from the
// JSON before circuit encoding version 2, and holds across it: the
// encoding moved, the plans did not.
const unboundedPlanDigest = "3324b9e07442d57ee69a0f99008ec7b88881f1e1ce5f18173d449468c30b2ac4"

// unboundedJSONDigest covers each circuit's JSON, which carries no bound
// for these circuits. It was re-taken for circuit encoding version 2,
// whose payloads are base64 float64 words rather than decimal text.
const unboundedJSONDigest = "1b3aa353144e3a6ba3b805b4864699c624c221df1796a882da1f000b74b3715d"

// TestUnboundedPlansUnchanged: a circuit with no Bound encodes to the same
// JSON (so heax-serve gives it the same PlanID) and compiles to the same
// steps, levels and scales as before placement existed.
func TestUnboundedPlansUnchanged(t *testing.T) {
	jh, ph := sha256.New(), sha256.New()
	for _, pass := range []struct {
		spec  ParamSpec
		count int
		seed  int64
	}{{SetA, 200, 18}, {SetB, 50, 19}} {
		k := newOracleKit(t, pass.spec, []int{1, 2, 3, -1}, true)
		rng := rand.New(rand.NewSource(pass.seed))
		for n := 0; n < pass.count; n++ {
			c := randomCircuit(rng, nil, nil, nil, k.params.Slots())
			js, err := c.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			jh.Write(js)
			plan, err := c.Compile(k.params, k.evk)
			if err != nil {
				ph.Write([]byte("refused\n"))
				continue
			}
			if plan.InputLevel() != k.params.MaxLevel() {
				t.Fatalf("%s circuit %d: unbounded plan starts at level %d, below the top %d", pass.spec.Name, n, plan.InputLevel(), k.params.MaxLevel())
			}
			ph.Write([]byte(plan.Describe()))
		}
	}
	if got := hex.EncodeToString(ph.Sum(nil)); got != unboundedPlanDigest {
		t.Errorf("unbounded plan digest %s, want %s: an unbounded circuit's plan changed", got, unboundedPlanDigest)
	}
	if got := hex.EncodeToString(jh.Sum(nil)); got != unboundedJSONDigest {
		t.Errorf("unbounded JSON digest %s, want %s: an unbounded circuit's JSON changed", got, unboundedJSONDigest)
	}
}

// squareCircuit is y = x·x + 1/2 with y bounded by bound.
func squareCircuit(bound float64) *Circuit {
	c := NewCircuit()
	x := c.Input("x")
	c.Output("y", c.Bound(c.AddConst(c.MulRelin(x, x), 0.5), bound))
	return c
}

// outputRoom is how many bits of modulus an output bounded by bound
// leaves above log2(scale · bound) at its level.
func outputRoom(t *testing.T, p *Plan, name string, bound float64) float64 {
	t.Helper()
	level, err := p.OutputLevel(name)
	if err != nil {
		t.Fatal(err)
	}
	scale, _ := p.OutputScale(name)
	bits := 0.0
	for _, q := range p.params.Q[:level+1] {
		bits += math.Log2(float64(q))
	}
	return bits - math.Log2(scale*bound)
}

// TestBoundPlacesByMagnitude: the same circuit bounded by 1 and by 2^10
// lands at the lowest levels where each bound still fits, and values near
// the larger bound decrypt within tolerance there.
func TestBoundPlacesByMagnitude(t *testing.T) {
	k := newOracleKit(t, SetB, nil, false)
	small, err := squareCircuit(1).Compile(k.params, k.evk)
	if err != nil {
		t.Fatal(err)
	}
	large, err := squareCircuit(1024).Compile(k.params, k.evk)
	if err != nil {
		t.Fatal(err)
	}
	// The product keeps scale 2^80: L1 (86 bits) holds it with bound 1, and
	// L0 cannot multiply at all; with bound 2^10 only L2 (129 bits) has room.
	if small.InputLevel() != 1 || large.InputLevel() != 2 {
		t.Fatalf("input levels %d (bound 1) and %d (bound 2^10), want 1 and 2\n%s\n%s",
			small.InputLevel(), large.InputLevel(), small.Describe(), large.Describe())
	}
	for _, c := range []struct {
		plan  *Plan
		bound float64
	}{{small, 1}, {large, 1024}} {
		if room := outputRoom(t, c.plan, "y", c.bound); room < 2 {
			t.Fatalf("bound %g: output leaves %.1f bits above scale · bound, want ≥ 2\n%s", c.bound, room, c.plan.Describe())
		}
	}

	for _, c := range []struct {
		plan *Plan
		amp  float64 // |x| up to amp, so |y| up to amp² + 1/2
	}{{small, 0.7}, {large, 31.9}} {
		xs := make([]float64, 64)
		rng := rand.New(rand.NewSource(5))
		for i := range xs {
			xs[i] = c.amp * (2*rng.Float64() - 1)
		}
		xs[0] = c.amp
		out, err := c.plan.Run(map[string]*Ciphertext{"x": k.encrypt(t, xs)})
		if err != nil {
			t.Fatal(err)
		}
		pt, err := k.decryptor.Decrypt(out["y"])
		if err != nil {
			t.Fatal(err)
		}
		got := k.enc.Decode(pt)
		for i, x := range xs {
			want := x*x + 0.5
			if d := math.Abs(real(got[i]) - want); d > 1e-6*math.Max(1, want) {
				t.Fatalf("input level %d: slot %d = %g, want %g (|err| %g)", c.plan.InputLevel(), i, real(got[i]), want, d)
			}
		}
	}
}

// TestPlacedPlanInputs: a placed plan gives the same bits for inputs at
// the top, at a level in between and already at InputLevel(); it leaves
// them unmodified (an output that is an input too is a copy of the view);
// and it rejects an input below InputLevel() with ErrLevelMismatch.
func TestPlacedPlanInputs(t *testing.T) {
	k := newOracleKit(t, SetB, []int{1}, false)
	c := NewCircuit()
	x := c.Input("x")
	c.Output("y", c.Bound(c.Add(c.MulRelin(x, x), c.Rotate(x, 1)), 2))
	c.Output("x", c.Bound(x, 1))
	plan, err := c.Compile(k.params, k.evk)
	if err != nil {
		t.Fatal(err)
	}
	if plan.InputLevel() != 1 {
		t.Fatalf("input level %d, want 1\n%s", plan.InputLevel(), plan.Describe())
	}
	top := k.encrypt(t, []float64{0.5, -0.25, 0.75, 1})
	orig := CopyOf(top)
	want, err := plan.Run(map[string]*Ciphertext{"x": top})
	if err != nil {
		t.Fatal(err)
	}
	if !ctBitEqual(top, orig) {
		t.Fatal("Run modified its top-level input")
	}
	if lv, _ := plan.OutputLevel("x"); lv != 1 || want["x"].Level != 1 {
		t.Fatalf("output x at level %d (plan says %d), want 1", want["x"].Level, lv)
	}
	for level := plan.InputLevel(); level < k.params.MaxLevel(); level++ {
		low, err := plan.eval.DropLevel(top, level)
		if err != nil {
			t.Fatal(err)
		}
		got, err := plan.Run(map[string]*Ciphertext{"x": low})
		if err != nil {
			t.Fatal(err)
		}
		for name, ct := range want {
			if !ctBitEqual(ct, got[name]) {
				t.Fatalf("input at level %d: output %q differs from the top-level input's", level, name)
			}
		}
	}
	below, err := plan.eval.DropLevel(top, plan.InputLevel()-1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = plan.Run(map[string]*Ciphertext{"x": below})
	if !errors.Is(err, ErrLevelMismatch) || !strings.Contains(err.Error(), "input level 1") {
		t.Fatalf("input below the input level: %v, want ErrLevelMismatch naming input level 1", err)
	}
	// A top-level ciphertext short of the rows the view takes is refused,
	// not viewed.
	short := &Ciphertext{Level: top.Level, Scale: top.Scale}
	for _, poly := range top.Polys {
		short.Polys = append(short.Polys, poly.Resize(plan.InputLevel()))
	}
	if _, err := plan.Run(map[string]*Ciphertext{"x": short}); !errors.Is(err, ErrLevelMismatch) {
		t.Fatalf("input with %d rows: %v, want ErrLevelMismatch", plan.InputLevel(), err)
	}
}

// TestBoundMisuse: a bound that is not a positive finite magnitude, or
// on a node of another circuit, is a builder error.
func TestBoundMisuse(t *testing.T) {
	for _, b := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		c := NewCircuit()
		c.Output("y", c.Bound(c.Input("x"), b))
		if _, err := c.Compile(MustParams(SetA), nil); !errors.Is(err, ErrInvalidCircuit) {
			t.Errorf("Bound(%g): %v, want ErrInvalidCircuit", b, err)
		}
	}
	c := NewCircuit()
	c.Output("y", c.Bound(NewCircuit().Input("x"), 1))
	if _, err := c.MarshalJSON(); !errors.Is(err, ErrInvalidCircuit) {
		t.Errorf("Bound on another circuit's node: %v, want ErrInvalidCircuit", err)
	}
}
