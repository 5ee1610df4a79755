package hwsim

import (
	"math/rand"
	"testing"

	"heax/internal/core"
	"heax/internal/ntt"
	"heax/internal/primes"
	"heax/internal/uintmod"
)

func tables(t testing.TB, bitsize, n int) *ntt.Tables {
	t.Helper()
	ps, err := primes.NTTPrimes(bitsize, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := ntt.NewTables(ps[0], n)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func randPoly(rng *rand.Rand, n int, p uint64) []uint64 {
	a := make([]uint64, n)
	for i := range a {
		a[i] = rng.Uint64() % p
	}
	return a
}

func TestNewNTTModuleSimErrors(t *testing.T) {
	tb := tables(t, 40, 64)
	if _, err := NewNTTModuleSim(tb, 3, false); err == nil {
		t.Error("non-power-of-two cores should fail")
	}
	if _, err := NewNTTModuleSim(tb, 32, false); err == nil {
		t.Error("too many cores should fail")
	}
	big := tables(t, 60, 64)
	if _, err := NewNTTModuleSim(big, 4, false); err == nil {
		t.Error("60-bit modulus should exceed the 54-bit datapath")
	}
}

// The hardware dataflow must produce exactly the reference forward NTT,
// across sizes and core counts.
func TestNTTModuleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{64, 256, 4096} {
		tb := tables(t, 44, n)
		for nc := 1; 4*nc <= n && nc <= 32; nc <<= 1 {
			sim, err := NewNTTModuleSim(tb, nc, false)
			if err != nil {
				t.Fatal(err)
			}
			a := randPoly(rng, n, tb.Mod.P)
			want := append([]uint64(nil), a...)
			tb.Forward(want)
			sim.Transform(a)
			for i := range a {
				if a[i] != want[i] {
					t.Fatalf("n=%d nc=%d: mismatch at %d", n, nc, i)
				}
			}
		}
	}
}

func TestINTTModuleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{64, 256, 4096} {
		tb := tables(t, 44, n)
		for nc := 1; 4*nc <= n && nc <= 32; nc <<= 1 {
			sim, err := NewNTTModuleSim(tb, nc, true)
			if err != nil {
				t.Fatal(err)
			}
			a := randPoly(rng, n, tb.Mod.P)
			want := append([]uint64(nil), a...)
			tb.Inverse(want)
			sim.Transform(a)
			for i := range a {
				if a[i] != want[i] {
					t.Fatalf("n=%d nc=%d: mismatch at %d", n, nc, i)
				}
			}
		}
	}
}

// Measured cycles must equal the closed form n·log n/(2·nc) that the
// performance model (and Table 4) relies on.
func TestNTTModuleCyclesMatchFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{256, 4096, 8192} {
		tb := tables(t, 44, n)
		for _, nc := range []int{4, 8, 16} {
			if 4*nc > n {
				continue
			}
			for _, inverse := range []bool{false, true} {
				sim, err := NewNTTModuleSim(tb, nc, inverse)
				if err != nil {
					t.Fatal(err)
				}
				a := randPoly(rng, n, tb.Mod.P)
				sim.Transform(a)
				want := int64(core.ModuleCycles(core.NTTModule, nc, n))
				if sim.Cycles != want {
					t.Errorf("n=%d nc=%d inv=%v: cycles %d, want %d", n, nc, inverse, sim.Cycles, want)
				}
			}
		}
	}
}

// Figure 4 ablation: the basic pipeline wastes 50% of the cycles in
// Type-1 stages; the paper quantifies the loss as a throughput factor of
// (log n - log nc - 1)/log n when unfixed.
func TestPipelineModeAblation(t *testing.T) {
	n := 4096
	tb := tables(t, 44, n)
	rng := rand.New(rand.NewSource(4))
	for _, nc := range []int{4, 8, 16} {
		opt, err := NewNTTModuleSim(tb, nc, false)
		if err != nil {
			t.Fatal(err)
		}
		basic, err := NewNTTModuleSim(tb, nc, false)
		if err != nil {
			t.Fatal(err)
		}
		basic.Mode = BasicPipeline

		a := randPoly(rng, n, tb.Mod.P)
		b := append([]uint64(nil), a...)
		opt.Transform(a)
		basic.Transform(b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("pipeline mode changed the result")
			}
		}
		if basic.Cycles <= opt.Cycles {
			t.Fatalf("nc=%d: basic pipeline should cost more (%d vs %d)", nc, basic.Cycles, opt.Cycles)
		}
		// Type-1 stages double: expected ratio (2·t1 + t2)/(t1 + t2).
		logn, logw := 12, log2(2*nc)
		t1 := logn - logw
		wantRatio := float64(2*t1+(logn-t1)) / float64(logn)
		gotRatio := float64(basic.Cycles) / float64(opt.Cycles)
		if !close(gotRatio, wantRatio, 1e-9) {
			t.Fatalf("nc=%d: slowdown %f, want %f", nc, gotRatio, wantRatio)
		}
	}
}

func log2(x int) int {
	l := 0
	for 1<<l < x {
		l++
	}
	return l
}

func close(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

// Figure 2 golden trace: n=16, nc=2 (ME width 4, depth 4). The first
// stage (t=8) pairs MEs two rows apart, the second (t=4) adjacent rows,
// and the last two stages are Type 2 (within-ME).
func TestAccessPatternGolden(t *testing.T) {
	tb := tables(t, 30, 16)
	sim, err := NewNTTModuleSim(tb, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	sim.Record = true
	a := make([]uint64, 16)
	for i := range a {
		a[i] = uint64(i)
	}
	sim.Transform(a)

	want := []AccessRecord{
		{Stage: 0, Step: 0, Type1: true, MEAddrs: []int{0, 2}},
		{Stage: 0, Step: 1, Type1: true, MEAddrs: []int{1, 3}},
		{Stage: 1, Step: 0, Type1: true, MEAddrs: []int{0, 1}},
		{Stage: 1, Step: 1, Type1: true, MEAddrs: []int{2, 3}},
		{Stage: 2, Step: 0, Type1: false, MEAddrs: []int{0}},
		{Stage: 2, Step: 1, Type1: false, MEAddrs: []int{1}},
		{Stage: 2, Step: 2, Type1: false, MEAddrs: []int{2}},
		{Stage: 2, Step: 3, Type1: false, MEAddrs: []int{3}},
		{Stage: 3, Step: 0, Type1: false, MEAddrs: []int{0}},
		{Stage: 3, Step: 1, Type1: false, MEAddrs: []int{1}},
		{Stage: 3, Step: 2, Type1: false, MEAddrs: []int{2}},
		{Stage: 3, Step: 3, Type1: false, MEAddrs: []int{3}},
	}
	if len(sim.Trace) != len(want) {
		t.Fatalf("trace length %d, want %d", len(sim.Trace), len(want))
	}
	for i, w := range want {
		g := sim.Trace[i]
		if g.Stage != w.Stage || g.Step != w.Step || g.Type1 != w.Type1 {
			t.Fatalf("record %d: %+v want %+v", i, g, w)
		}
		for j := range w.MEAddrs {
			if g.MEAddrs[j] != w.MEAddrs[j] {
				t.Fatalf("record %d: addrs %v want %v", i, g.MEAddrs, w.MEAddrs)
			}
		}
	}
	sim.ResetCounters()
	if sim.Cycles != 0 || sim.Trace != nil {
		t.Fatal("ResetCounters did not reset")
	}
}

// INTT reverses the stage order: within-ME (Type 2) stages come first,
// cross-ME (Type 1) stages last — the control unit "operates in the
// reverse order of stage numbers" (Section 4.2).
func TestINTTAccessPatternReversed(t *testing.T) {
	tb := tables(t, 30, 16)
	sim, err := NewNTTModuleSim(tb, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	sim.Record = true
	a := make([]uint64, 16)
	sim.Transform(a)
	if len(sim.Trace) != 12 {
		t.Fatalf("trace length %d", len(sim.Trace))
	}
	for _, rec := range sim.Trace {
		wantType1 := rec.Stage >= 2 // t = 1,2 within ME; t = 4,8 across
		if rec.Type1 != wantType1 {
			t.Fatalf("stage %d: Type1=%v, want %v", rec.Stage, rec.Type1, wantType1)
		}
	}
}

func TestMULTModuleSim(t *testing.T) {
	ps, err := primes.NTTPrimes(44, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := ps[0]
	sim, err := NewMULTModuleSim(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	n := 256
	a, b := randPoly(rng, n, p), randPoly(rng, n, p)
	out := make([]uint64, n)
	sim.Dyadic(a, b, out)
	m := uintmod.NewModulus(p)
	for i := range out {
		if out[i] != m.MulMod(a[i], b[i]) {
			t.Fatalf("dyadic mismatch at %d", i)
		}
	}
	if want := int64(n / 8); sim.Cycles != want {
		t.Fatalf("cycles %d, want %d", sim.Cycles, want)
	}

	// Accumulating twice equals 2ab.
	acc := make([]uint64, n)
	sim.DyadicAcc(a, b, acc)
	sim.DyadicAcc(a, b, acc)
	for i := range acc {
		want := uintmod.AddMod(out[i], out[i], p)
		if acc[i] != want {
			t.Fatalf("accumulate mismatch at %d", i)
		}
	}

	// MulSub: (a-b)*c.
	c := uint64(12345)
	cs := uintmod.ShoupPrecomp54(c, p)
	ms := make([]uint64, n)
	sim.MulSub(a, b, c, cs, ms)
	for i := range ms {
		want := m.MulMod(uintmod.SubMod(a[i], b[i], p), c)
		if ms[i] != want {
			t.Fatalf("mulsub mismatch at %d", i)
		}
	}
	sim.ResetCounters()
	if sim.Cycles != 0 {
		t.Fatal("reset failed")
	}
}

func TestMULTModuleErrors(t *testing.T) {
	if _, err := NewMULTModuleSim(97, 3); err == nil {
		t.Error("non-power-of-two cores should fail")
	}
	if _, err := NewMULTModuleSim(1<<61, 4); err == nil {
		t.Error("oversized modulus should fail")
	}
}

// The pipeline model must reach the INTT0-bound interval for all four
// paper configurations (this is what makes Table 8's HEAX column an
// achieved rate rather than an assumption).
func TestPipelineIntervalMatchesClosedForm(t *testing.T) {
	for _, cfg := range core.PaperArchitectures {
		var set core.ParamSet
		for _, s := range core.ParamSets {
			if s.Name == cfg.Set {
				set = s
			}
		}
		rep := SimulateKeySwitchPipeline(PipelineConfig{Arch: cfg.Arch, Set: set}, 64, false)
		want := float64(cfg.Arch.KeySwitchCycles(set))
		if !close(rep.Interval, want, 0.01*want) {
			t.Errorf("%s/%s: interval %.0f, want %.0f", cfg.Board, cfg.Set, rep.Interval, want)
		}
		if u := rep.Utilization["INTT0"]; u < 0.9 {
			t.Errorf("%s/%s: INTT0 utilization %.2f, want ≥0.9 (it is the pipeline driver)", cfg.Board, cfg.Set, u)
		}
	}
}

// Shrinking the buffers must reintroduce the data-dependency stalls
// (Section 4.3): with f1 = 1 the input buffer serializes operations.
func TestPipelineBufferAblation(t *testing.T) {
	set := core.ParamSetB
	arch := core.DeriveArch(core.BoardStratix10, set, 16)
	full := SimulateKeySwitchPipeline(PipelineConfig{Arch: arch, Set: set}, 24, false)
	starved := SimulateKeySwitchPipeline(PipelineConfig{Arch: arch, Set: set, F1: 1, F2: 1}, 24, false)
	if starved.Interval <= full.Interval*1.05 {
		t.Fatalf("buffer starvation should slow the pipeline: %.0f vs %.0f", starved.Interval, full.Interval)
	}
}

func TestGanttRendering(t *testing.T) {
	set := core.ParamSetA
	arch := core.DeriveArch(core.BoardStratix10, set, 16)
	rep := SimulateKeySwitchPipeline(PipelineConfig{Arch: arch, Set: set}, 4, true)
	if len(rep.Segments) == 0 {
		t.Fatal("trace requested but empty")
	}
	g := RenderGantt(rep, int64(rep.Interval/8)+1, 80)
	if g == "" || g == "(no trace recorded)" {
		t.Fatal("gantt rendering empty")
	}
	empty := RenderGantt(PipelineReport{}, 100, 10)
	if empty != "(no trace recorded)" {
		t.Fatal("empty trace should render placeholder")
	}
}
