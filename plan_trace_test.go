package heax_test

// The Plan Tracer seam: step-kind coverage, thread safety of the
// concurrent reporting path, and — the acceptance bar — zero added
// allocations on a Run when no tracer is installed.

import (
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"heax"
)

// countingTracer tallies observed step kinds and total duration.
type countingTracer struct {
	mu    sync.Mutex
	kinds map[string]int
	total time.Duration
}

func (c *countingTracer) ObserveStep(kind string, d time.Duration) {
	c.mu.Lock()
	c.kinds[kind]++
	c.total += d
	c.mu.Unlock()
}

// traceCircuit exercises several step kinds: an addition of two inputs
// (nothing to fuse), a relinearized product, a rotation (a RotateSum of
// one term), rescales, a sum of two plaintext products — the rotated
// value lifted to the other's scale, and a plain multiply — which
// compiles to one RotateSum more, and a plaintext product named an output
// of its own, a MulPlain step. The lift and the rescale between the
// product and the plain multiply fuse into one chain, which reports as a
// Rescale.
func traceCircuit() *heax.Circuit {
	c := heax.NewCircuit()
	x := c.Input("x")
	sq := c.MulRelin(c.Add(x, x), x)
	c.Output("y", c.Add(c.Rotate(sq, 1), c.MulPlain(sq, []float64{0.5, 0.25})))
	c.Output("z", c.MulPlain(x, []float64{2, -1}))
	return c
}

func TestPlanTracerObservesEverySteps(t *testing.T) {
	k := newAPIKit(t)
	plan, err := traceCircuit().Compile(k.params, k.evk)
	if err != nil {
		t.Fatal(err)
	}
	tr := &countingTracer{kinds: make(map[string]int)}
	plan.SetTracer(tr)
	in := map[string]*heax.Ciphertext{"x": encryptVals(t, k, []float64{0.5, -0.75})}
	if _, err := plan.Run(in); err != nil {
		t.Fatal(err)
	}
	observed := 0
	for _, n := range tr.kinds {
		observed += n
	}
	if observed != plan.NumSteps() {
		t.Fatalf("tracer observed %d steps of %d", observed, plan.NumSteps())
	}
	for _, kind := range []string{"MulRelin", "MulPlain", "Add", "RotateSum", "Rescale"} {
		if tr.kinds[kind] == 0 {
			t.Errorf("no %s step observed; got %v", kind, tr.kinds)
		}
	}
	if tr.total <= 0 {
		t.Fatal("observed durations sum to zero")
	}
	// Every observed kind must come from the canonical name list.
	valid := make(map[string]bool)
	for _, kind := range heax.StepKinds() {
		valid[kind] = true
	}
	for kind := range tr.kinds {
		if !valid[kind] {
			t.Errorf("tracer observed unknown step kind %q", kind)
		}
	}

	// Removing the tracer really stops the reporting.
	plan.SetTracer(nil)
	before := len(tr.kinds)
	tr.mu.Lock()
	totalBefore := tr.total
	tr.mu.Unlock()
	if _, err := plan.Run(in); err != nil {
		t.Fatal(err)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.kinds) != before || tr.total != totalBefore {
		t.Fatal("steps were reported after SetTracer(nil)")
	}
}

// TestPlanTracerDisabledZeroAlloc pins the acceptance criterion: the
// untraced path costs the same allocations as a plan that never had a
// tracer — installing and removing one leaves no residue, and the nil
// check itself allocates nothing.
func TestPlanTracerDisabledZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; alloc counts are not meaningful")
	}
	k := newAPIKit(t)
	pristine, err := traceCircuit().Compile(k.params, k.evk)
	if err != nil {
		t.Fatal(err)
	}
	toggled, err := traceCircuit().Compile(k.params, k.evk)
	if err != nil {
		t.Fatal(err)
	}
	tr := &countingTracer{kinds: make(map[string]int)}
	toggled.SetTracer(tr)
	toggled.SetTracer(nil)

	in := map[string]*heax.Ciphertext{"x": encryptVals(t, k, []float64{0.5, -0.75})}
	// A collection between the two figures empties the sync.Pools behind
	// Run, and the refills would be counted against whichever plan ran
	// next; hold the collector off while measuring.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	measure := func(p *heax.Plan) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := p.Run(in); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := measure(pristine)
	after := measure(toggled)
	if after > base {
		t.Fatalf("disabled-tracer Run allocates %v, pristine plan %v — the seam leaks allocations", after, base)
	}
}

// TestPlanTracerConcurrentRuns: many goroutines run one traced plan;
// under -race this audits the atomic tracer load against SetTracer,
// and the counts must still be exact.
func TestPlanTracerConcurrentRuns(t *testing.T) {
	k := newAPIKit(t)
	plan, err := traceCircuit().Compile(k.params, k.evk)
	if err != nil {
		t.Fatal(err)
	}
	tr := &countingTracer{kinds: make(map[string]int)}
	plan.SetTracer(tr)
	const runs = 8
	// Encrypt serially before the fan-out: the kit's encryptor (its
	// sampler's rand.Rand) is not safe for concurrent use, and the
	// subject under test is the concurrent Run, not Encrypt.
	ins := make([]map[string]*heax.Ciphertext, runs)
	for i := range ins {
		ins[i] = map[string]*heax.Ciphertext{"x": encryptVals(t, k, []float64{0.5, -0.75})}
	}
	var wg sync.WaitGroup
	wg.Add(runs)
	for i := 0; i < runs; i++ {
		in := ins[i]
		go func() {
			defer wg.Done()
			if _, err := plan.Run(in); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	observed := 0
	tr.mu.Lock()
	for _, n := range tr.kinds {
		observed += n
	}
	tr.mu.Unlock()
	if want := runs * plan.NumSteps(); observed != want {
		t.Fatalf("tracer observed %d steps, want %d", observed, want)
	}
}
