package heax

// White-box executor failure tests: inject kernel faults through the
// Plan.failStep seam and audit the buffer pool's ownership protocol
// with an instrumented pool — every drawn buffer must come back exactly
// once (no leak), and never twice (no double put), on every error path:
// kernel failure, ErrDependency poisoning, and cancellation. The plan
// must then serve a clean second run. Runs under -race in CI.

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
)

var errInjected = errors.New("injected kernel fault")

// auditPool is a ctBufPool that detects double puts and counts
// outstanding buffers.
type auditPool struct {
	t      *testing.T
	params *Params

	mu     sync.Mutex
	free   []*Ciphertext
	inPool map[*Ciphertext]bool
	gets   int
	puts   int
	peak   int // most buffers ever outstanding at once
}

// setCrew sets a compiled plan's member cap — the caller plus the pool
// workers one run may borrow — and with it the reorder window and the
// footprint bound: 16 steps per member, half of what Compile gives a
// worker, so that the 191- to 255-step test plans are several windows
// long. The members beyond the caller are whatever pool workers the
// evaluator's own cap (GOMAXPROCS, so -cpu sizes it) provides.
func setCrew(p *Plan, crew int) {
	p.crew = crew
	p.lookahead = windowPerWorker / 2 * crew
	p.footprint = p.windowSlots()
}

// execShapes are the executor shapes the failure, cancel and window
// tests all run under: as built, a member cap of one (the caller alone:
// nothing is offered and nobody can wake it), and a window of one
// (strict plan order however many members come) — the corners in which a
// lost wake-up or a step stuck outside the window would hang the run
// instead of failing it.
var execShapes = []struct {
	name  string
	apply func(*Plan)
}{
	{"as-built", func(*Plan) {}},
	{"crew=1", func(p *Plan) { p.crew = 1 }},
	{"lookahead=1", func(p *Plan) { p.lookahead = 1 }},
	{"crew=1,lookahead=1", func(p *Plan) { p.crew, p.lookahead = 1, 1 }},
}

// forEachShape runs f once per executor shape on a plan from build.
func forEachShape(t *testing.T, build func(*testing.T) (*oracleKit, *Plan, *auditPool), f func(*testing.T, *oracleKit, *Plan, *auditPool)) {
	for _, shape := range execShapes {
		t.Run(shape.name, func(t *testing.T) {
			k, plan, pool := build(t)
			shape.apply(plan)
			f(t, k, plan, pool)
		})
	}
}

func newAuditPool(t *testing.T, params *Params) *auditPool {
	return &auditPool{t: t, params: params, inPool: make(map[*Ciphertext]bool)}
}

func (a *auditPool) get() *Ciphertext {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.gets++
	a.peak = max(a.peak, a.gets-a.puts)
	if n := len(a.free); n > 0 {
		ct := a.free[n-1]
		a.free = a.free[:n-1]
		delete(a.inPool, ct)
		return ct
	}
	ct, err := NewCiphertext(a.params, 1, a.params.MaxLevel(), 0)
	if err != nil {
		panic(err)
	}
	return ct
}

func (a *auditPool) put(ct *Ciphertext) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.puts++
	if ct == nil {
		a.t.Error("pool: put of a nil ciphertext")
		return
	}
	if a.inPool[ct] {
		a.t.Error("pool: buffer returned twice")
		return
	}
	a.inPool[ct] = true
	a.free = append(a.free, ct)
}

func (a *auditPool) outstanding() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.gets - a.puts
}

// failurePlan compiles a circuit with parallel branches, a hoisted
// multi-output rotation batch and a poisoning chain — enough structure
// that an injected fault at any step exercises dependents, multi-out
// recycling and independent branches at once.
func failurePlan(t *testing.T) (*oracleKit, *Plan, *auditPool) {
	t.Helper()
	k := newOracleKit(t, SetA, []int{1, 2}, false)
	c := NewCircuit()
	x := c.Input("x")
	sq := c.MulRelin(x, x)
	sum := c.Add(c.Rotate(x, 1), c.Rotate(x, 2))
	c.Output("y", c.Add(sq, sum))
	c.Output("z", c.AddConst(sq, 1))
	plan, err := c.Compile(k.params, k.evk)
	if err != nil {
		t.Fatal(err)
	}
	pool := newAuditPool(t, k.params)
	plan.bufs = pool
	return k, plan, pool
}

func (k *oracleKit) failureInputs(t *testing.T, n int) []map[string]*Ciphertext {
	t.Helper()
	batches := make([]map[string]*Ciphertext, n)
	for i := range batches {
		batches[i] = map[string]*Ciphertext{"x": k.encrypt(t, []float64{0.5, -0.25, 1.0 + float64(i)})}
	}
	return batches
}

// TestPlanFailingStepPoolIntegrity injects a fault into every step of
// the plan in turn, streams a batch through RunBatch, and asserts that
// (1) the injected error is the reported root cause, (2) no pooled
// buffer leaked or was returned twice, and (3) the same plan then
// completes a clean, correct second run.
func TestPlanFailingStepPoolIntegrity(t *testing.T) {
	forEachShape(t, failurePlan, testFailingStepPoolIntegrity)
}

func testFailingStepPoolIntegrity(t *testing.T, k *oracleKit, plan *Plan, pool *auditPool) {
	for idx := 0; idx < plan.NumSteps(); idx++ {
		plan.failStep = func(i int) error {
			if i == idx {
				return errInjected
			}
			return nil
		}
		_, err := plan.RunBatch(k.failureInputs(t, 3))
		if !errors.Is(err, errInjected) {
			t.Fatalf("fail@%d: want the injected fault as root cause, got %v", idx, err)
		}
		if n := pool.outstanding(); n != 0 {
			t.Fatalf("fail@%d: %d pooled buffers leaked", idx, n)
		}
	}

	// The plan must be reusable after every failure mode above.
	plan.failStep = nil
	out, err := plan.RunBatch(k.failureInputs(t, 2))
	if err != nil {
		t.Fatalf("clean run after injected failures: %v", err)
	}
	if n := pool.outstanding(); n != 0 {
		t.Fatalf("clean run: %d pooled buffers leaked", n)
	}
	for i, res := range out {
		pt, err := k.decryptor.Decrypt(res["z"])
		if err != nil {
			t.Fatal(err)
		}
		got := real(k.enc.Decode(pt)[2])
		want := (1.0+float64(i))*(1.0+float64(i)) + 1
		if math.Abs(got-want) > 1e-2 {
			t.Fatalf("batch %d: z slot 2 = %g, want %g", i, got, want)
		}
	}
}

// TestPlanPanickingStepRecovers injects a panic (not an error) into
// every step in turn: the executor's recover boundary must convert it
// into a typed error wrapping ErrInternal, keep the pool balanced, and
// leave the plan fully reusable — a panicking kernel poisons one run,
// never the process. This is the seam a crash-only serving daemon
// leans on: plan steps may run on pool workers, where no caller-side
// recover could catch these.
func TestPlanPanickingStepRecovers(t *testing.T) {
	forEachShape(t, failurePlan, testPanickingStepRecovers)
}

func testPanickingStepRecovers(t *testing.T, k *oracleKit, plan *Plan, pool *auditPool) {
	for idx := 0; idx < plan.NumSteps(); idx++ {
		plan.failStep = func(i int) error {
			if i == idx {
				panic("injected kernel panic")
			}
			return nil
		}
		_, err := plan.RunBatch(k.failureInputs(t, 3))
		if !errors.Is(err, ErrInternal) {
			t.Fatalf("panic@%d: want ErrInternal, got %v", idx, err)
		}
		if n := pool.outstanding(); n != 0 {
			t.Fatalf("panic@%d: %d pooled buffers leaked", idx, n)
		}
	}

	plan.failStep = nil
	if _, err := plan.RunBatch(k.failureInputs(t, 2)); err != nil {
		t.Fatalf("clean run after recovered panics: %v", err)
	}
	if n := pool.outstanding(); n != 0 {
		t.Fatalf("clean run: %d pooled buffers leaked", n)
	}
}

// TestPlanDependencyPoisoningKeepsPoolClean pins the poisoning path
// specifically: a failure in the earliest step poisons every dependent,
// and the poisoned steps' reference releases must still retire every
// in-flight pooled buffer exactly once.
func TestPlanDependencyPoisoningKeepsPoolClean(t *testing.T) {
	forEachShape(t, failurePlan, testDependencyPoisoningKeepsPoolClean)
}

func testDependencyPoisoningKeepsPoolClean(t *testing.T, k *oracleKit, plan *Plan, pool *auditPool) {
	plan.failStep = func(i int) error {
		if i == 0 {
			return errInjected
		}
		return nil
	}
	_, err := plan.Run(map[string]*Ciphertext{"x": k.encrypt(t, []float64{1, 2, 3})})
	if !errors.Is(err, errInjected) {
		t.Fatalf("want injected root cause, got %v", err)
	}
	if n := pool.outstanding(); n != 0 {
		t.Fatalf("%d pooled buffers leaked through poisoned dependents", n)
	}
}

// TestPlanCancellationKeepsPoolClean cancels a run mid-flight (from
// inside a step, so cancellation lands while dependents are in every
// phase) and asserts the pool balances and the plan reruns cleanly.
func TestPlanCancellationKeepsPoolClean(t *testing.T) {
	forEachShape(t, failurePlan, testCancellationKeepsPoolClean)
}

func testCancellationKeepsPoolClean(t *testing.T, k *oracleKit, plan *Plan, pool *auditPool) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	plan.failStep = func(i int) error {
		if i == 1 {
			cancel()
		}
		return nil
	}
	_, err := plan.RunBatchContext(ctx, k.failureInputs(t, 3))
	if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, errInjected) {
		t.Fatalf("unexpected error kind: %v", err)
	}
	if err == nil {
		t.Fatal("cancelled batch run should report an error")
	}
	if n := pool.outstanding(); n != 0 {
		t.Fatalf("%d pooled buffers leaked under cancellation", n)
	}

	plan.failStep = nil
	if _, err := plan.RunContext(context.Background(), map[string]*Ciphertext{"x": k.encrypt(t, []float64{1})}); err != nil {
		t.Fatalf("clean run after cancellation: %v", err)
	}
	if n := pool.outstanding(); n != 0 {
		t.Fatalf("clean run: %d pooled buffers leaked", n)
	}
}

// WideCircuit is a sum of terms plaintext-shifted copies of one input:
// every AddPlain is ready the moment the run starts, while the Add chain
// that consumes them is sequential — wide and serial at once, 2·terms−1
// steps. The terms are sums, not products, because a sum of MulPlains
// compiles to a single step. Exported for the external allocation test.
func WideCircuit(terms int) *Circuit {
	c := NewCircuit()
	x := c.Input("x")
	acc := c.AddPlain(x, []float64{1})
	for i := 1; i < terms; i++ {
		acc = c.Add(acc, c.AddPlain(x, []float64{float64(i + 1)}))
	}
	c.Output("y", acc)
	return c
}

// widePlan compiles WideCircuit for two members (a reorder window of 32
// steps) on an instrumented pool.
func widePlan(t *testing.T, terms int) (*oracleKit, *Plan, *auditPool) {
	t.Helper()
	k := newOracleKit(t, SetA, nil, false)
	plan, err := WideCircuit(terms).Compile(k.params, k.evk)
	if err != nil {
		t.Fatal(err)
	}
	setCrew(plan, 2)
	if plan.NumSteps() < 4*plan.lookahead {
		t.Fatalf("plan of %d steps does not exercise a window of %d", plan.NumSteps(), plan.lookahead)
	}
	pool := newAuditPool(t, k.params)
	plan.bufs = pool
	return k, plan, pool
}

// PeakFootprint runs a plan once per {crew size, most slots} pair on an
// instrumented pool and fails the test if a run held more pooled buffers
// than FootprintBytes promised for that crew, leaked one, or if the
// promise counts more slots than the pair allows. Exported for the
// external test that builds its plan with heax/circuits.
func PeakFootprint(t *testing.T, plan *Plan, in map[string]*Ciphertext, crewMost ...[2]int) {
	t.Helper()
	bufBytes := 2 * int64(plan.params.K()) * int64(plan.params.N) * 8
	for _, cm := range crewMost {
		crew, most := cm[0], cm[1]
		setCrew(plan, crew)
		pool := newAuditPool(t, plan.params)
		plan.bufs = pool
		if _, err := plan.Run(in); err != nil {
			t.Fatal(err)
		}
		if n := pool.outstanding(); n != 0 {
			t.Fatalf("crew %d: %d pooled buffers leaked", crew, n)
		}
		held, bound := int64(pool.peak)*bufBytes, plan.FootprintBytes()
		if held > bound {
			t.Fatalf("crew %d: run held %d buffers (%d bytes), FootprintBytes promised %d", crew, pool.peak, held, bound)
		}
		if plan.footprint > most {
			t.Fatalf("crew %d: footprint of %d slots, want at most %d (the plan has %d)", crew, plan.footprint, most, plan.nSlots)
		}
		t.Logf("crew %d: peak %d buffers, footprint %d slots (plan has %d)", crew, pool.peak, plan.footprint, plan.nSlots)
	}
}

// TestPlanLookaheadBoundsBuffers: the reorder window keeps a run from
// holding a buffer per term. Live values are the window's own outputs
// plus what crosses its lower edge (here the running sum and one term),
// whichever member runs which step; FootprintBytes is computed
// from the same invariant and must cover the peak; and the window
// changes when steps run, never what they compute.
func TestPlanLookaheadBoundsBuffers(t *testing.T) {
	const terms = 128
	forEachShape(t, func(t *testing.T) (*oracleKit, *Plan, *auditPool) { return widePlan(t, terms) },
		func(t *testing.T, k *oracleKit, plan *Plan, pool *auditPool) {
			plan.footprint = plan.windowSlots() // the shape may have moved the window
			in := map[string]*Ciphertext{"x": k.encrypt(t, []float64{0.5, -0.25})}
			got, err := plan.Run(in)
			if err != nil {
				t.Fatal(err)
			}
			if n := pool.outstanding(); n != 0 {
				t.Fatalf("%d pooled buffers leaked", n)
			}
			if bound := plan.lookahead + 2; pool.peak > bound {
				t.Fatalf("run held %d buffers at once, want at most %d (window %d) for %d terms", pool.peak, bound, plan.lookahead, terms)
			}
			bufBytes := 2 * int64(k.params.K()) * int64(k.params.N) * 8
			if held := int64(pool.peak) * bufBytes; held > plan.FootprintBytes() {
				t.Fatalf("run held %d bytes, FootprintBytes promised %d", held, plan.FootprintBytes())
			}
			if all := int64(plan.nSlots) * bufBytes; plan.FootprintBytes() >= all/2 {
				t.Fatalf("FootprintBytes %d is not window-sized (every slot at once: %d)", plan.FootprintBytes(), all)
			}

			plan.lookahead = plan.NumSteps() // no window
			want, err := plan.Run(in)
			if err != nil {
				t.Fatal(err)
			}
			if !ctBitEqual(got["y"], want["y"]) {
				t.Fatal("windowed run differs from the unwindowed run")
			}
		})
}

// TestPlanBufferPoolSharedByShape: plans compiled for two Params of one
// set draw their buffers from one pool, a buffer is a degree-1 ciphertext
// at the top level, and another set has a pool of its own.
func TestPlanBufferPoolSharedByShape(t *testing.T) {
	compile := func(spec ParamSpec) *Plan {
		params, err := NewParams(spec)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCircuit()
		x := c.Input("x")
		c.Output("y", c.Add(x, x))
		plan, err := c.Compile(params, nil)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	a, b, other := compile(SetA), compile(SetA), compile(SetB)
	if a.params == b.params {
		t.Fatal("NewParams returned one Params twice")
	}
	if a.bufs != b.bufs {
		t.Error("plans of one set hold different buffer pools")
	}
	if other.bufs == a.bufs {
		t.Error("a Set-B plan shares the Set-A buffer pool")
	}
	ct := a.bufs.get()
	defer a.bufs.put(ct)
	top := a.params.MaxLevel()
	if ct.Degree() != 1 || ct.Level != top {
		t.Fatalf("buffer of degree %d at level %d, want degree 1 at %d", ct.Degree(), ct.Level, top)
	}
	for _, q := range ct.Polys {
		if q.Rows() != top+1 || len(q.Coeffs[top]) != a.params.N {
			t.Fatalf("buffer component of %d rows of %d, want %d of %d", q.Rows(), len(q.Coeffs[top]), top+1, a.params.N)
		}
	}
}

// TestPlanRunStartsNoGoroutines: a run of the 255-step plan is worked by
// its caller and the ring pool's workers, which exist once per process.
// On a plan capped at one worker a run adds no goroutine at all (the
// kit's pool is fresh, so an offer would have shown); at the default cap
// the most a first run can add is the pool itself (workers − 1, started
// by the first offer), two steps really do run at once, and a second run
// adds nothing. Sampled from inside every step, where the goroutine count
// is at its highest.
func TestPlanRunStartsNoGoroutines(t *testing.T) {
	k, plan, _ := widePlan(t, 128)
	setCrew(plan, 4)
	in := map[string]*Ciphertext{"x": k.encrypt(t, []float64{1, 2})}
	var mu sync.Mutex
	most, arrived := 0, 0
	both := make(chan struct{})
	plan.failStep = func(int) error {
		mu.Lock()
		most = max(most, runtime.NumGoroutine())
		meet := plan.eval.Workers() > 1
		if meet {
			if arrived++; arrived == 2 {
				close(both)
			}
		}
		mu.Unlock()
		if meet { // the first such step holds on until a second is in here with it
			select {
			case <-both:
			case <-time.After(5 * time.Second):
				t.Error("no second step started while one was running: no pool worker joined the run")
			}
		}
		return nil
	}
	run := func() int {
		most = 0
		if _, err := plan.Run(in); err != nil {
			t.Fatal(err)
		}
		return most
	}
	workers := plan.eval.Workers()
	baseline := runtime.NumGoroutine()
	plan.eval.inner.SetWorkers(1)
	if serial := run(); serial != baseline {
		t.Fatalf("%d goroutines during a run capped at one worker, %d before it", serial, baseline)
	}
	plan.eval.inner.SetWorkers(workers)
	if first := run(); first > baseline+workers-1 {
		t.Fatalf("%d goroutines during a %d-step run, want at most %d (baseline %d + the pool's %d workers − the caller)",
			first, plan.NumSteps(), baseline+workers-1, baseline, workers)
	}
	started := runtime.NumGoroutine()
	if second := run(); second > started {
		t.Fatalf("a second run raised the goroutine count from %d to %d", started, second)
	}
}

// TestPlanConcurrentRunsShareTwoWorkers is the deadlock probe for runs
// that borrow the pool: eight callers on one key-switching Set-B plan
// with a single pool worker between them, so every step that worker
// holds fans rows out to whoever is parked or joining, and every caller
// at some point waits on a step in its hands. All must finish, agree
// bit for bit, and leave the pool balanced.
func TestPlanConcurrentRunsShareTwoWorkers(t *testing.T) {
	k := newOracleKit(t, SetB, []int{1, 2, 3}, false)
	c := NewCircuit()
	x := c.Input("x")
	acc := c.MulRelin(x, x)
	for _, r := range []int{1, 2, 3} {
		acc = c.Add(acc, c.MulRelin(c.Rotate(x, r), x))
	}
	c.Output("y", acc)
	plan, err := c.Compile(k.params, k.evk)
	if err != nil {
		t.Fatal(err)
	}
	plan.eval.inner.SetWorkers(2) // whatever -cpu says
	setCrew(plan, 2)
	pool := newAuditPool(t, k.params)
	plan.bufs = pool
	in := map[string]*Ciphertext{"x": k.encrypt(t, []float64{0.5, -0.25, 0.125})}
	const callers = 8
	outs := make([]*Ciphertext, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var out map[string]*Ciphertext
			if out, errs[i] = plan.RunContext(context.Background(), in); errs[i] == nil {
				outs[i] = out["y"]
			}
		}(i)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("concurrent runs on a 2-worker context did not finish")
	}
	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !ctBitEqual(outs[i], outs[0]) {
			t.Fatalf("caller %d differs from caller 0", i)
		}
	}
	if n := pool.outstanding(); n != 0 {
		t.Fatalf("%d pooled buffers leaked", n)
	}
}

// TestPlanLookaheadSurvivesFailureAndCancel: a fault or a cancellation
// in the middle of a plan much longer than its window must still let
// every later step through the window (they only skip their kernels),
// so the run returns, the pool balances and the plan reruns.
func TestPlanLookaheadSurvivesFailureAndCancel(t *testing.T) {
	build := func(t *testing.T) (*oracleKit, *Plan, *auditPool) { return widePlan(t, 96) }
	forEachShape(t, build, testLookaheadSurvivesFailureAndCancel)
}

func testLookaheadSurvivesFailureAndCancel(t *testing.T, k *oracleKit, plan *Plan, pool *auditPool) {
	in := map[string]*Ciphertext{"x": k.encrypt(t, []float64{1, 2})}
	mid := plan.NumSteps() / 2

	plan.failStep = func(i int) error {
		if i == mid {
			return errInjected
		}
		return nil
	}
	if _, err := plan.Run(in); !errors.Is(err, errInjected) {
		t.Fatalf("want the injected fault as root cause, got %v", err)
	}
	if n := pool.outstanding(); n != 0 {
		t.Fatalf("fault: %d pooled buffers leaked", n)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	plan.failStep = func(i int) error {
		if i == mid {
			cancel()
		}
		return nil
	}
	if _, err := plan.RunContext(ctx, in); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := pool.outstanding(); n != 0 {
		t.Fatalf("cancel: %d pooled buffers leaked", n)
	}

	plan.failStep = nil
	if _, err := plan.Run(in); err != nil {
		t.Fatalf("clean run after fault and cancel: %v", err)
	}
	if n := pool.outstanding(); n != 0 {
		t.Fatalf("clean run: %d pooled buffers leaked", n)
	}
}
