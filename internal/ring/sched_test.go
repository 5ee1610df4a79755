package ring

import (
	"sync/atomic"
	"testing"
	"time"

	"heax/internal/uintmod"
)

// These tests drive runRows with threshold 0, so a 64-coefficient test
// ring fans out exactly as a production-sized one does through RunRows.

func countRows(t *testing.T, ctx *Context, rows int, what string) {
	t.Helper()
	hits := make([]atomic.Int32, rows)
	ctx.runRows(rows, 0, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if h := hits[i].Load(); h != 1 {
			t.Fatalf("%s: row %d hit %d times", what, i, h)
		}
	}
}

// The parallel threshold decides which NTT-cost passes reach the pool:
// with a second worker to give them to, from 2^14 coefficients on a
// context whose rows all run the IFMA kernels and from 2^13 when any row
// is scalar. No IFMA Set-A pass fans out (its rows cost less than the
// hand-off), every multi-row Set-B and Set-C pass does, and so do the
// 4-row passes of the IFMA LogN 12 test specs and the passes of the
// scalar and mixed-width ones, which the worker-invariance and race
// tests rely on.
func TestFansOutShapes(t *testing.T) {
	const ifma, scalar = parallelThresholdIFMA, parallelThresholdScalar
	for _, tc := range []struct {
		what                        string
		n, rows, workers, threshold int
		want                        bool
	}{
		{"Set-A INTT and flooring passes", 1 << 12, 2, 2, ifma, false},
		{"Set-A MAC pass", 1 << 12, 3, 2, ifma, false},
		{"Set-A MAC pass, eight workers", 1 << 12, 3, 8, ifma, false},
		{"schedSpec 3-row pass", 1 << 12, 3, 4, ifma, false},
		{"schedSpec 4-row pass", 1 << 12, 4, 2, ifma, true},
		{"Set-B single row", 1 << 13, 1, 2, ifma, false},
		{"Set-B level 0 MAC pass", 1 << 13, 2, 2, ifma, true},
		{"Set-B top level MAC pass", 1 << 13, 5, 2, ifma, true},
		{"Set-C single row", 1 << 14, 1, 2, ifma, false},
		{"Set-C level 0 MAC pass", 1 << 14, 2, 2, ifma, true},
		{"Set-C top level INTT pass", 1 << 14, 8, 2, ifma, true},
		{"Set-C top level MAC pass", 1 << 14, 9, 2, ifma, true},
		{"Set-C top level MAC pass, one worker", 1 << 14, 9, 1, ifma, false},
		{"scalar LogN 12 single row", 1 << 12, 1, 2, scalar, false},
		{"scalar LogN 12 INTT pass", 1 << 12, 2, 2, scalar, true},
		{"mixedSpec 3-row INTT pass", 1 << 12, 3, 2, scalar, true},
		{"scalar LogN 11 MAC pass", 1 << 11, 3, 2, scalar, false},
	} {
		ctx := &Context{N: tc.n, workers: tc.workers}
		if got := ctx.fansOut(tc.rows, tc.threshold); got != tc.want {
			t.Errorf("%s (%d rows of %d, %d workers, threshold %d): fansOut = %v, want %v",
				tc.what, tc.rows, tc.n, tc.workers, tc.threshold, got, tc.want)
		}
	}
	// NewContext picks by whether every row runs the kernels.
	narrow := scalar
	if uintmod.HasIFMA() {
		narrow = ifma
	}
	for _, tc := range []struct {
		what string
		ctx  *Context
		want int
	}{
		{"45-bit rows", testContext(t, 64, 2, 45), narrow},
		{"55-bit rows", testContext(t, 64, 2, 55), scalar},
		{"45- to 58-bit rows", mixedContext(t, 64), scalar},
	} {
		if got := tc.ctx.parallelThreshold; got != tc.want {
			t.Errorf("%s: parallelThreshold = %d, want %d", tc.what, got, tc.want)
		}
		if got := tc.ctx.Fork(1).parallelThreshold; got != tc.want {
			t.Errorf("%s: parallelThreshold = %d on a Fork, want %d", tc.what, got, tc.want)
		}
	}
}

// RunRows must hit every row exactly once at any worker count, including
// caps larger than GOMAXPROCS and larger than the row count.
func TestRunRowsAllWorkerCounts(t *testing.T) {
	ctx := testContext(t, 64, 2, 30)
	for _, workers := range []int{1, 2, 3, 8, 64} {
		ctx.SetWorkers(workers)
		countRows(t, ctx, 37, "37 rows")
		countRows(t, ctx, 2, "2 rows")
	}
}

// Pooled rowJobs must not leak completion state between calls (a stale
// wake signal may only cost a spurious wakeup).
func TestRunRowsJobReuse(t *testing.T) {
	ctx := testContext(t, 64, 2, 30)
	ctx.SetWorkers(4)
	for round := 0; round < 50; round++ {
		countRows(t, ctx, 20, "reused job")
	}
}

// Concurrent RunRows calls from independent goroutines must each see
// every row exactly once (the caller-assisted join may run other
// callers' rows).
func TestRunRowsConcurrentCallers(t *testing.T) {
	ctx := testContext(t, 64, 2, 30)
	ctx.SetWorkers(4)
	const callers, rows = 8, 33
	done := make(chan [rows]int32, callers)
	for c := 0; c < callers; c++ {
		go func() {
			var hits [rows]atomic.Int32
			ctx.runRows(rows, 0, func(i int) { hits[i].Add(1) })
			var out [rows]int32
			for i := range hits {
				out[i] = hits[i].Load()
			}
			done <- out
		}()
	}
	for c := 0; c < callers; c++ {
		out := <-done
		for i, h := range out {
			if h != 1 {
				t.Fatalf("caller %d: row %d hit %d times", c, i, h)
			}
		}
	}
}

// A row that itself calls RunRows (a key-switch row running under a plan
// step's fan-out) must not deadlock, whoever ends up running it.
func TestRunRowsNestedDoesNotDeadlock(t *testing.T) {
	ctx := testContext(t, 64, 2, 30)
	for _, workers := range []int{1, 2, 4, 8} {
		ctx.SetWorkers(workers)
		const outer, inner = 7, 13
		var count atomic.Int64
		finished := make(chan struct{})
		go func() {
			defer close(finished)
			ctx.runRows(outer, 0, func(int) {
				ctx.runRows(inner, 0, func(int) { count.Add(1) })
			})
		}()
		select {
		case <-finished:
		case <-timeAfter():
			t.Fatalf("workers=%d: nested RunRows did not return", workers)
		}
		if got := count.Load(); got != outer*inner {
			t.Fatalf("workers=%d: ran %d inner rows, want %d", workers, got, outer*inner)
		}
	}
}

// The first RunRows on a fresh multi-worker context must really use pool
// workers: two rows that each wait for the other can only both finish if
// two goroutines are inside the call at once.
func TestFreshContextRunRowsStartsWorkers(t *testing.T) {
	ctx := testContext(t, 64, 2, 30)
	ctx.SetWorkers(4)
	var arrived atomic.Int32
	both := make(chan struct{})
	ctx.runRows(2, 0, func(i int) {
		if arrived.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
		case <-timeAfter():
			t.Errorf("row %d never saw the other row start: no pool worker joined", i)
		}
	})
}

// A full queue must cost helpers, never rows or a deadlock: with every
// queue slot taken by another job's handles, RunRows still runs each
// row once, caller-side.
func TestRunRowsQueueFullRunsCallerSide(t *testing.T) {
	ctx := testContext(t, 64, 2, 30)
	ctx.SetWorkers(2)
	ctx.Close() // nobody but callers drains the queue
	idle := &rowJob{wake: make(chan struct{}, 1)}
	idle.pending.Store(int64(cap(ctx.sched.jobs)))
	for i := 0; i < cap(ctx.sched.jobs); i++ {
		ctx.sched.jobs <- idle
	}
	countRows(t, ctx, 9, "full queue")
	if n := len(ctx.sched.jobs); n != cap(ctx.sched.jobs) {
		t.Fatalf("queue holds %d handles, want it still full (%d)", n, cap(ctx.sched.jobs))
	}
}

// Close must release the pool; RunRows afterwards still completes
// (caller-side, starting no worker), and closing twice is harmless.
func TestContextClose(t *testing.T) {
	ctx := testContext(t, 64, 2, 30)
	ctx.SetWorkers(4)
	countRows(t, ctx, 10, "before Close")
	ctx.Close()
	ctx.Close()
	countRows(t, ctx, 10, "after Close")
	if started := ctx.sched.started.Load(); started != 0 {
		t.Fatalf("%d workers alive after Close", started)
	}
}

// helpFunc is a step handle: whatever a higher layer wants one more
// pair of hands for.
type helpFunc func()

func (f helpFunc) Help() { f() }

// queueRows puts one handle of a rows-row job straight into the row
// lane, as RunRows would for one helper, and returns the job.
func queueRows(ctx *Context, rows int, fn func(int)) *rowJob {
	j := &rowJob{rows: rows, fn: fn, wake: make(chan struct{}, 1)}
	j.next.Store(-1)
	j.pending.Store(1)
	ctx.sched.jobs <- j
	return j
}

func waitFor(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-timeAfter():
		t.Fatalf("%s: timed out", what)
	}
}

// Rows of a fan-out already started outrank one more step: with a row
// handle and a step handle both queued before the only worker looks,
// the row handle is taken first.
func TestOfferedStepWaitsForQueuedRows(t *testing.T) {
	ctx := testContext(t, 64, 2, 30)
	ctx.SetWorkers(2)
	s := ctx.sched
	var order []string
	done := make(chan struct{})
	// Queued directly, step first: no worker is alive until
	// ensureWorkers starts one, so both wait when it first looks.
	s.steps <- helpFunc(func() { order = append(order, "step"); close(done) })
	queueRows(ctx, 1, func(int) { order = append(order, "row") })
	s.ensureWorkers(1)
	waitFor(t, done, "offered step")
	if len(order) != 2 || order[0] != "row" {
		t.Fatalf("worker took %v, want the row handle before the step handle", order)
	}
}

// A step that itself fans out rows completes when the only pool worker
// is the one running it: its join serves its own rows.
func TestOfferedStepMayRunRows(t *testing.T) {
	ctx := testContext(t, 64, 2, 30)
	ctx.SetWorkers(2)
	done := make(chan struct{})
	if !ctx.Offer(helpFunc(func() { countRows(t, ctx, 9, "rows under a step"); close(done) })) {
		t.Fatal("Offer refused on an idle 2-worker context")
	}
	waitFor(t, done, "step calling RunRows on the only pool worker")
}

// An offer is a request for extra hands and may always be refused: on a
// context with no second worker, after Close, and when the lane is full
// it reports false and queues nothing.
func TestOfferRefusals(t *testing.T) {
	never := helpFunc(func() { t.Error("a refused handle was run") })
	serial := testContext(t, 64, 2, 30)
	serial.SetWorkers(1)
	if serial.Offer(never) || len(serial.sched.steps) != 0 || serial.sched.started.Load() != 0 {
		t.Fatal("Offer on a one-worker context queued a handle or started a worker")
	}
	closed := testContext(t, 64, 2, 30)
	closed.SetWorkers(4)
	closed.Close()
	if closed.Offer(never) || len(closed.sched.steps) != 0 || closed.sched.started.Load() != 0 {
		t.Fatal("Offer after Close queued a handle or started a worker")
	}

	full := testContext(t, 64, 2, 30)
	full.SetWorkers(2)
	release, running := make(chan struct{}), make(chan struct{})
	var stale atomic.Int32
	if !full.Offer(helpFunc(func() { close(running); <-release })) { // holds the only worker
		t.Fatal("Offer refused on an idle 2-worker context")
	}
	waitFor(t, running, "first offered step")
	for i := 0; i < cap(full.sched.steps); i++ {
		// Stale handles: answered after whatever they were offered for
		// is over, each a no-op.
		if !full.Offer(helpFunc(func() { stale.Add(1) })) {
			t.Fatalf("Offer %d refused with room in the lane", i)
		}
	}
	if full.Offer(never) || len(full.sched.steps) != cap(full.sched.steps) {
		t.Fatal("Offer on a full lane queued a handle")
	}
	countRows(t, full, 9, "rows beside a full step lane") // a join serves rows only
	if n := stale.Load(); n != 0 {
		t.Fatalf("a RunRows join ran %d step handles", n)
	}
	close(release)
	last := make(chan struct{})
	for !full.Offer(helpFunc(func() { close(last) })) {
		time.Sleep(time.Millisecond) // until the worker has made room
	}
	waitFor(t, last, "handle behind the stale ones")
	if n := int(stale.Load()); n != cap(full.sched.steps) {
		t.Fatalf("%d of %d queued handles answered", n, cap(full.sched.steps))
	}
}

// HelpUntil serves rows until wake fires and takes no step: a handle
// queued meanwhile is still there for the pool, not stranded with the
// goroutine that left. Fork views share both lanes.
func TestHelpUntil(t *testing.T) {
	ctx := testContext(t, 64, 2, 30)
	ctx.SetWorkers(2)
	ctx.Close() // nobody but HelpUntil serves the lanes
	view := ctx.Fork(3)
	var ranRows atomic.Int32
	rows := queueRows(ctx, 5, func(int) { ranRows.Add(1) })
	ctx.sched.steps <- helpFunc(func() { t.Error("HelpUntil ran a step handle") })
	returned := make(chan struct{})
	go func() {
		view.HelpUntil(rows.wake) // fires when the queued handle retires
		close(returned)
	}()
	waitFor(t, returned, "HelpUntil")
	if n := ranRows.Load(); n != 5 {
		t.Fatalf("HelpUntil ran %d of 5 queued rows before its wake", n)
	}
	if len(view.sched.jobs) != 0 || len(view.sched.steps) != 1 {
		t.Fatalf("lanes hold %d row and %d step handles, want 0 and the 1 step left for the pool", len(view.sched.jobs), len(view.sched.steps))
	}

	open := testContext(t, 64, 2, 30)
	open.SetWorkers(2)
	done := make(chan struct{})
	if !open.Fork(2).Offer(helpFunc(func() { close(done) })) {
		t.Fatal("Offer through a Fork refused")
	}
	waitFor(t, done, "handle offered through a Fork, answered by the parent's worker")
	if n := open.sched.started.Load(); n != 1 {
		t.Fatalf("%d workers alive on the shared pool, want 1", n)
	}
}

func timeAfter() <-chan time.Time { return time.After(5 * time.Second) }

// Row-parallel ops must produce identical results at every worker count.
func TestRowOpsWorkerEquivalence(t *testing.T) {
	ctx := testContext(t, 64, 2, 30)
	a := ctx.NewPoly(2)
	b := ctx.NewPoly(2)
	for i := 0; i < 2; i++ {
		p := ctx.Basis.Primes[i]
		for j := 0; j < ctx.N; j++ {
			a.Coeffs[i][j] = uint64(3*j+i+1) % p
			b.Coeffs[i][j] = uint64(7*j+2*i+5) % p
		}
	}
	ctx.SetWorkers(1)
	want := ctx.NewPoly(2)
	ctx.MulCoeffs(a, b, want)
	ctx.NTT(want)
	for _, workers := range []int{2, 4} {
		ctx.SetWorkers(workers)
		got := ctx.NewPoly(2)
		ctx.MulCoeffs(a, b, got)
		ctx.NTT(got)
		if !got.Equal(want) {
			t.Fatalf("workers=%d: row op result differs from serial", workers)
		}
	}
}
