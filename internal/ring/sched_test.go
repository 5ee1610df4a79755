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
	ctx.sched.mu.Lock()
	started := ctx.sched.started
	ctx.sched.mu.Unlock()
	if started != 0 {
		t.Fatalf("%d workers alive after Close", started)
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
