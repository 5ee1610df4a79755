package ring

import (
	"sync/atomic"
	"testing"
	"time"
)

// The group must run every task exactly once, including tasks submitted
// from inside other tasks (the digit→tiles fan-out pattern).
func TestGroupNestedSubmission(t *testing.T) {
	ctx := testContext(t, 64, 2, 30)
	for _, workers := range []int{1, 2, 4, 8} {
		ctx.SetWorkers(workers)
		var count atomic.Int64
		g := ctx.NewGroup()
		const outer, inner = 7, 13
		for i := 0; i < outer; i++ {
			g.GoFunc(func() {
				count.Add(1)
				for j := 0; j < inner; j++ {
					g.GoFunc(func() { count.Add(1) })
				}
			})
		}
		g.Wait()
		ctx.PutGroup(g)
		if got := count.Load(); got != outer*(1+inner) {
			t.Fatalf("workers=%d: ran %d tasks, want %d", workers, got, outer*(1+inner))
		}
	}
}

// Group reuse through the pool must not leak completion state between
// batches (a stale wake signal may only cost a spurious wakeup).
func TestGroupReuse(t *testing.T) {
	ctx := testContext(t, 64, 2, 30)
	ctx.SetWorkers(4)
	for round := 0; round < 50; round++ {
		var count atomic.Int64
		g := ctx.NewGroup()
		for i := 0; i < 20; i++ {
			g.GoFunc(func() { count.Add(1) })
		}
		g.Wait()
		if got := count.Load(); got != 20 {
			t.Fatalf("round %d: ran %d tasks, want 20", round, got)
		}
		ctx.PutGroup(g)
	}
}

// RunRows must hit every row exactly once at any worker count, including
// explicit fan-out requests larger than GOMAXPROCS.
func TestRunRowsAllWorkerCounts(t *testing.T) {
	ctx := testContext(t, 64, 2, 30)
	const rows = 37
	for _, workers := range []int{1, 2, 3, 8, 64} {
		hits := make([]atomic.Int32, rows)
		ctx.runRowsWorkers(rows, workers, 0, func(i int) {
			hits[i].Add(1)
		})
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: row %d hit %d times", workers, i, hits[i].Load())
			}
		}
	}
}

// Concurrent RunRows calls from independent goroutines must not
// interfere (the caller-assisted Wait may execute other groups' tasks).
func TestRunRowsConcurrentCallers(t *testing.T) {
	ctx := testContext(t, 64, 2, 30)
	ctx.SetWorkers(4)
	const callers, rows = 8, 33
	done := make(chan [rows]int32, callers)
	for c := 0; c < callers; c++ {
		go func() {
			var hits [rows]atomic.Int32
			ctx.runRowsWorkers(rows, 4, 0, func(i int) { hits[i].Add(1) })
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

// A full queue must degrade to inline execution, never deadlock: submit
// far more tasks than the queue holds from a single goroutine.
func TestGroupQueueOverflowRunsInline(t *testing.T) {
	ctx := testContext(t, 64, 2, 30)
	ctx.SetWorkers(2)
	var count atomic.Int64
	g := ctx.NewGroup()
	const n = 10000 // queue capacity is 512
	for i := 0; i < n; i++ {
		g.GoFunc(func() { count.Add(1) })
	}
	g.Wait()
	ctx.PutGroup(g)
	if got := count.Load(); got != n {
		t.Fatalf("ran %d tasks, want %d", got, n)
	}
}

// A group on a fresh multi-worker context must actually start pool
// workers: a long-running task submitted first must not serialize the
// whole graph behind it (regression test — NewGroup must ensure the
// worker complement, not rely on a prior RunRows having started them).
func TestFreshContextGroupStartsWorkers(t *testing.T) {
	ctx := testContext(t, 64, 2, 30)
	ctx.SetWorkers(4)
	g := ctx.NewGroup()
	release := make(chan struct{})
	ran := make(chan struct{}, 1)
	g.GoFunc(func() { <-release }) // parks one worker
	g.GoFunc(func() { ran <- struct{}{} })
	// The second task must complete while the first is still blocked —
	// impossible if everything drains inline on one goroutine at Wait.
	select {
	case <-ran:
	case <-timeAfter(t):
		t.Fatal("second task never ran while first was blocked: no pool workers started")
	}
	close(release)
	g.Wait()
	ctx.PutGroup(g)
}

// Close must release the pool; subsequent operations still complete
// (caller-side), and closing twice is harmless.
func TestContextClose(t *testing.T) {
	ctx := testContext(t, 64, 2, 30)
	ctx.SetWorkers(4)
	var count atomic.Int64
	g := ctx.NewGroup()
	for i := 0; i < 10; i++ {
		g.GoFunc(func() { count.Add(1) })
	}
	g.Wait()
	ctx.PutGroup(g)
	ctx.Close()
	ctx.Close()
	g = ctx.NewGroup()
	for i := 0; i < 10; i++ {
		g.GoFunc(func() { count.Add(1) })
	}
	g.Wait()
	ctx.PutGroup(g)
	if got := count.Load(); got != 20 {
		t.Fatalf("ran %d tasks, want 20", got)
	}
}

func timeAfter(t *testing.T) <-chan time.Time {
	t.Helper()
	return time.After(5 * time.Second)
}

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
