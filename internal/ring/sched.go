package ring

// This file is the worker pool behind RunRows, the one parallel
// primitive of the ring layer: every fan-out above it (NTT rows,
// flooring rows, the key switch's INTT and accumulator rows) is "call
// fn(i) for each row, rows are disjoint".
//
// Design points:
//
//   - Workers are started lazily and live for the Context's lifetime,
//     blocked on a channel receive when idle. With SetWorkers(1) no
//     worker is ever started and every row runs inline in the caller,
//     which makes the degenerate path exactly the sequential algorithm.
//   - A RunRows call is one pooled rowJob: the caller queues one handle
//     per helper it wants, then claims rows from the job's atomic
//     counter itself, so it contributes a full worker's throughput and
//     the call completes even if no helper ever arrives.
//   - The join is caller-assisted: while helpers are outstanding the
//     caller drains the shared queue instead of blocking, so a row that
//     itself calls RunRows cannot deadlock, and RunRows after Close
//     completes caller-side.

import (
	"sync"
	"sync/atomic"
)

// maxPoolWorkers bounds how many persistent workers a context will ever
// start, however large a SetWorkers request is.
const maxPoolWorkers = 256

// scheduler owns the persistent workers and the shared job queue.
type scheduler struct {
	// jobs carries one handle per requested helper. When it is full the
	// caller just gets fewer helpers, so its size bounds queueing, not
	// correctness: 512 is a few handles for every worker a context may
	// start.
	jobs chan *rowJob
	stop chan struct{}

	mu      sync.Mutex
	started int // background workers currently alive
	closed  bool
}

func newScheduler() *scheduler {
	return &scheduler{jobs: make(chan *rowJob, 512), stop: make(chan struct{})}
}

// ensureWorkers starts background workers until at least n are alive
// (capped at maxPoolWorkers). Idle workers cost one blocked goroutine.
func (s *scheduler) ensureWorkers(n int) {
	if n > maxPoolWorkers {
		n = maxPoolWorkers
	}
	s.mu.Lock()
	for !s.closed && s.started < n {
		s.started++
		go s.worker()
	}
	s.mu.Unlock()
}

func (s *scheduler) worker() {
	for {
		select {
		case j := <-s.jobs:
			j.help()
		case <-s.stop:
			return
		}
	}
}

// Close releases the context's persistent workers (they are otherwise
// retained for the context's lifetime — a long-lived server rotating
// many contexts should Close the retired ones). Parallel operations
// already in flight still complete: their callers drain any queued
// handles themselves. Operations submitted after Close simply run
// caller-side, as with SetWorkers(1).
func (c *Context) Close() {
	s := c.sched
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.stop)
		s.started = 0
	}
	s.mu.Unlock()
}

// rowJob is one RunRows call: its participants (the caller plus every
// helper that picks up a queued handle) claim row indices from a shared
// atomic counter.
type rowJob struct {
	next atomic.Int64
	rows int
	fn   func(i int)

	// pending counts queued handles not yet finished; wake is signaled
	// (capacity 1, non-blocking send) when it reaches zero. A stale
	// signal left over from a previous use only costs the next caller
	// one spurious loop iteration — the exit condition is always
	// pending == 0.
	pending atomic.Int64
	wake    chan struct{}
}

func (j *rowJob) run() {
	for {
		i := int(j.next.Add(1))
		if i >= j.rows {
			return
		}
		j.fn(i)
	}
}

// help runs j as a helper and retires one handle.
func (j *rowJob) help() {
	j.run()
	j.retire()
}

func (j *rowJob) retire() {
	if j.pending.Add(-1) == 0 {
		select {
		case j.wake <- struct{}{}:
		default:
		}
	}
}

var rowJobPool = sync.Pool{New: func() any { return &rowJob{wake: make(chan struct{}, 1)} }}

// RunRows invokes fn(i) for every row i in [0, rows), fanning out to at
// most the context's worker cap when the work is large enough to pay for
// scheduling overhead. fn must only touch data owned by its row. It is
// exported so higher layers (the CKKS evaluator's key-switch passes) can
// reuse the same worker policy for their own row-shaped work.
func (c *Context) RunRows(rows int, fn func(i int)) {
	c.runRows(rows, c.parallelThreshold, fn)
}

// dyadicRows carries the operand rows of one elementwise op by value, so
// no poly is captured and a Poly.Resize view stays on its caller's stack.
type dyadicRows struct{ a0, a1, b0, b1, c0, c1, c2 [][]uint64 }

// runDyadic is RunRows for the elementwise ops, whose rows are cheap
// enough to need dyadicThreshold coefficients before a fan-out pays.
// row captures nothing, so the inline case allocates nothing; the
// fan-out's closure captures a copy made on its own branch.
func (c *Context) runDyadic(rows int, v dyadicRows, row func(*Context, dyadicRows, int)) {
	if !c.fansOut(rows, dyadicThreshold) {
		for i := 0; i < rows; i++ {
			row(c, v, i)
		}
		return
	}
	shared := v
	c.runRows(rows, dyadicThreshold, func(i int) { row(c, shared, i) })
}

// fansOut reports whether a job of rows rows has the threshold
// coefficients, and the context the workers, for a fan-out to pay.
func (c *Context) fansOut(rows, threshold int) bool {
	return min(c.workers, rows) > 1 && rows*c.N >= threshold
}

// runRows fans rows out to at most c.workers participants (the caller
// plus workers-1 helpers) when the job has at least threshold
// coefficients.
func (c *Context) runRows(rows, threshold int, fn func(i int)) {
	if !c.fansOut(rows, threshold) {
		for i := 0; i < rows; i++ {
			fn(i)
		}
		return
	}
	workers := min(c.workers, rows)
	s := c.sched
	s.ensureWorkers(workers - 1)
	j := rowJobPool.Get().(*rowJob)
	j.next.Store(-1)
	j.rows = rows
	j.fn = fn
	j.pending.Store(int64(workers - 1))
	for w := 0; w < workers-1; w++ {
		select {
		case s.jobs <- j:
		default:
			j.retire() // queue full: one helper fewer
		}
	}
	j.run() // caller participates
	// Join. A handle may outlive the rows (a busy helper picks it up
	// late and finds nothing to claim), so wait for the handles, running
	// whatever is queued — this job's or another caller's — meanwhile.
	for j.pending.Load() > 0 {
		select {
		case q := <-s.jobs:
			q.help()
		case <-j.wake:
		}
	}
	j.fn = nil
	rowJobPool.Put(j)
}
