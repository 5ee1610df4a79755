package ring

// This file is the process's one set of compute workers. Two kinds of
// work reach it: rows — RunRows, the one parallel primitive of the ring
// layer: every fan-out above it (NTT rows, flooring rows, the key
// switch's INTT and accumulator rows) is "call fn(i) for each row, rows
// are disjoint" — and steps, whole units of work a higher layer (a Plan
// run) would like one more pair of hands for.
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
//   - The join is caller-assisted (HelpUntil): while helpers are
//     outstanding the caller drains the row lane instead of blocking, so
//     a row that itself calls RunRows cannot deadlock, and RunRows after
//     Close completes caller-side.
//   - Steps wait in a second lane that a worker looks at only when no
//     row handle is queued: a row belongs to a fan-out somebody is
//     already waiting on, a step is one more thing to start. An Offer is
//     a request for extra hands, never a hand-off — whoever offers keeps
//     working its own list — so a dropped or late offer costs
//     parallelism, not progress. A join serves rows only: a joiner that
//     picked up a step would suspend its own for a whole kernel, nest
//     without bound, and hold buffers past the window its plan promised.

import (
	"sync"
	"sync/atomic"
)

// maxPoolWorkers bounds how many persistent workers a context will ever
// start, however large a SetWorkers request is.
const maxPoolWorkers = 256

// scheduler owns the persistent workers and the two shared lanes.
type scheduler struct {
	// jobs carries one handle per requested helper. When it is full the
	// caller just gets fewer helpers, so its size bounds queueing, not
	// correctness: 512 is a few handles for every worker a context may
	// start. steps is the same for offered steps.
	jobs  chan *rowJob
	steps chan interface{ Help() }
	stop  chan struct{}

	mu      sync.Mutex   // held to start workers and to close
	started atomic.Int32 // background workers currently alive; 0 once closed
	closed  bool
}

func newScheduler() *scheduler {
	return &scheduler{jobs: make(chan *rowJob, 512), steps: make(chan interface{ Help() }, 512), stop: make(chan struct{})}
}

// ensureWorkers starts background workers until at least n are alive
// (capped at maxPoolWorkers) and reports whether the pool is open. Idle
// workers cost one blocked goroutine. Every fan-out and offer comes
// through here, so the pool at size is one atomic load.
func (s *scheduler) ensureWorkers(n int) bool {
	n = min(n, maxPoolWorkers)
	if int(s.started.Load()) >= n {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed && int(s.started.Load()) < n {
		s.started.Add(1)
		go s.worker()
	}
	return !s.closed
}

func (s *scheduler) worker() {
	for {
		select {
		case j := <-s.jobs:
			j.help()
			continue
		default:
		}
		select {
		case j := <-s.jobs:
			j.help()
		case h := <-s.steps:
			h.Help()
		case <-s.stop:
			return
		}
	}
}

// Close releases the context's persistent workers (they are otherwise
// retained for the context's lifetime — a long-lived server rotating
// many contexts should Close the retired ones). Parallel operations
// already in flight still complete: their callers drain any queued
// row handles themselves, and whoever offered a step runs it itself.
// Operations submitted after Close simply run caller-side, as with
// SetWorkers(1).
func (c *Context) Close() {
	s := c.sched
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.stop)
		s.started.Store(0)
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

// Offer asks the pool for one more pair of hands: an idle worker will
// call h.Help, once, when no row handle is waiting. Offer never blocks
// and never runs h itself; it reports false, having queued nothing, when
// the context has no second worker, after Close, and when the step lane
// is full. Help must tolerate arriving late — after the work it was
// offered for is done — by returning at once.
func (c *Context) Offer(h interface{ Help() }) bool {
	if c.workers <= 1 || !c.sched.ensureWorkers(c.workers-1) {
		return false
	}
	select {
	case c.sched.steps <- h:
		return true
	default:
		return false
	}
}

// HelpUntil serves the row lane on the calling goroutine until wake
// fires: what a goroutine does instead of sleeping while others hold
// the work it waits for — RunRows' join, and a plan run's caller whose
// steps are all in pool workers' hands, whose kernels then find it here
// to take their rows.
func (c *Context) HelpUntil(wake <-chan struct{}) {
	for {
		select {
		case q := <-c.sched.jobs:
			q.help()
		case <-wake:
			return
		}
	}
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
	// whatever rows are queued — this job's or another caller's — meanwhile.
	for j.pending.Load() > 0 {
		c.HelpUntil(j.wake)
	}
	j.fn = nil
	rowJobPool.Put(j)
}
