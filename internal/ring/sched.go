package ring

// This file is the software analogue of the HEAX key-switch pipeline's
// control logic (Section 5, Fig. 6-8): a persistent worker pool plus a
// lightweight task-group abstraction that lets higher layers express
// small dependency graphs — "run these INTTs, and dispatch each
// (digit, targetPrime) tile as soon as its digit is ready" — instead of
// the bulk-synchronous row loops the seed used (goroutines spawned and
// joined per call).
//
// Design points:
//
//   - Workers are started lazily and live for the Context's lifetime,
//     blocked on a channel receive when idle. With SetWorkers(1) no
//     worker is ever started and every task runs inline in the
//     submitter, which makes the degenerate path exactly the sequential
//     algorithm (and keeps single-core benchmarks allocation-free).
//   - Tasks are an interface, not closures, so hot paths can embed
//     their whole tile graph in one pooled slice of structs and submit
//     pointers into it — no per-tile allocation.
//   - A Group counts outstanding tasks; tasks may submit further tasks
//     into their own group (that is how a digit's INTT fans out its
//     base-conversion tiles). Wait is caller-assisted: the waiting
//     goroutine drains the shared queue instead of blocking, so nested
//     parallel operations (a tile calling RunRows) cannot deadlock and
//     the submitting thread contributes a full worker's throughput.
//   - If the queue is full, submission runs the task inline. Tasks
//     therefore must never block on other tasks' *submission*; blocking
//     on short mutexes (the per-row accumulator locks) is fine.

import (
	"sync"
	"sync/atomic"
)

// Task is one unit of work for a Context's worker pool.
type Task interface{ Run() }

// taskFunc adapts a plain closure to Task for callers that do not care
// about the extra allocation.
type taskFunc func()

func (f taskFunc) Run() { f() }

// queued pairs a task with the group accounting its completion.
type queued struct {
	t Task
	g *Group
}

// maxPoolWorkers bounds how many persistent workers a context will ever
// start, however large an explicit fan-out request is.
const maxPoolWorkers = 256

// scheduler owns the persistent workers and the shared task queue.
type scheduler struct {
	tasks chan queued
	stop  chan struct{}

	mu      sync.Mutex
	started int // background workers currently alive
	closed  bool

	groups sync.Pool // *Group
}

func newScheduler() *scheduler {
	return &scheduler{tasks: make(chan queued, 512), stop: make(chan struct{})}
}

// ensureWorkers starts background workers until at least n are alive
// (capped at maxPoolWorkers). Idle workers cost one blocked goroutine.
func (s *scheduler) ensureWorkers(n int) {
	if n > maxPoolWorkers {
		n = maxPoolWorkers
	}
	if n <= 0 {
		return
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
		case q := <-s.tasks:
			q.t.Run()
			q.g.done()
		case <-s.stop:
			return
		}
	}
}

// Close releases the context's persistent workers (they are otherwise
// retained for the context's lifetime — a long-lived server rotating
// many contexts should Close the retired ones). Parallel operations
// already in flight still complete: Group.Wait drains any queued tasks
// on the calling goroutine. Operations submitted after Close simply run
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

// Group tracks a batch of tasks submitted to the pool. Tasks may add
// more tasks to their own group while running. The zero Group is not
// usable; get one from Context.NewGroup.
type Group struct {
	sched   *scheduler
	pending atomic.Int64
	// wake is signaled (capacity 1, non-blocking send) when pending
	// reaches zero; Wait uses it to sleep without polling. A stale
	// signal left over from a previous use only costs Wait one spurious
	// loop iteration — the exit condition is always pending == 0.
	wake chan struct{}
}

// NewGroup returns an empty task group bound to this context's pool.
// Groups are pooled; return them with PutGroup once Wait has returned.
// The context's worker complement is started here (lazily, idempotent),
// so a task graph submitted to a fresh context is actually executed by
// workers-1 background goroutines plus the waiting caller — not drained
// inline.
func (c *Context) NewGroup() *Group {
	s := c.sched
	s.ensureWorkers(c.workers - 1)
	if g, ok := s.groups.Get().(*Group); ok && g != nil {
		return g
	}
	return &Group{sched: s, wake: make(chan struct{}, 1)}
}

// PutGroup recycles a group obtained from NewGroup. The group must be
// idle (Wait returned, no further Go calls in flight).
func (c *Context) PutGroup(g *Group) {
	if g == nil || g.sched != c.sched {
		return
	}
	select { // clear any stale wake signal
	case <-g.wake:
	default:
	}
	c.sched.groups.Put(g)
}

// Go submits t to the pool under this group. If the queue is full the
// task runs inline in the caller. Safe to call from inside a task of the
// same group.
func (g *Group) Go(t Task) {
	g.pending.Add(1)
	select {
	case g.sched.tasks <- queued{t, g}:
	default:
		t.Run()
		g.done()
	}
}

// GoFunc is Go for a plain closure (one allocation per call; hot paths
// should implement Task on a pooled struct instead).
func (g *Group) GoFunc(fn func()) { g.Go(taskFunc(fn)) }

func (g *Group) done() {
	if g.pending.Add(-1) == 0 {
		select {
		case g.wake <- struct{}{}:
		default:
		}
	}
}

// Wait blocks until every task submitted to the group has finished. The
// waiting goroutine drains the shared queue while it waits (running
// other groups' tasks if they come first), so a full complement of
// workers is never idled by a join.
func (g *Group) Wait() {
	for g.pending.Load() > 0 {
		select {
		case q := <-g.sched.tasks:
			q.t.Run()
			q.g.done()
		case <-g.wake:
		}
	}
}

// rowJob is the pooled task behind RunRows: up to `workers` participants
// (pool workers plus the submitting goroutine) claim row indices from a
// shared atomic counter.
type rowJob struct {
	next atomic.Int64
	rows int
	fn   func(i int)
}

func (j *rowJob) Run() {
	for {
		i := int(j.next.Add(1))
		if i >= j.rows {
			return
		}
		j.fn(i)
	}
}

var rowJobPool = sync.Pool{New: func() any { return new(rowJob) }}

// RunRows invokes fn(i) for every row i in [0, rows), fanning out to at
// most the context's worker cap when the work is large enough to pay for
// scheduling overhead. fn must only touch data owned by its row. It is
// exported so higher layers (the CKKS evaluator's key-switch loops) can
// reuse the same worker policy for their own row-shaped work.
func (c *Context) RunRows(rows int, fn func(i int)) {
	c.runRowsWorkers(rows, c.workers, parallelThreshold, fn)
}

// runDyadicRows is RunRows for the elementwise ops, whose rows are cheap
// enough to need dyadicThreshold coefficients before a fan-out pays.
func (c *Context) runDyadicRows(rows int, fn func(i int)) {
	c.runRowsWorkers(rows, c.workers, dyadicThreshold, fn)
}

// runRowsWorkers fans rows out to at most workers participants (the
// caller plus workers-1 pool workers) when the job has at least
// threshold coefficients. Callers with an explicit worker request
// (NTTParallel, the CPU-threads ablation) pass 0 and get the fan-out
// they asked for even on small jobs.
func (c *Context) runRowsWorkers(rows, workers, threshold int, fn func(i int)) {
	if workers > rows {
		workers = rows
	}
	if workers <= 1 || rows*c.N < threshold {
		for i := 0; i < rows; i++ {
			fn(i)
		}
		return
	}
	c.sched.ensureWorkers(workers - 1)
	j := rowJobPool.Get().(*rowJob)
	j.next.Store(-1)
	j.rows = rows
	j.fn = fn
	g := c.NewGroup()
	for w := 0; w < workers-1; w++ {
		g.Go(j)
	}
	j.Run() // caller participates
	g.Wait()
	j.fn = nil
	rowJobPool.Put(j)
	c.PutGroup(g)
}
