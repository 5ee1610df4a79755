package serve

// Weighted-fair admission with deadline-aware load shedding: the
// replacement for the global FIFO window. Every tenant owns a bounded
// queue of run jobs (one job per input set) and a stride-scheduling
// pass value; executors always dispatch from the backlogged tenant
// with the lowest pass, advancing it by strideScale/weight per job, so
// under saturation tenants complete work in proportion to their
// configured weights and a heavy tenant can never starve a light one.
// A per-tenant in-flight cap bounds how many executors one tenant may
// occupy at once; capped tenants are simply skipped, never blocking
// another tenant's dispatch.
//
// Shedding happens at submit time, in O(tenants) under one lock:
//   - a queue beyond TenantPolicy.MaxQueued rejects with ErrOverloaded
//     instead of blocking (the old window blocked unboundedly);
//   - a request carrying a deadline budget is checked against a moving
//     per-plan run-time estimate (EWMA, fed back by the executors): if
//     backlog*est/workers + ceil(k/workers)*est already exceeds the
//     budget, the request is rejected with ErrDeadlineExceeded in
//     O(ms) rather than timing out mid-run after eating an executor.

import (
	"fmt"
	"sync"
	"time"

	"heax/obs"
)

// TenantPolicy shapes one tenant's share of the admission layer.
// The zero value of any field selects the server default.
type TenantPolicy struct {
	// Weight is the tenant's share of the executor pool under
	// contention: at saturation, a weight-2 tenant completes twice the
	// runs of a weight-1 tenant (default 1).
	Weight int
	// MaxInFlight caps how many of the tenant's input sets may execute
	// concurrently (0 = no cap beyond the admission window). A stalled
	// or flooding tenant at its cap is skipped by the dispatcher, never
	// blocking other tenants.
	MaxInFlight int
	// MaxQueued bounds the tenant's admission queue in input sets
	// (default DefaultTenantQueue); a full queue rejects with
	// ErrOverloaded immediately instead of blocking.
	MaxQueued int
	// MaxBytes caps the tenant's server-side memory footprint: uploaded
	// evaluation-key bytes (the serialized size is the resident size)
	// plus the estimated working set of every queued and executing run
	// (0 = unlimited). Work over the cap is shed with
	// ErrResourceExhausted before any allocation, so one tenant's key
	// set and backlog cannot squeeze the others out of memory.
	MaxBytes int64
}

// DefaultTenantQueue is the default per-tenant admission-queue bound
// (input sets), overridable per tenant with WithTenantPolicy.
const DefaultTenantQueue = 64

// strideScale is the stride-scheduling quantum: a tenant's pass
// advances by strideScale/weight per dispatched job, so larger weights
// advance slower and win dispatch more often.
const strideScale = 1 << 20

type tenantQueue struct {
	name      string
	pol       TenantPolicy
	pass      uint64
	jobs      []*runJob
	inFlight  int
	completed int64 // dispatched jobs that finished executing (fairness tests)
	// liveBytes is the estimated working set of the tenant's queued and
	// executing jobs, charged at submit and released by done — the run
	// half of the MaxBytes budget (keys are charged by the caller).
	liveBytes int64

	// Cached obs children (set once in queueFor, immutable after): the
	// hot-path updates below are single atomic ops, never a vec lookup.
	mDepth     *obs.Gauge
	mLag       *obs.Gauge
	mQueued    *obs.Counter
	mCompleted *obs.Counter
}

type admitter struct {
	mu      sync.Mutex
	cond    *sync.Cond
	workers int
	def     TenantPolicy
	pinned  map[string]TenantPolicy
	queues  map[string]*tenantQueue

	// vtime is the pass of the last dispatched job: a tenant going from
	// idle to backlogged starts at max(its pass, vtime), so it competes
	// fairly from now on instead of bursting on its idle credit.
	vtime         uint64
	queuedTotal   int
	inFlightTotal int
	shedTotal     int64
	closed        bool

	m *serveMetrics
}

func newAdmitter(workers int, def TenantPolicy, pinned map[string]TenantPolicy, m *serveMetrics) *admitter {
	a := &admitter{
		workers: workers,
		def:     normalizePolicy(def, TenantPolicy{Weight: 1, MaxQueued: DefaultTenantQueue}),
		pinned:  make(map[string]TenantPolicy, len(pinned)),
		queues:  make(map[string]*tenantQueue),
		m:       m,
	}
	for name, pol := range pinned {
		a.pinned[name] = pol
	}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// normalizePolicy fills zero fields of p from def and clamps nonsense.
func normalizePolicy(p, def TenantPolicy) TenantPolicy {
	if p.Weight < 1 {
		p.Weight = def.Weight
	}
	if p.Weight < 1 {
		p.Weight = 1
	}
	if p.MaxInFlight < 0 {
		p.MaxInFlight = 0
	}
	if p.MaxInFlight == 0 {
		p.MaxInFlight = def.MaxInFlight
	}
	if p.MaxQueued < 1 {
		p.MaxQueued = def.MaxQueued
	}
	if p.MaxQueued < 1 {
		p.MaxQueued = DefaultTenantQueue
	}
	if p.MaxBytes <= 0 {
		p.MaxBytes = def.MaxBytes
	}
	if p.MaxBytes < 0 {
		p.MaxBytes = 0
	}
	return p
}

// queueFor returns (creating if needed) the tenant's queue. Caller
// holds a.mu.
func (a *admitter) queueFor(name string) *tenantQueue {
	tq, ok := a.queues[name]
	if !ok {
		tq = &tenantQueue{
			name:       name,
			pol:        normalizePolicy(a.pinned[name], a.def),
			mDepth:     a.m.queueDepth.With(name),
			mLag:       a.m.strideLag.With(name),
			mQueued:    a.m.queued.With(name),
			mCompleted: a.m.completed.With(name),
		}
		a.queues[name] = tq
	}
	return tq
}

// submit enqueues one request's jobs all-or-nothing. keyBytes is the
// tenant's registered key footprint and each job must carry its
// estimated run working set in job.bytes — together they are checked
// against TenantPolicy.MaxBytes. budget is the request's remaining
// deadline budget (0 = none); estNS the moving per-run estimate for
// its plan in nanoseconds (0 = unknown, no deadline shedding). Typed
// errors reject immediately: ErrOverloaded on a full queue,
// ErrResourceExhausted on a blown memory budget, ErrDeadlineExceeded
// on an unmeetable budget.
func (a *admitter) submit(name string, jobs []*runJob, keyBytes int64, budget time.Duration, estNS int64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return ErrServerClosed
	}
	tq := a.queueFor(name)
	if len(tq.jobs)+len(jobs) > tq.pol.MaxQueued {
		a.shedTotal++
		a.m.shed.With(name, "overloaded").Inc()
		return fmt.Errorf("%w: tenant %q admission queue holds %d of %d input sets",
			ErrOverloaded, name, len(tq.jobs), tq.pol.MaxQueued)
	}
	var runBytes int64
	for _, job := range jobs {
		runBytes += job.bytes
	}
	if tq.pol.MaxBytes > 0 && keyBytes+tq.liveBytes+runBytes > tq.pol.MaxBytes {
		a.shedTotal++
		a.m.shed.With(name, "memory").Inc()
		return fmt.Errorf("%w: tenant %q would hold %d bytes (keys %d + live runs %d + this request %d) of a %d-byte budget",
			ErrResourceExhausted, name, keyBytes+tq.liveBytes+runBytes, keyBytes, tq.liveBytes, runBytes, tq.pol.MaxBytes)
	}
	if budget > 0 && estNS > 0 {
		est := time.Duration(estNS)
		backlog := a.queuedTotal + a.inFlightTotal
		wait := time.Duration(backlog) * est / time.Duration(a.workers)
		waves := (len(jobs) + a.workers - 1) / a.workers
		need := wait + time.Duration(waves)*est
		if need > budget {
			a.shedTotal++
			a.m.shed.With(name, "deadline").Inc()
			return fmt.Errorf("%w: estimated %v queue wait + run time exceeds the %v budget (shed before queuing)",
				ErrDeadlineExceeded, need.Round(time.Microsecond), budget.Round(time.Microsecond))
		}
	}
	if len(tq.jobs) == 0 && tq.pass < a.vtime {
		tq.pass = a.vtime
	}
	tq.jobs = append(tq.jobs, jobs...)
	tq.liveBytes += runBytes
	a.queuedTotal += len(jobs)
	tq.mQueued.Add(uint64(len(jobs)))
	tq.mDepth.Set(float64(len(tq.jobs)))
	a.cond.Broadcast()
	return nil
}

// next blocks until a job is dispatchable and returns it with its
// tenant queue (pass done when execution finishes). It keeps draining
// queued jobs after close — their contexts are cancelled, so they
// error out fast — and returns ok=false only when closed and empty.
func (a *admitter) next() (*runJob, *tenantQueue, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		var best *tenantQueue
		for _, tq := range a.queues {
			if len(tq.jobs) == 0 {
				continue
			}
			if tq.pol.MaxInFlight > 0 && tq.inFlight >= tq.pol.MaxInFlight {
				continue
			}
			// Ties break by name so the dispatch order is deterministic
			// (map iteration is not).
			if best == nil || tq.pass < best.pass || (tq.pass == best.pass && tq.name < best.name) {
				best = tq
			}
		}
		if best != nil {
			job := best.jobs[0]
			best.jobs[0] = nil
			best.jobs = best.jobs[1:]
			if len(best.jobs) == 0 {
				best.jobs = nil // release the drained backing array
			}
			a.queuedTotal--
			best.inFlight++
			a.inFlightTotal++
			a.vtime = best.pass
			best.pass += strideScale / uint64(best.pol.Weight)
			best.mDepth.Set(float64(len(best.jobs)))
			// pass and vtime are monotonic uint64s; the signed difference
			// survives wraparound and reads as "how far ahead of the
			// scheduler's clock this tenant has been pushed".
			best.mLag.Set(float64(int64(best.pass - a.vtime)))
			return job, best, true
		}
		if a.closed && a.queuedTotal == 0 {
			return nil, nil, false
		}
		a.cond.Wait()
	}
}

// done releases the executor slot and memory charge (the job's
// submit-time byte estimate) a dispatched job occupied.
func (a *admitter) done(tq *tenantQueue, bytes int64) {
	a.mu.Lock()
	tq.inFlight--
	a.inFlightTotal--
	tq.completed++
	tq.liveBytes -= bytes
	if tq.liveBytes < 0 {
		tq.liveBytes = 0
	}
	a.cond.Broadcast()
	a.mu.Unlock()
}

// setPolicy installs a tenant policy at runtime: future submissions
// (including jobs already backlogged — the queue's policy pointer is
// swapped, not the queue) see the new weight, caps, and byte budget
// immediately. Zero fields select the server default, as at startup.
func (a *admitter) setPolicy(name string, pol TenantPolicy) {
	a.mu.Lock()
	a.pinned[name] = pol
	if tq, ok := a.queues[name]; ok {
		tq.pol = normalizePolicy(pol, a.def)
	}
	a.cond.Broadcast() // a raised MaxInFlight may unblock dispatch
	a.mu.Unlock()
}

// policyFor reports the effective (normalized) policy for a tenant.
func (a *admitter) policyFor(name string) TenantPolicy {
	a.mu.Lock()
	defer a.mu.Unlock()
	if tq, ok := a.queues[name]; ok {
		return tq.pol
	}
	return normalizePolicy(a.pinned[name], a.def)
}

// liveBytesFor reports the tenant's current admitted working set
// (test observability for the budget accounting).
func (a *admitter) liveBytesFor(name string) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if tq, ok := a.queues[name]; ok {
		return tq.liveBytes
	}
	return 0
}

// close stops admission; executors drain what is queued and exit.
func (a *admitter) close() {
	a.mu.Lock()
	a.closed = true
	a.cond.Broadcast()
	a.mu.Unlock()
}

// dropIdle forgets an evicted tenant's queue state if it is quiescent
// (a non-empty queue keeps its state until the jobs drain), and with it
// the tenant's per-tenant metric children.
func (a *admitter) dropIdle(name string) {
	a.mu.Lock()
	if tq, ok := a.queues[name]; ok && len(tq.jobs) == 0 && tq.inFlight == 0 {
		delete(a.queues, name)
		a.m.dropTenant(name)
	}
	a.mu.Unlock()
}

// snapshot reports queue occupancy for Stats.
func (a *admitter) snapshot() (queued int, shed int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queuedTotal, a.shedTotal
}

// tenantCompleted reports how many of a tenant's jobs finished
// executing (test observability for the fairness contract).
func (a *admitter) tenantCompleted(name string) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if tq, ok := a.queues[name]; ok {
		return tq.completed
	}
	return 0
}
