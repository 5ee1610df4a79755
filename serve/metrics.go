package serve

// The serve layer's obs instrumentation: one serveMetrics bundle per
// server, registered on a single obs.Registry (the server's own by
// default, or one supplied with WithMetricsRegistry — a registry can
// back at most one server, family names collide otherwise).
//
// Naming scheme: heax_serve_* for the daemon (admission, cache,
// registry, run latency), heax_plan_* for the plan executor (per-step
// latency via the Tracer seam). Counters end in _total; histograms in
// _seconds. Per-tenant children are deleted when a tenant is evicted
// and idle, so label cardinality tracks the live tenant set.
//
// Overhead discipline: every hot-path update goes through an
// instrument pointer cached at tenant-queue or cached-plan creation
// (obs children allocate only in With), so admission and run
// accounting add a handful of atomic ops per job and zero allocations.

import (
	"encoding/hex"
	"time"

	"heax"
	"heax/obs"
)

type serveMetrics struct {
	reg *obs.Registry

	// Admission (per tenant; children cached on tenantQueue).
	queueDepth *obs.GaugeVec   // heax_serve_queue_depth
	strideLag  *obs.GaugeVec   // heax_serve_stride_pass_lag
	queued     *obs.CounterVec // heax_serve_runs_queued_total
	completed  *obs.CounterVec // heax_serve_runs_completed_total
	shed       *obs.CounterVec // heax_serve_runs_shed_total{tenant,reason}

	// Plan cache (Stats reads these too).
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter

	// Run outcomes.
	runSeconds *obs.HistogramVec // heax_serve_run_seconds{tenant,plan}
	canceled   *obs.Counter
	dedupHits  *obs.CounterVec
	panics     *obs.Counter

	// Plan executor step latency, fed through the heax.Tracer seam.
	tracer *stepTracer
}

func newServeMetrics(r *obs.Registry) *serveMetrics {
	m := &serveMetrics{
		reg: r,
		queueDepth: r.NewGaugeVec("heax_serve_queue_depth",
			"Input sets queued at admission, per tenant.", "tenant"),
		strideLag: r.NewGaugeVec("heax_serve_stride_pass_lag",
			"Tenant stride pass minus global virtual time at last dispatch; persistent positive lag means the tenant is outpacing its weight.", "tenant"),
		queued: r.NewCounterVec("heax_serve_runs_queued_total",
			"Input sets accepted into the admission queue.", "tenant"),
		completed: r.NewCounterVec("heax_serve_runs_completed_total",
			"Input sets executed to completion.", "tenant"),
		shed: r.NewCounterVec("heax_serve_runs_shed_total",
			"Requests rejected at admission, by reason (overloaded, memory, deadline).", "tenant", "reason"),
		cacheHits: r.NewCounter("heax_serve_plan_cache_hits_total",
			"Compile requests answered from the plan cache."),
		cacheMisses: r.NewCounter("heax_serve_plan_cache_misses_total",
			"Compile requests that missed the plan cache."),
		cacheEvictions: r.NewCounter("heax_serve_plan_cache_evictions_total",
			"Plans evicted from the cache (capacity or tenant eviction)."),
		runSeconds: r.NewHistogramVec("heax_serve_run_seconds",
			"Wall time of one successfully executed input set.",
			obs.ExpBuckets(0.001, 2, 16), "tenant", "plan"),
		canceled: r.NewCounter("heax_serve_runs_canceled_total",
			"Input sets canceled or expired before completion."),
		dedupHits: r.NewCounterVec("heax_serve_dedup_hits_total",
			"Retried runs answered from the dedup cache instead of re-executed.", "tenant"),
		panics: r.NewCounter("heax_serve_panics_recovered_total",
			"Panics caught at a recover boundary and converted to ErrInternal."),
	}
	m.tracer = newStepTracer(r)
	return m
}

// dropTenant removes a tenant's per-tenant admission children once the
// tenant is evicted and idle, bounding label cardinality to the live
// tenant set. Shed-reason and dedup children go too.
func (m *serveMetrics) dropTenant(name string) {
	m.queueDepth.Delete(name)
	m.strideLag.Delete(name)
	m.queued.Delete(name)
	m.completed.Delete(name)
	m.dedupHits.Delete(name)
	for _, reason := range shedReasons {
		m.shed.Delete(name, reason)
	}
}

var shedReasons = [...]string{"overloaded", "memory", "deadline"}

// planTag renders a plan id as a bounded metric label: the first 8
// digest bytes in hex (collision odds are irrelevant for monitoring,
// and full 64-char labels bloat every sample line).
func planTag(id PlanID) string { return hex.EncodeToString(id[:8]) }

// stepTracer implements heax.Tracer on top of an obs histogram vec
// labeled by step kind. Children are pre-registered for every kind at
// construction, so ObserveStep is a map lookup plus one histogram
// observation — no allocation on the kernel path.
type stepTracer struct {
	byKind map[string]*obs.Histogram
}

func newStepTracer(r *obs.Registry) *stepTracer {
	vec := r.NewHistogramVec("heax_plan_step_seconds",
		"Kernel wall time of one executed plan step, by step kind.",
		obs.ExpBuckets(0.0001, 2, 16), "kind")
	t := &stepTracer{byKind: make(map[string]*obs.Histogram)}
	for _, kind := range heax.StepKinds() {
		t.byKind[kind] = vec.With(kind)
	}
	return t
}

// ObserveStep implements heax.Tracer.
func (t *stepTracer) ObserveStep(kind string, d time.Duration) {
	if h, ok := t.byKind[kind]; ok {
		h.Observe(d.Seconds())
	}
}
