package serve

// The compiled-plan cache: LRU-bounded, keyed by (tenant, digest of
// the canonicalized circuit DAG). Hitting the cache skips parsing,
// validation and compilation entirely — the compile-once / run-many
// contract across connections and sessions of a tenant. A cached plan
// keeps its tenant's keys reachable, and removeLocked is the one place
// a cached plan is torn down (capacity, tenant eviction or staleness).

import (
	"container/list"
	"crypto/sha256"
	"sync"
	"sync/atomic"
	"time"

	"heax"
	"heax/obs"
)

// PlanID names a cached plan: the SHA-256 digest of the canonical
// (decode → re-encode) JSON of its circuit DAG. Identical circuits
// submitted by different tenants share an id but never a cache entry —
// entries are keyed by tenant too, because the compiled plan embeds
// tenant keys.
type PlanID [sha256.Size]byte

func digestCircuit(canonical []byte) PlanID { return sha256.Sum256(canonical) }

type cacheKey struct {
	tenant string
	id     PlanID
}

type cachedPlan struct {
	key    cacheKey
	plan   *heax.Plan
	tenant *tenantEntry // the registration the plan was compiled against
	steps  int
	// hist is the plan's run-latency histogram child
	// (heax_serve_run_seconds{tenant,plan}), cached at compile so the
	// executor's success path observes without a vec lookup.
	hist *obs.Histogram
	// tag is the plan id rendered once as its metric label value.
	tag string
	// estNS is a moving estimate (EWMA, α=¼) of one input set's run
	// time through this plan, fed back by the executors and consumed by
	// the admitter's deadline shedding. 0 = no completed run yet.
	estNS atomic.Int64
}

// observe folds a completed run's duration into the moving estimate.
func (cp *cachedPlan) observe(d time.Duration) {
	old := cp.estNS.Load()
	if old == 0 {
		cp.estNS.Store(int64(d))
		return
	}
	cp.estNS.Store(old + (int64(d)-old)/4)
}

type planCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	byKey map[cacheKey]*list.Element

	// Hits, misses and evictions are counted once, on m's obs counters,
	// which both Stats and a /metrics scrape read.
	m *serveMetrics
}

func newPlanCache(capacity int, m *serveMetrics) *planCache {
	if capacity < 1 {
		capacity = 1
	}
	return &planCache{cap: capacity, order: list.New(), byKey: make(map[cacheKey]*list.Element), m: m}
}

// get returns the cached plan and refreshes its recency, counting the
// outcome. Only compile-path lookups call get — a hit rate diluted by
// executeRun's per-request plan fetches would measure protocol traffic,
// not cache effectiveness; those use lookup.
func (c *planCache) get(key cacheKey) (*cachedPlan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.m.cacheMisses.Inc()
		return nil, false
	}
	c.m.cacheHits.Inc()
	c.order.MoveToFront(el)
	return el.Value.(*cachedPlan), true
}

// lookup is get without hit/miss accounting (run-path plan fetches).
func (c *planCache) lookup(key cacheKey) (*cachedPlan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cachedPlan), true
}

// add inserts a plan and evicts the least recently used plans past the
// capacity bound. If two connections compiled the same circuit
// concurrently, the incumbent stays, and with it the run-latency series
// the two share; the newcomer is dropped.
func (c *planCache) add(cp *cachedPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[cp.key]; ok {
		c.order.MoveToFront(el)
		return
	}
	c.byKey[cp.key] = c.order.PushFront(cp)
	for c.order.Len() > c.cap {
		c.removeLocked(c.order.Back())
	}
}

// removeEntry drops one specific cached plan (pointer identity, so a
// fresh entry that reused the key after a re-registration is left
// alone).
func (c *planCache) removeEntry(cp *cachedPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[cp.key]; ok && el.Value.(*cachedPlan) == cp {
		c.removeLocked(el)
	}
}

// purgeTenant drops every plan of a tenant (on eviction).
func (c *planCache) purgeTenant(tenant string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*cachedPlan).key.tenant == tenant {
			c.removeLocked(el)
		}
		el = next
	}
}

// removeLocked tears a cached plan down: it leaves the cache, the
// eviction is counted, and its heax_serve_run_seconds series is
// deleted. Runs already holding the plan finish on it. Caller holds
// c.mu.
func (c *planCache) removeLocked(el *list.Element) {
	cp := el.Value.(*cachedPlan)
	c.order.Remove(el)
	delete(c.byKey, cp.key)
	c.m.cacheEvictions.Inc()
	c.m.runSeconds.Delete(cp.key.tenant, cp.tag)
}

func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
