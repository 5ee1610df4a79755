package serve

// The compiled-plan cache: LRU-bounded, keyed by (tenant, digest of
// the canonicalized circuit DAG). Hitting the cache skips parsing,
// validation and compilation entirely — the compile-once / run-many
// contract across connections and sessions of a tenant. Each cached
// plan holds one reference on its tenant's key registry entry;
// eviction (capacity or tenant eviction) releases it.

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
	tenant *tenantEntry // the registry reference this plan holds
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

// add inserts a plan (replacing any racing duplicate) and returns the
// entries evicted to respect the capacity bound, so the caller can
// release their registry references outside the cache lock.
func (c *planCache) add(cp *cachedPlan) (evicted []*cachedPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[cp.key]; ok {
		// Two connections compiled the same circuit concurrently; keep
		// the incumbent and retire the newcomer.
		c.order.MoveToFront(el)
		return []*cachedPlan{cp}
	}
	c.byKey[cp.key] = c.order.PushFront(cp)
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		old := oldest.Value.(*cachedPlan)
		delete(c.byKey, old.key)
		c.m.cacheEvictions.Inc()
		evicted = append(evicted, old)
	}
	return evicted
}

// removeEntry drops one specific cached plan (pointer identity, so a
// fresh entry that reused the key after a re-registration is left
// alone) and reports whether it was present.
func (c *planCache) removeEntry(cp *cachedPlan) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[cp.key]
	if !ok || el.Value.(*cachedPlan) != cp {
		return false
	}
	c.order.Remove(el)
	delete(c.byKey, cp.key)
	c.m.cacheEvictions.Inc()
	return true
}

// purgeTenant drops every plan of a tenant (on eviction) and returns
// them for reference release.
func (c *planCache) purgeTenant(tenant string) (purged []*cachedPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		cp := el.Value.(*cachedPlan)
		if cp.key.tenant == tenant {
			c.order.Remove(el)
			delete(c.byKey, cp.key)
			c.m.cacheEvictions.Inc()
			purged = append(purged, cp)
		}
		el = next
	}
	return purged
}

func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
