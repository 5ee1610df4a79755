package serve

// The tenant key registry: uploaded evaluation key sets with
// ref-counted eviction. A tenant entry is referenced by its
// registration, by every cached plan compiled against its keys, and by
// every in-flight compile; Unregister drops the registration reference
// and bars new acquisitions, but the keys stay live until the last
// holder releases them — eviction never pulls key material out from
// under a plan.
//
// Refcount invariant violations (an over-release, a drain to zero
// while the registration still stands) are bugs, but they are not
// allowed to be fatal: release reports them as errors wrapping
// ErrInternal and counts them (Stats.RefcountBugs), so a bookkeeping
// bug degrades the one request that tripped it instead of panicking
// the daemon out from under every tenant.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"heax"
)

type registry struct {
	mu      sync.Mutex
	tenants map[string]*tenantEntry
	// bugs counts refcount invariant violations caught (and survived)
	// by release.
	bugs atomic.Int64
}

// tenantEntry is one tenant's uploaded key set.
type tenantEntry struct {
	name string
	evk  *heax.EvaluationKeySet
	// keyBytes is the serialized size of the uploaded key set, which is
	// also what evk occupies in memory (framing aside); charged against
	// TenantPolicy.MaxBytes.
	keyBytes int64

	// refs counts the registration itself plus one per holder (cached
	// plan or in-flight compile); guarded by the registry mutex.
	refs int
	// gone marks an unregistered tenant: no new acquisitions, entry
	// retired when refs drains to zero.
	gone bool
	// retired flips exactly once, when the last reference goes — the
	// observable end of the key lifecycle (asserted by tests; a real
	// deployment could hook secure key destruction here).
	retired bool
}

func newRegistry() *registry {
	return &registry{tenants: make(map[string]*tenantEntry)}
}

// register binds a key set (of keyBytes serialized bytes) to a fresh
// tenant name.
func (r *registry) register(name string, evk *heax.EvaluationKeySet, keyBytes int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.tenants[name]; ok {
		return fmt.Errorf("%w: %q", ErrTenantExists, name)
	}
	r.tenants[name] = &tenantEntry{name: name, evk: evk, keyBytes: keyBytes, refs: 1}
	return nil
}

// has reports whether a name is currently registered.
func (r *registry) has(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.tenants[name]
	return ok
}

// acquire takes a reference on a live tenant's keys.
func (r *registry) acquire(name string) (*tenantEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.tenants[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	e.refs++
	return e, nil
}

// release returns a reference taken by acquire (or held by a cached
// plan); the entry is retired when the registration is gone and the
// last reference drains. A refcount invariant violation is counted and
// reported as an error wrapping ErrInternal — the release is refused,
// never amplified into a panic or a double retire.
func (r *registry) release(e *tenantEntry) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.releaseLocked(e)
}

func (r *registry) releaseLocked(e *tenantEntry) error {
	if e.refs <= 0 {
		r.bugs.Add(1)
		return fmt.Errorf("%w: tenant %q key reference over-released", ErrInternal, e.name)
	}
	if e.refs == 1 && !e.gone {
		r.bugs.Add(1)
		return fmt.Errorf("%w: tenant %q registration reference released without unregister", ErrInternal, e.name)
	}
	e.refs--
	if e.refs == 0 {
		e.retired = true
	}
	return nil
}

// live reports whether e is still the current registration of its
// name — a cached plan whose entry is no longer live belongs to an
// evicted (possibly re-registered) tenant and must not be served.
func (r *registry) live(e *tenantEntry) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tenants[e.name] == e
}

// retain takes an additional reference on a specific entry (not a
// name: after re-registration the name resolves to a different entry)
// if its references have not already drained. A run holds one for its
// whole duration, so eviction mid-run never retires the keys under it.
func (r *registry) retain(e *tenantEntry) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.refs == 0 {
		return false
	}
	e.refs++
	return true
}

// unregister evicts a tenant: the name is freed immediately (a new
// registration under the same name gets a fresh entry), the keys stay
// live for current holders.
func (r *registry) unregister(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.tenants[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	delete(r.tenants, name)
	e.gone = true
	return r.releaseLocked(e) // the registration's own reference
}

func (r *registry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.tenants)
}

// keyBytes reports the key footprint — serialized and, framing aside,
// resident — of every currently registered tenant: the registration
// half of the MaxBytes budget.
// Keys kept live past unregister by in-flight holders are excluded:
// this is the admitted footprint, not the transient one.
func (r *registry) keyBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for _, e := range r.tenants {
		total += e.keyBytes
	}
	return total
}
