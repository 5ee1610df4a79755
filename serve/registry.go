package serve

// The tenant key registry: a name → uploaded evaluation key set map.
// Key lifetime belongs to the garbage collector. A cached plan holds
// its tenant entry, and a run holds its cached plan, so Unregister only
// frees the name: the keys stay reachable for as long as a cached plan
// or an in-flight run uses them, and become garbage once neither does.
// Eviction therefore never pulls key material out from under a plan.

import (
	"fmt"
	"sync"

	"heax"
)

type registry struct {
	mu      sync.Mutex
	tenants map[string]*tenantEntry
}

// tenantEntry is one tenant's uploaded key set.
type tenantEntry struct {
	name string
	evk  *heax.EvaluationKeySet
	// keyBytes is the serialized size of the uploaded key set, which is
	// also what evk occupies in memory (framing aside); charged against
	// TenantPolicy.MaxBytes.
	keyBytes int64
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
	r.tenants[name] = &tenantEntry{name: name, evk: evk, keyBytes: keyBytes}
	return nil
}

// get returns a name's current registration.
func (r *registry) get(name string) (*tenantEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.tenants[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	return e, nil
}

// live reports whether e is still the current registration of its
// name — a cached plan whose entry is no longer live belongs to an
// evicted (possibly re-registered) tenant and must not be served.
func (r *registry) live(e *tenantEntry) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tenants[e.name] == e
}

// unregister frees a tenant's name: a new registration under it gets a
// fresh entry, and the old keys live on only in their current holders.
func (r *registry) unregister(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.tenants[name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	delete(r.tenants, name)
	return nil
}

func (r *registry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.tenants)
}

// keyBytes reports the key footprint — serialized and, framing aside,
// resident — of every currently registered tenant: the registration
// half of the MaxBytes budget.
// Keys kept reachable past unregister by in-flight holders are
// excluded: this is the admitted footprint, not the transient one.
func (r *registry) keyBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for _, e := range r.tenants {
		total += e.keyBytes
	}
	return total
}
