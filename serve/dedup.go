package serve

// The retry dedup cache: the server side of the client's idempotent
// Run retry. Every extended Run request may carry a client-generated
// 16-byte request id; the first arrival claims the id and executes,
// and a retry of the same id — after a connection drop ate the
// response — either joins the in-flight execution or is answered from
// the cached outputs. A Run is therefore never executed to
// completion twice: the only re-execution is of an attempt that was
// cancelled mid-run (deterministic FHE compute, so a re-run is merely
// repeated work, and the aborted attempt produced nothing).
//
// Only successful responses are cached (errors are not idempotency
// decisions), in-flight entries are pinned (never evicted, so a
// concurrent retry can always join rather than double-execute), and
// completed entries live in a bounded LRU. Entries hold the run's
// output batches themselves — the memory the run produced, not an
// encoded copy; every answer, first or replayed, goes through the one
// streaming response encoder, and the batches are only ever read once
// cached. They hold no registry or plan-cache references, so the dedup
// layer cannot leak key material.

import (
	"container/list"
	"sync"

	"heax"
)

type requestID [16]byte

type dedupKey struct {
	tenant string
	id     requestID
}

type dedupEntry struct {
	key  dedupKey
	done chan struct{} // closed when the owning execution completes
	// out is the run's output batches, valid after done if err == nil
	// and read-only from then on (several connections may encode them
	// at once).
	out []map[string]*heax.Ciphertext
	err error
	// purged marks entries whose tenant was evicted while the run was
	// in flight: the stale-key result must not be cached for a retry
	// under a fresh registration of the same name.
	purged bool
	elem   *list.Element // non-nil once completed and cached
}

type dedupCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // completed entries, front = most recent
	byKey map[dedupKey]*dedupEntry
}

func newDedupCache(capacity int) *dedupCache {
	if capacity < 1 {
		capacity = 1
	}
	return &dedupCache{cap: capacity, order: list.New(), byKey: make(map[dedupKey]*dedupEntry)}
}

// claim returns the entry for key and whether the caller owns it (must
// execute and complete it). A non-owner waits on entry.done.
func (d *dedupCache) claim(key dedupKey) (*dedupEntry, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.byKey[key]; ok {
		if e.elem != nil {
			d.order.MoveToFront(e.elem)
		}
		return e, false
	}
	e := &dedupEntry{key: key, done: make(chan struct{})}
	d.byKey[key] = e
	return e, true
}

// complete finishes an owned entry: a successful run's outputs are cached
// (evicting the oldest completed entries beyond capacity), an error —
// cancellation, shed, anything — is handed to current joiners but not
// cached, so a later retry re-executes rather than replaying a
// transient failure.
func (d *dedupCache) complete(e *dedupEntry, out []map[string]*heax.Ciphertext, err error) {
	d.mu.Lock()
	e.out, e.err = out, err
	if err != nil || e.purged {
		if d.byKey[e.key] == e {
			delete(d.byKey, e.key)
		}
	} else {
		e.elem = d.order.PushFront(e)
		for d.order.Len() > d.cap {
			oldest := d.order.Back()
			d.order.Remove(oldest)
			old := oldest.Value.(*dedupEntry)
			old.elem = nil
			if d.byKey[old.key] == old {
				delete(d.byKey, old.key)
			}
		}
	}
	d.mu.Unlock()
	close(e.done)
}

// drop forgets a completed entry if it is still current (a joiner saw
// its error and wants a fresh claim to re-execute).
func (d *dedupCache) drop(e *dedupEntry) {
	d.mu.Lock()
	if d.byKey[e.key] == e {
		delete(d.byKey, e.key)
		if e.elem != nil {
			d.order.Remove(e.elem)
			e.elem = nil
		}
	}
	d.mu.Unlock()
}

// purgeTenant drops a tenant's completed entries and poisons its
// in-flight ones (eviction means fresh keys may reuse the name; a
// request id must never resolve to a result under evicted keys).
func (d *dedupCache) purgeTenant(tenant string) {
	d.mu.Lock()
	for key, e := range d.byKey {
		if key.tenant != tenant {
			continue
		}
		if e.elem != nil {
			d.order.Remove(e.elem)
			e.elem = nil
			delete(d.byKey, key)
		} else {
			e.purged = true
		}
	}
	d.mu.Unlock()
}

func (d *dedupCache) len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.byKey)
}
