package serve

// Targeted concurrency tests (run under -race in CI) for two seams
// the chaos harness only grazes:
//
//   - dedup.go: retries joining an in-flight execution while the
//     completed-entry LRU is churning underneath them — a pinned
//     in-flight entry must never be evicted out from under a joiner,
//     and an error completion must hand exactly one re-claimant
//     ownership;
//   - admission.go: a tenant policy updated at runtime while the
//     tenant's backlog is draining — the already-queued jobs drain
//     under their original charges, new submissions see the new
//     policy immediately, and none of the accounting tears.

import (
	"context"
	"errors"
	"sync"
	"testing"

	"heax"
	"heax/obs"
)

// TestDedupInFlightJoinRacesEviction: joiners pile onto one in-flight
// request id while churn goroutines complete enough other entries to
// cycle the 2-entry LRU many times over. The pinned in-flight entry
// must survive every eviction sweep, and when the owner completes,
// every joiner must observe the owner's exact output batches.
func TestDedupInFlightJoinRacesEviction(t *testing.T) {
	d := newDedupCache(2)
	hot := dedupKey{tenant: "t", id: requestID{1}}
	e, owner := d.claim(hot)
	if !owner {
		t.Fatal("first claim must own the entry")
	}

	const joiners, churners, churnPerG = 8, 4, 200
	want := []map[string]*heax.Ciphertext{{"y": {Scale: 42}}}
	var wg, claimed sync.WaitGroup
	claimed.Add(joiners)
	for j := 0; j < joiners; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			je, jOwner := d.claim(hot)
			claimed.Done()
			if jOwner {
				t.Error("a joiner stole ownership of an in-flight entry")
				return
			}
			<-je.done
			if je.err != nil || len(je.out) != 1 || je.out[0]["y"] != want[0]["y"] {
				t.Errorf("joiner observed out=%v err=%v, want the owner's outputs", je.out, je.err)
			}
		}()
	}
	// Churn: complete many distinct entries so the LRU evicts
	// constantly, and purge a foreign tenant for good measure.
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < churnPerG; i++ {
				key := dedupKey{tenant: "churn", id: requestID{2, byte(c), byte(i), byte(i >> 8)}}
				ce, cOwner := d.claim(key)
				if cOwner {
					d.complete(ce, []map[string]*heax.Ciphertext{{"y": {Level: i}}}, nil)
				}
				if i%16 == 0 {
					d.purgeTenant("other")
					d.len()
				}
			}
		}(c)
	}
	// Complete only after every joiner has joined the pinned entry (a
	// completed entry enters the LRU and may be evicted by the churn; a
	// claim after that would rightfully own a fresh execution).
	claimed.Wait()
	d.complete(e, want, nil)
	wg.Wait()
	if got := d.len(); got > 2 {
		t.Fatalf("dedup cache holds %d entries, capacity 2 — eviction lost to the churn", got)
	}

	// Error completions are not cached: after the owner of a fresh id
	// fails, exactly one concurrent re-claimant must win ownership.
	cold := dedupKey{tenant: "t", id: requestID{3}}
	ce, _ := d.claim(cold)
	d.complete(ce, nil, errors.New("transient"))
	var owners int
	var mu sync.Mutex
	for j := 0; j < joiners; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			re, rOwner := d.claim(cold)
			if rOwner {
				mu.Lock()
				owners++
				mu.Unlock()
				d.complete(re, want, nil)
			} else {
				<-re.done
			}
		}()
	}
	wg.Wait()
	if owners != 1 {
		t.Fatalf("%d goroutines claimed ownership after an error completion, want exactly 1", owners)
	}
}

// TestAdmitterPolicyUpdateMidBacklog: a backlog queued under a
// permissive policy keeps draining while setPolicy installs a tight
// byte budget and a new weight; submissions racing the update are
// either admitted (and charged) or shed typed, new submissions over
// the budget shed with ErrResourceExhausted, and once the backlog
// drains the books are exactly zero.
func TestAdmitterPolicyUpdateMidBacklog(t *testing.T) {
	const jobBytes, backlog = 100, 64
	adm := newAdmitter(2, TenantPolicy{MaxQueued: 1 << 10}, nil, newServeMetrics(obs.NewRegistry()))
	mk := func(n int) []*runJob {
		jobs := make([]*runJob, n)
		for i := range jobs {
			jobs[i] = &runJob{ctx: context.Background(), bytes: jobBytes, wg: &sync.WaitGroup{}}
		}
		return jobs
	}
	if err := adm.submit("t", mk(backlog), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := adm.liveBytesFor("t"); got != jobBytes*backlog {
		t.Fatalf("liveBytes = %d after submit, want %d", got, jobBytes*backlog)
	}

	// Tighten the policy while the backlog drains, from a racing
	// goroutine; the submitter keeps probing and must only ever see
	// clean admission or a typed shed.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < backlog; i++ {
			if i == backlog/4 {
				adm.setPolicy("t", TenantPolicy{Weight: 4, MaxBytes: jobBytes * 4})
			}
			err := adm.submit("t", mk(1), 0, 0, 0)
			if err != nil && !errors.Is(err, ErrResourceExhausted) {
				t.Errorf("racing submit: want nil or ErrResourceExhausted, got %v", err)
				return
			}
			if err == nil {
				adm.liveBytesFor("t") // exercise the read path under race
			}
		}
	}()
	drained := 0
	for {
		job, tq, ok := adm.next()
		if !ok {
			t.Fatal("admitter closed unexpectedly")
		}
		adm.done(tq, job.bytes)
		drained++
		// Stop once the queue is visibly empty and the submitter exited.
		adm.mu.Lock()
		empty := adm.queuedTotal == 0
		adm.mu.Unlock()
		if empty && drained >= backlog {
			break
		}
	}
	wg.Wait()
	// Drain whatever the racing submitter got admitted after our break.
	for {
		adm.mu.Lock()
		left := adm.queuedTotal
		adm.mu.Unlock()
		if left == 0 {
			break
		}
		job, tq, _ := adm.next()
		adm.done(tq, job.bytes)
	}

	if got := adm.liveBytesFor("t"); got != 0 {
		t.Fatalf("liveBytes = %d after full drain, want 0", got)
	}
	if pol := adm.policyFor("t"); pol.Weight != 4 || pol.MaxBytes != jobBytes*4 {
		t.Fatalf("policy after update = %+v, want Weight 4, MaxBytes %d", pol, jobBytes*4)
	}
	// The tight budget now rejects a submission that would exceed it...
	if err := adm.submit("t", mk(5), 0, 0, 0); !errors.Is(err, ErrResourceExhausted) {
		t.Fatalf("5 jobs × %d bytes against a %d-byte budget must shed, got %v", jobBytes, jobBytes*4, err)
	}
	// ...admits one that fits, and charges key bytes against the same pot.
	if err := adm.submit("t", mk(4), 0, 0, 0); err != nil {
		t.Fatalf("4 jobs exactly at budget must admit, got %v", err)
	}
	for i := 0; i < 4; i++ {
		job, tq, _ := adm.next()
		adm.done(tq, job.bytes)
	}
	if err := adm.submit("t", mk(4), 1, 0, 0); !errors.Is(err, ErrResourceExhausted) {
		t.Fatalf("key bytes must count against the budget, got %v", err)
	}
}
