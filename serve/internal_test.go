package serve

// White-box units: registry reference counting, LRU cache mechanics,
// frame codec robustness, and the disconnect watcher.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"heax"
	"heax/obs"
)

func TestRegistryRefCountedEviction(t *testing.T) {
	r := newRegistry()
	evk := &heax.EvaluationKeySet{}
	if err := r.register("a", evk, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.register("a", evk, 0); !errors.Is(err, ErrTenantExists) {
		t.Fatalf("want ErrTenantExists, got %v", err)
	}
	e1, err := r.acquire("a") // a cached plan's reference
	if err != nil {
		t.Fatal(err)
	}
	e2, err := r.acquire("a") // an in-flight compile's reference
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatal("acquisitions must share the entry")
	}
	if err := r.unregister("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.acquire("a"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("acquire after eviction must fail, got %v", err)
	}
	if e1.retired {
		t.Fatal("keys retired while references are outstanding")
	}
	r.release(e1)
	if e1.retired {
		t.Fatal("keys retired before the last reference drained")
	}
	r.release(e2)
	if !e1.retired {
		t.Fatal("keys must retire when the last reference drains after eviction")
	}
	// The name is immediately reusable with fresh keys.
	if err := r.register("a", &heax.EvaluationKeySet{}, 0); err != nil {
		t.Fatal(err)
	}
	if r.len() != 1 {
		t.Fatalf("registry holds %d tenants, want 1", r.len())
	}
}

func TestPlanCacheLRU(t *testing.T) {
	c := newPlanCache(2, newServeMetrics(obs.NewRegistry()))
	mk := func(tenant string, b byte) *cachedPlan {
		var id PlanID
		id[0] = b
		return &cachedPlan{key: cacheKey{tenant: tenant, id: id}, tenant: &tenantEntry{name: tenant}}
	}
	p1, p2, p3 := mk("t", 1), mk("t", 2), mk("u", 3)
	if ev := c.add(p1); len(ev) != 0 {
		t.Fatal("no eviction expected")
	}
	if ev := c.add(p2); len(ev) != 0 {
		t.Fatal("no eviction expected")
	}
	// Touch p1 so p2 is the LRU victim.
	if _, ok := c.get(p1.key); !ok {
		t.Fatal("p1 must be cached")
	}
	ev := c.add(p3)
	if len(ev) != 1 || ev[0] != p2 {
		t.Fatalf("LRU eviction should retire p2, got %v", ev)
	}
	if _, ok := c.get(p2.key); ok {
		t.Fatal("p2 must be gone")
	}
	// Racing duplicate: the incumbent wins, the newcomer is returned
	// for release.
	dup := mk("t", 1)
	if ev := c.add(dup); len(ev) != 1 || ev[0] != dup {
		t.Fatal("duplicate add must retire the newcomer")
	}
	// purgeTenant removes only that tenant's plans.
	purged := c.purgeTenant("t")
	if len(purged) != 1 || purged[0] != p1 {
		t.Fatalf("purge of t should return p1, got %v", purged)
	}
	if c.len() != 1 {
		t.Fatalf("cache holds %d plans, want 1 (u)", c.len())
	}
}

func TestFrameCodec(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, reqParams, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(bytes.NewReader(buf.Bytes()), DefaultMaxFrame)
	if err != nil || typ != reqParams || string(payload) != "abc" {
		t.Fatalf("round trip: %v %v %q", typ, err, payload)
	}
	// Truncations inside the frame are corrupt; an empty stream is EOF.
	valid := buf.Bytes()
	for cut := 1; cut < len(valid); cut++ {
		_, _, err := readFrame(bytes.NewReader(valid[:cut]), DefaultMaxFrame)
		if err == nil {
			t.Fatalf("accepted truncation at %d", cut)
		}
	}
	// Bad magic.
	bad := append([]byte(nil), valid...)
	bad[0] ^= 0xff
	if _, _, err := readFrame(bytes.NewReader(bad), DefaultMaxFrame); !errors.Is(err, heax.ErrCorrupt) {
		t.Fatalf("bad magic must be ErrCorrupt, got %v", err)
	}
	// Oversized claim is rejected before allocation.
	huge := append([]byte(nil), valid[:5]...)
	huge = append(huge, 0xff, 0xff, 0xff, 0x7f)
	if _, _, err := readFrame(bytes.NewReader(huge), 1<<20); !errors.Is(err, heax.ErrCorrupt) {
		t.Fatalf("oversized frame must be ErrCorrupt, got %v", err)
	}
}

func TestPayloadReaderBounds(t *testing.T) {
	var pw payloadWriter
	if err := pw.str("tenant"); err != nil {
		t.Fatal(err)
	}
	pw.blob([]byte{1, 2, 3})
	pr := payloadReader{buf: pw.buf}
	if s, err := pr.str("name"); err != nil || s != "tenant" {
		t.Fatalf("%q %v", s, err)
	}
	if b, err := pr.blob("blob"); err != nil || len(b) != 3 {
		t.Fatalf("%v %v", b, err)
	}
	if err := pr.done("payload"); err != nil {
		t.Fatal(err)
	}
	// Trailing garbage is corrupt.
	pr = payloadReader{buf: append(pw.buf, 0)}
	pr.str("name")
	pr.blob("blob")
	if err := pr.done("payload"); !errors.Is(err, heax.ErrCorrupt) {
		t.Fatalf("trailing bytes must be ErrCorrupt, got %v", err)
	}
	// A blob length beyond the payload is corrupt, not an allocation.
	pr = payloadReader{buf: []byte{0xff, 0xff, 0xff, 0x7f}}
	if _, err := pr.blob("blob"); !errors.Is(err, heax.ErrCorrupt) {
		t.Fatalf("oversized blob must be ErrCorrupt, got %v", err)
	}
}

// TestWatchDisconnectCancels: closing the peer cancels the context;
// pipelined data or a quiet, live peer does not.
func TestWatchDisconnect(t *testing.T) {
	t.Run("peer close cancels", func(t *testing.T) {
		srv, cli := net.Pipe()
		defer srv.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		stop := watchDisconnect(srv, bufio.NewReader(srv), cancel)
		cli.Close()
		select {
		case <-ctx.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("disconnect did not cancel the context")
		}
		stop()
	})
	t.Run("live peer does not cancel", func(t *testing.T) {
		srv, cli := net.Pipe()
		defer srv.Close()
		defer cli.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		stop := watchDisconnect(srv, bufio.NewReader(srv), cancel)
		time.Sleep(20 * time.Millisecond)
		stop() // unblocks the peek via the read deadline
		if ctx.Err() != nil {
			t.Fatal("idle live peer must not cancel")
		}
	})
	t.Run("pipelined data does not cancel", func(t *testing.T) {
		srv, cli := net.Pipe()
		defer srv.Close()
		defer cli.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		br := bufio.NewReader(srv)
		stop := watchDisconnect(srv, br, cancel)
		go cli.Write([]byte{0x42})
		time.Sleep(20 * time.Millisecond)
		stop()
		if ctx.Err() != nil {
			t.Fatal("pipelined data must not cancel")
		}
		// The byte was peeked, not consumed.
		b, err := br.ReadByte()
		if err != nil || b != 0x42 {
			t.Fatalf("pipelined byte lost: %v %v", b, err)
		}
	})
}

// FuzzReadFrame: the frame reader must never panic or over-allocate on
// arbitrary bytes.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	writeFrame(&buf, reqRunEx, bytes.Repeat([]byte{7}, 32))
	valid := buf.Bytes()
	f.Add(valid)
	for _, cut := range []int{0, 4, 5, 8, 9, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := readFrame(bytes.NewReader(data), 1<<16)
		if err != nil {
			return
		}
		if len(payload) > 1<<16 {
			t.Fatalf("frame reader over-allocated %d bytes", len(payload))
		}
		_ = typ
	})
}

// FuzzHandleCompilePayload: the compile handler must reject arbitrary
// payloads with typed errors, never panic — it is the most
// parse-heavy request (string + JSON DAG + compilation).
func FuzzHandleCompilePayload(f *testing.F) {
	params := heax.MustParams(heax.ParamSpec{Name: "fuzz", LogN: 4, QBits: []int{30, 30}, PBits: 31, LogScale: 20})
	s, err := NewServer(params, WithAdmissionWindow(1))
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	kg := heax.NewKeyGenerator(params, 2)
	sk := kg.GenSecretKey()
	if err := s.reg.register("t", heax.GenEvaluationKeys(kg, sk, []int{1}, false), 0); err != nil {
		f.Fatal(err)
	}
	c := heax.NewCircuit()
	c.Output("y", c.Rotate(c.Input("x"), 1))
	dag, err := c.MarshalJSON()
	if err != nil {
		f.Fatal(err)
	}
	var pw payloadWriter
	pw.str("t")
	pw.blob(dag)
	f.Add(pw.buf)
	f.Add(pw.buf[:len(pw.buf)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s.handleCompile(data) // must not panic
	})
}

// TestRegistryRetainAcrossEviction: a run's retain keeps a specific
// entry alive across unregister; retain after the references drain
// fails.
func TestRegistryRetainAcrossEviction(t *testing.T) {
	r := newRegistry()
	if err := r.register("a", &heax.EvaluationKeySet{}, 0); err != nil {
		t.Fatal(err)
	}
	e, err := r.acquire("a") // the cached plan's reference
	if err != nil {
		t.Fatal(err)
	}
	if !r.retain(e) { // an in-flight run's reference
		t.Fatal("retain on a live entry must succeed")
	}
	if err := r.unregister("a"); err != nil {
		t.Fatal(err)
	}
	r.release(e) // the cached plan is purged
	if e.retired {
		t.Fatal("keys retired while a run still holds them")
	}
	r.release(e) // the run finishes
	if !e.retired {
		t.Fatal("keys must retire once the run's reference drains")
	}
	if r.retain(e) {
		t.Fatal("retain on a drained entry must fail")
	}
}
