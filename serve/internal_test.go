package serve

// White-box units: registry eviction, LRU cache mechanics,
// frame codec robustness, and the disconnect watcher.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"regexp"
	"slices"
	"testing"
	"time"

	"heax"
	"heax/obs"
)

// TestRegistryUnregisterFreesName: unregister frees the name at once;
// an entry already handed out keeps its keys but is no longer live, and
// a re-registration under the name gets a fresh entry.
func TestRegistryUnregisterFreesName(t *testing.T) {
	r := newRegistry()
	evk := &heax.EvaluationKeySet{}
	if err := r.register("a", evk, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.register("a", evk, 0); !errors.Is(err, ErrTenantExists) {
		t.Fatalf("want ErrTenantExists, got %v", err)
	}
	e, err := r.get("a") // what a cached plan holds
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := r.get("a"); again != e || !r.live(e) {
		t.Fatal("gets of one registration must share its live entry")
	}
	if err := r.unregister("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.get("a"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("get after eviction must fail, got %v", err)
	}
	if err := r.unregister("a"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("second unregister must fail, got %v", err)
	}
	if r.live(e) || e.evk != evk {
		t.Fatal("an evicted entry must be dead to the registry and untouched for its holder")
	}
	// The name is immediately reusable with fresh keys.
	if err := r.register("a", &heax.EvaluationKeySet{}, 0); err != nil {
		t.Fatal(err)
	}
	fresh, err := r.get("a")
	if err != nil || fresh == e || r.live(e) || !r.live(fresh) {
		t.Fatalf("re-registration must bind a fresh live entry (err %v)", err)
	}
	if r.len() != 1 {
		t.Fatalf("registry holds %d tenants, want 1", r.len())
	}
}

// TestPlanCacheLRU: capacity eviction takes the least recently used
// plan, a duplicate add keeps the incumbent, purgeTenant and removeEntry
// take exactly their plans — and each removal deletes the removed plan's
// run-latency series and no other.
func TestPlanCacheLRU(t *testing.T) {
	reg := obs.NewRegistry()
	m := newServeMetrics(reg)
	c := newPlanCache(2, m)
	mk := func(tenant string, b byte) *cachedPlan {
		var id PlanID
		id[0] = b
		cp := &cachedPlan{key: cacheKey{tenant: tenant, id: id}, tenant: &tenantEntry{name: tenant}, tag: planTag(id)}
		cp.hist = m.runSeconds.With(tenant, cp.tag)
		return cp
	}
	runSeries := regexp.MustCompile(`heax_serve_run_seconds_count\{tenant="([^"]*)",plan="([0-9a-f]*)"\}`)
	check := func(step string, evictions uint64, want ...*cachedPlan) {
		t.Helper()
		if c.len() != len(want) {
			t.Fatalf("%s: cache holds %d plans, want %d", step, c.len(), len(want))
		}
		var wantSeries []string
		for _, cp := range want {
			if got, ok := c.lookup(cp.key); !ok || got != cp {
				t.Fatalf("%s: plan %s/%s not cached as itself", step, cp.key.tenant, cp.tag)
			}
			wantSeries = append(wantSeries, cp.key.tenant+"/"+cp.tag)
		}
		var exp bytes.Buffer
		reg.WriteTo(&exp)
		var gotSeries []string
		for _, sm := range runSeries.FindAllStringSubmatch(exp.String(), -1) {
			gotSeries = append(gotSeries, sm[1]+"/"+sm[2])
		}
		slices.Sort(wantSeries)
		if !slices.Equal(gotSeries, wantSeries) {
			t.Fatalf("%s: run-latency series %v, want %v", step, gotSeries, wantSeries)
		}
		if got := m.cacheEvictions.Value(); got != evictions {
			t.Fatalf("%s: %d evictions counted, want %d", step, got, evictions)
		}
	}
	p1, p2 := mk("t", 1), mk("t", 2)
	c.add(p1)
	c.add(p2)
	check("two adds", 0, p1, p2)
	// Touch p1 so p2 is the LRU victim.
	if _, ok := c.get(p1.key); !ok {
		t.Fatal("p1 must be cached")
	}
	p3 := mk("u", 3)
	c.add(p3)
	check("LRU eviction", 1, p1, p3)
	// Racing duplicate: the incumbent wins and keeps the series the two
	// share.
	c.add(mk("t", 1))
	check("duplicate add", 1, p1, p3)
	// purgeTenant removes only that tenant's plans.
	c.purgeTenant("t")
	check("purge of t", 2, p3)
	// removeEntry is pointer-precise: a plan that merely shares p3's key
	// removes nothing.
	c.removeEntry(mk("u", 3))
	check("removal of a stranger", 2, p3)
	c.removeEntry(p3)
	check("removal of p3", 3)
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
