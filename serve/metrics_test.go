package serve_test

// Black-box observability tests: a real tenant flows through the wire
// protocol and the obs registry must tell the story — per-tenant
// admission counters, plan-cache hit/miss, run-latency histograms and
// per-step-kind tracing — consistently with Stats (satellite: the two
// views share one mutex discipline, so their counts must be equal, not
// merely close).

import (
	"bytes"
	"net"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"heax"
	"heax/obs"
	"heax/serve"
)

// startServerWithRegistry is startServer with a caller-visible server
// handle and obs registry.
func startServerWithRegistry(t testing.TB, params *heax.Params, opts ...serve.Option) (*serve.Server, string) {
	t.Helper()
	srv, err := serve.NewServer(params, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// scrape renders the registry and returns the exposition text.
func scrape(t testing.TB, reg *obs.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// sampleValue extracts the value of the first sample line matching the
// given prefix (family name, optionally with a label selector).
func sampleValue(t testing.TB, exposition, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, prefix) {
			fields := strings.Fields(line)
			v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				t.Fatalf("unparseable sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no sample with prefix %q in exposition:\n%s", prefix, exposition)
	return 0
}

func TestServeMetricsEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	srv, addr := startServerWithRegistry(t, testParams(t), serve.WithMetricsRegistry(reg))
	cl, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	kit := newTenantKit(t, cl.Params(), 97)
	if err := cl.Register("demo", kit.evk); err != nil {
		t.Fatal(err)
	}
	info, err := cl.Compile("demo", kit.matvecCircuit())
	if err != nil {
		t.Fatal(err)
	}
	const nBatches = 3
	in, _ := kit.batches(t, 7, nBatches)
	if _, err := cl.Run("demo", info.ID, in); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Compile("demo", kit.matvecCircuit()); err != nil { // cache hit
		t.Fatal(err)
	}

	exp := scrape(t, reg)
	st := srv.Stats()

	// The exposition carries the acceptance-criteria families with the
	// tenant's labels.
	for _, want := range []struct {
		prefix string
		value  float64
	}{
		{`heax_serve_runs_queued_total{tenant="demo"}`, nBatches},
		{`heax_serve_runs_completed_total{tenant="demo"}`, nBatches},
		{`heax_serve_run_seconds_count{tenant="demo"`, nBatches},
		{`heax_serve_plan_cache_misses_total`, 1},
		{`heax_serve_plan_cache_hits_total`, 1},
		{`heax_serve_tenants`, 1},
	} {
		if got := sampleValue(t, exp, want.prefix); got != want.value {
			t.Errorf("%s = %v, want %v", want.prefix, got, want.value)
		}
	}
	if got := sampleValue(t, exp, `heax_serve_key_bytes`); got <= 0 {
		t.Errorf("heax_serve_key_bytes = %v, want > 0", got)
	}
	// The per-plan label is the 16-hex-char digest prefix.
	if ok, _ := regexp.MatchString(`heax_serve_run_seconds_count\{tenant="demo",plan="[0-9a-f]{16}"\}`, exp); !ok {
		t.Errorf("run_seconds sample lacks the hex plan label:\n%s", exp)
	}
	// Step tracing is on by default: the matvec plan's products compile
	// to RotateSum steps — a kind this package never names; it reaches
	// the family through heax.StepKinds — whose kernels must have been timed.
	if got := sampleValue(t, exp, `heax_plan_step_seconds_count{kind="RotateSum"}`); got == 0 {
		t.Error("step tracing on by default, but RotateSum observed no steps")
	}

	// Stats and obs agree exactly — one mutex discipline.
	if st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Errorf("Stats cache hits/misses = %d/%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
	if st.CompletedRuns != nBatches {
		t.Errorf("Stats.CompletedRuns = %d, want %d", st.CompletedRuns, nBatches)
	}
	if st.KeyBytes != int64(sampleValue(t, exp, `heax_serve_key_bytes`)) {
		t.Errorf("Stats.KeyBytes = %d diverges from the exposition", st.KeyBytes)
	}
	if st.Draining {
		t.Error("Stats.Draining true on a live server")
	}

	// Eviction bounds cardinality: unregistering drops the tenant's
	// per-tenant children and its plan's run-latency series.
	if err := cl.Unregister("demo"); err != nil {
		t.Fatal(err)
	}
	exp = scrape(t, reg)
	if strings.Contains(exp, `tenant="demo"`) {
		t.Errorf("evicted tenant still exposed:\n%s", exp)
	}
	if got := sampleValue(t, exp, `heax_serve_tenants`); got != 0 {
		t.Errorf("heax_serve_tenants = %v after eviction, want 0", got)
	}
	if got := srv.Stats().CacheEvictions; got != 1 {
		t.Errorf("Stats.CacheEvictions = %d after tenant eviction, want 1", got)
	}
}

// TestServeMetricsShedCounter: an overloaded tenant's rejections land
// on the per-reason shed counter and in Stats.ShedRuns alike.
func TestServeMetricsShedCounter(t *testing.T) {
	reg := obs.NewRegistry()
	srv, addr := startServerWithRegistry(t, testParams(t),
		serve.WithMetricsRegistry(reg),
		serve.WithDefaultTenantPolicy(serve.TenantPolicy{MaxQueued: 1}))
	cl, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	kit := newTenantKit(t, cl.Params(), 99)
	if err := cl.Register("burst", kit.evk); err != nil {
		t.Fatal(err)
	}
	info, err := cl.Compile("burst", kit.matvecCircuit())
	if err != nil {
		t.Fatal(err)
	}
	// 2 batches > MaxQueued 1: all-or-nothing admission sheds the whole
	// request with ErrOverloaded.
	in, _ := kit.batches(t, 9, 2)
	if _, err := cl.Run("burst", info.ID, in); err == nil {
		t.Fatal("expected an overload rejection")
	}
	exp := scrape(t, reg)
	if got := sampleValue(t, exp, `heax_serve_runs_shed_total{tenant="burst",reason="overloaded"}`); got != 1 {
		t.Errorf("shed counter = %v, want 1", got)
	}
	if got := srv.Stats().ShedRuns; got != 1 {
		t.Errorf("Stats.ShedRuns = %d, want 1", got)
	}
}
