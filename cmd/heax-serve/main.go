// heax-serve is the multi-tenant plan-serving daemon: the host process
// of the paper's system view (Section 5.2), exposing the compile-once /
// run-many Plan pipeline over a framed TCP protocol. Tenants register
// serialized evaluation key sets, ship circuit DAGs that are compiled
// into an LRU-bounded plan cache, and stream ciphertext batches through
// weighted-fair per-tenant admission queues that share the evaluator
// worker pool across tenants, shedding load and unmeetable deadlines
// up front instead of queuing them.
//
// Usage:
//
//	heax-serve [-addr :7609] [-params B] [-cache 64] [-admission 0]
//	           [-max-frame-mb 1024] [-drain 30s]
//	           [-tenant-weights alice=3,bob=1] [-tenant-queue 64]
//	           [-tenant-inflight 0] [-dedup 256]
//	           [-state-dir DIR] [-fsync always] [-max-tenant-bytes 0]
//	           [-metrics-addr :9090] [-slow-run 0]
//	           [-version]
//
// -params picks the paper's Table 2 parameter set (A, B or C) — one
// set per daemon, like one synthesized accelerator. -admission 0 means
// GOMAXPROCS concurrent input sets. See examples/client for the
// matching client flow.
//
// -state-dir makes tenant registrations durable: every register and
// unregister is appended to a checksummed write-ahead log (snapshotted
// and compacted automatically) before it is acknowledged, and on
// startup the daemon replays the log so tenants resume without
// re-uploading evaluation keys — even after a kill -9. -fsync picks
// the durability/latency trade-off (always: fsync every record, a
// crash loses nothing acknowledged; never: leave flushing to the OS).
// -max-tenant-bytes caps each tenant's server memory (key bytes plus
// the working set of queued and executing runs); excess work is shed
// with a typed resource-exhausted error before allocation.
//
// -metrics-addr starts a second HTTP listener with the observability
// surface: /metrics (Prometheus text exposition — per-tenant admission
// counters, plan-cache hit rate, per-plan and per-step-kind latency
// histograms), /healthz (200 while serving, 503 while draining), and
// /debug/pprof. Every executed plan step is timed by kind; -slow-run
// logs any Run slower than the given threshold with tenant, plan id and
// duration.
//
// On SIGTERM the daemon drains gracefully: listeners close, in-flight
// runs finish and flush their responses, new work is refused with the
// typed draining error, and the process exits 0 once idle (1 if the
// -drain window expires first). SIGINT stops hard immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"heax"
	"heax/serve"
	"heax/serve/durable"
)

// buildInfo reports the module version and VCS revision baked into the
// binary by the Go toolchain (no build-time ldflags needed).
func buildInfo() (mod, rev, dirty string) {
	mod, rev = "(devel)", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" {
			mod = bi.Main.Version
		}
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return mod, rev, dirty
}

func version() string {
	mod, rev, dirty := buildInfo()
	return fmt.Sprintf("heax-serve %s (revision %s%s, %s)", mod, rev, dirty, runtime.Version())
}

// serveMetricsHTTP mounts the observability surface on its own
// listener: /metrics (Prometheus exposition), /healthz (503 while
// draining, so load balancers stop routing before the listener dies),
// and /debug/pprof. Returns the bound listener so callers can log the
// resolved address.
func serveMetricsHTTP(addr string, srv *serve.Server) (net.Listener, error) {
	reg := srv.MetricsRegistry()
	mod, rev, dirty := buildInfo()
	reg.NewGaugeVec("heax_build_info",
		"Build metadata; the value is always 1.", "version", "revision", "goversion").
		With(mod, rev+dirty, runtime.Version()).Set(1)
	start := time.Now()
	reg.NewGaugeFunc("heax_uptime_seconds",
		"Seconds since the daemon started.",
		func() float64 { return time.Since(start).Seconds() })

	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if srv.Stats().Draining {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() {
		if err := http.Serve(ln, mux); err != nil && !isClosedErr(err) {
			log.Printf("metrics listener: %v", err)
		}
	}()
	return ln, nil
}

func isClosedErr(err error) bool {
	return strings.Contains(err.Error(), "use of closed network connection")
}

// parseTenantWeights parses "name=weight,name=weight" into per-tenant
// admission policies.
func parseTenantWeights(s string, queue, inflight int) (map[string]serve.TenantPolicy, error) {
	out := make(map[string]serve.TenantPolicy)
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		name, w, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("malformed tenant weight %q (want name=weight)", part)
		}
		weight, err := strconv.Atoi(w)
		if err != nil || weight < 1 {
			return nil, fmt.Errorf("tenant %q: weight %q must be a positive integer", name, w)
		}
		out[name] = serve.TenantPolicy{Weight: weight, MaxQueued: queue, MaxInFlight: inflight}
	}
	return out, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("heax-serve: ")
	addr := flag.String("addr", ":7609", "TCP listen address")
	paramSet := flag.String("params", "B", "parameter set: A, B or C (Table 2)")
	cache := flag.Int("cache", 64, "compiled-plan cache capacity (LRU, all tenants)")
	admission := flag.Int("admission", 0, "concurrent input sets across all tenants (0 = GOMAXPROCS)")
	maxFrameMB := flag.Int("max-frame-mb", serve.DefaultMaxFrame>>20, "maximum protocol frame size in MiB")
	drain := flag.Duration("drain", 30*time.Second, "graceful drain window on SIGTERM before a hard stop")
	tenantWeights := flag.String("tenant-weights", "", "per-tenant admission weights, e.g. alice=3,bob=1 (others get weight 1)")
	tenantQueue := flag.Int("tenant-queue", serve.DefaultTenantQueue, "queued input sets allowed per tenant before shedding")
	tenantInflight := flag.Int("tenant-inflight", 0, "concurrent input sets per tenant (0 = no per-tenant cap)")
	dedup := flag.Int("dedup", 256, "retry-dedup cache capacity (completed responses kept per request id)")
	stateDir := flag.String("state-dir", "", "directory for durable tenant state (empty = in-memory only; registrations do not survive restart)")
	fsyncMode := flag.String("fsync", "always", "tenant-log fsync policy: always (crash-safe per record) or never (leave flushing to the OS)")
	maxTenantBytes := flag.Int64("max-tenant-bytes", 0, "per-tenant memory budget in bytes: keys + live run working set (0 = unlimited)")
	metricsAddr := flag.String("metrics-addr", "", "HTTP listen address for /metrics, /healthz and /debug/pprof (empty = disabled)")
	slowRun := flag.Duration("slow-run", 0, "log any Run request slower than this threshold (0 = disabled)")
	showVersion := flag.Bool("version", false, "print version and revision, then exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(version())
		return
	}

	var spec heax.ParamSpec
	switch strings.ToUpper(*paramSet) {
	case "A":
		spec = heax.SetA
	case "B":
		spec = heax.SetB
	case "C":
		spec = heax.SetC
	default:
		log.Fatalf("unknown parameter set %q (want A, B or C)", *paramSet)
	}
	params, err := heax.NewParams(spec)
	if err != nil {
		log.Fatal(err)
	}

	opts := []serve.Option{
		serve.WithCacheCapacity(*cache),
		serve.WithMaxFrameBytes(*maxFrameMB << 20),
		serve.WithDefaultTenantPolicy(serve.TenantPolicy{
			Weight:      1,
			MaxQueued:   *tenantQueue,
			MaxInFlight: *tenantInflight,
			MaxBytes:    *maxTenantBytes,
		}),
		serve.WithDedupCapacity(*dedup),
	}
	if *slowRun > 0 {
		opts = append(opts, serve.WithSlowRunLog(*slowRun, log.Printf))
	}

	var store *durable.Store
	if *stateDir != "" {
		var fsync durable.FsyncPolicy
		switch *fsyncMode {
		case "always":
			fsync = durable.FsyncAlways
		case "never":
			fsync = durable.FsyncNever
		default:
			log.Fatalf("unknown -fsync mode %q (want always or never)", *fsyncMode)
		}
		store, err = durable.Open(*stateDir, durable.Options{Fsync: fsync})
		if err != nil {
			log.Fatalf("opening durable state in %s: %v", *stateDir, err)
		}
		if n := store.DroppedTailBytes(); n > 0 {
			log.Printf("recovered from a torn tenant log: dropped %d unsynced trailing bytes", n)
		}
		opts = append(opts, serve.WithTenantLog(store))
	}
	window := *admission
	if window <= 0 {
		window = runtime.GOMAXPROCS(0)
	}
	opts = append(opts, serve.WithAdmissionWindow(window))
	weights, err := parseTenantWeights(*tenantWeights, *tenantQueue, *tenantInflight)
	if err != nil {
		log.Fatal(err)
	}
	for name, pol := range weights {
		opts = append(opts, serve.WithTenantPolicy(name, pol))
	}

	srv, err := serve.NewServer(params, opts...)
	if err != nil {
		log.Fatal(err)
	}
	if store != nil {
		tenants := store.Tenants()
		for _, t := range tenants {
			if err := srv.RestoreTenant(t.Name, t.Keys); err != nil {
				log.Fatalf("restoring tenant %q from %s: %v", t.Name, *stateDir, err)
			}
		}
		if len(tenants) > 0 {
			log.Printf("restored %d tenant(s) from %s (no key re-upload needed)", len(tenants), *stateDir)
		}
	}
	var mln net.Listener
	if *metricsAddr != "" {
		mln, err = serveMetricsHTTP(*metricsAddr, srv)
		if err != nil {
			log.Fatalf("metrics listener on %s: %v", *metricsAddr, err)
		}
		log.Printf("metrics on http://%s/metrics (healthz, pprof)", mln.Addr())
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("%s", version())
	log.Printf("%s on %s (LogN=%d, k=%d primes, %d slots); cache=%d plans, admission=%d, drain=%v",
		spec.Name, ln.Addr(), params.LogN, params.K(), params.Slots(), *cache, window, *drain)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	exited := make(chan int, 1)
	go func() {
		s := <-sig
		st := srv.Stats()
		if s == syscall.SIGTERM {
			log.Printf("draining (%d tenants, %d cached plans, %d completed / %d shed runs, up to %v)",
				st.Tenants, st.CachedPlans, st.CompletedRuns, st.ShedRuns, *drain)
			ctx, cancel := context.WithTimeout(context.Background(), *drain)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				log.Printf("drain window expired; runs were cut: %v", err)
				exited <- 1
				return
			}
			log.Printf("drained clean")
			exited <- 0
			return
		}
		log.Printf("interrupted; hard stop (%d tenants, %d cached plans, %d cancelled runs)",
			st.Tenants, st.CachedPlans, st.CanceledRuns)
		srv.Close()
		exited <- 0
	}()

	if err := srv.Serve(ln); err != serve.ErrServerClosed {
		log.Fatal(err)
	}
	code := <-exited
	// The metrics listener outlives the drain on purpose (healthz keeps
	// answering 503 while runs finish); close it only now.
	if mln != nil {
		mln.Close()
	}
	// os.Exit skips defers; close the store explicitly so the final WAL
	// records hit disk even under -fsync never.
	if store != nil {
		if err := store.Close(); err != nil {
			log.Printf("closing durable state: %v", err)
		}
	}
	os.Exit(code)
}
