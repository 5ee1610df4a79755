package serve

// The wire-level chaos harness: every scenario injects a fault —
// slow byte-dribbled I/O, a mid-frame connection cut, a stalled
// client that never reads, a graceful drain mid-batch, a dropped
// response retried by request id — and asserts the same contract:
// the client observes either a typed error or a result bit-identical
// to the in-process oracle; the server never hangs, never serves a
// corrupt frame, and leaks nothing: after every scenario each tenant's
// evicted key set must be collected by the garbage collector.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"heax"
)

// --- fault injection --------------------------------------------------------

// faultConn wraps a net.Conn with injectable faults: per-chunk read and
// write delays, forced small chunking (so frames cross the wire in
// dribbles), a hard cut after N written bytes (mid-frame), and a cut
// after N read bytes (the response is lost mid-frame).
type faultConn struct {
	net.Conn
	mu            sync.Mutex
	readDelay     time.Duration
	writeDelay    time.Duration
	chunk         int // max bytes per underlying op (0 = unlimited)
	cutAfterWrite int // -1 = never
	cutAfterRead  int // -1 = never
	written       int
	read          int
	cut           bool
}

func newFaultConn(c net.Conn) *faultConn {
	return &faultConn{Conn: c, cutAfterWrite: -1, cutAfterRead: -1}
}

func (f *faultConn) isCut() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cut
}

func (f *faultConn) doCut() error {
	f.mu.Lock()
	f.cut = true
	f.mu.Unlock()
	f.Conn.Close()
	return fmt.Errorf("faultconn: connection cut: %w", net.ErrClosed)
}

func (f *faultConn) Read(p []byte) (int, error) {
	f.mu.Lock()
	d, ch, cutAt, cut := f.readDelay, f.chunk, f.cutAfterRead, f.cut
	f.mu.Unlock()
	if cut {
		return 0, net.ErrClosed
	}
	if d > 0 {
		time.Sleep(d)
	}
	if ch > 0 && len(p) > ch {
		p = p[:ch]
	}
	if cutAt >= 0 && f.read >= cutAt {
		return 0, f.doCut()
	}
	if cutAt >= 0 && f.read+len(p) > cutAt {
		p = p[:cutAt-f.read]
	}
	n, err := f.Conn.Read(p)
	f.read += n
	return n, err
}

func (f *faultConn) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		f.mu.Lock()
		d, ch, cutAt, cut := f.writeDelay, f.chunk, f.cutAfterWrite, f.cut
		f.mu.Unlock()
		if cut {
			return total, net.ErrClosed
		}
		if d > 0 {
			time.Sleep(d)
		}
		n := len(p)
		if ch > 0 && n > ch {
			n = ch
		}
		if cutAt >= 0 && f.written+n >= cutAt {
			if keep := cutAt - f.written; keep > 0 {
				m, _ := f.Conn.Write(p[:keep])
				f.written += m
				total += m
			}
			return total, f.doCut()
		}
		m, err := f.Conn.Write(p[:n])
		f.written += m
		total += m
		if err != nil {
			return total, err
		}
		p = p[m:]
	}
	return total, nil
}

// --- scenario kit -----------------------------------------------------------

// chaosSpec is a deliberately tiny parameter set so chaos scenarios
// run hundreds of wire round trips under -race in milliseconds.
var chaosSpec = heax.ParamSpec{Name: "chaos", LogN: 4, QBits: []int{30, 30}, PBits: 31, LogScale: 20}

var (
	chaosParamsOnce sync.Once
	chaosParamsVal  *heax.Params
)

func chaosParams(t testing.TB) *heax.Params {
	t.Helper()
	chaosParamsOnce.Do(func() { chaosParamsVal = heax.MustParams(chaosSpec) })
	return chaosParamsVal
}

// chaosKit is one tenant's key material, codec and in-process oracle
// for the rotate-and-add circuit.
type chaosKit struct {
	params    *heax.Params
	evk       *heax.EvaluationKeySet
	enc       *heax.Encoder
	encryptor *heax.Encryptor
	oracle    *heax.Plan
}

func newChaosKit(t testing.TB, params *heax.Params, seed int64) *chaosKit {
	t.Helper()
	kg := heax.NewKeyGenerator(params, seed)
	sk := kg.GenSecretKey()
	k := &chaosKit{
		params:    params,
		evk:       heax.GenEvaluationKeys(kg, sk, []int{1}, false),
		enc:       heax.NewEncoder(params),
		encryptor: heax.NewEncryptor(params, kg.GenPublicKey(sk), seed+1),
	}
	oracle, err := chaosCircuit().Compile(params, k.evk)
	if err != nil {
		t.Fatal(err)
	}
	k.oracle = oracle
	return k
}

func chaosCircuit() *heax.Circuit {
	c := heax.NewCircuit()
	in := c.Input("x")
	c.Output("y", c.Add(c.Rotate(in, 1), in))
	return c
}

func (k *chaosKit) batches(t testing.TB, seed int64, n int) []map[string]*heax.Ciphertext {
	t.Helper()
	slots := k.params.Slots()
	in := make([]map[string]*heax.Ciphertext, n)
	for b := 0; b < n; b++ {
		vec := make([]float64, slots)
		for i := range vec {
			vec[i] = float64((seed+int64(b*slots+i))%17) / 17
		}
		pt, err := k.enc.EncodeReal(vec, k.params.MaxLevel(), k.params.DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		ct, err := k.encryptor.Encrypt(pt)
		if err != nil {
			t.Fatal(err)
		}
		in[b] = map[string]*heax.Ciphertext{"x": ct}
	}
	return in
}

// encodeRun serializes a reqRunEx payload with no request id and no
// deadline budget, for tests that write the frame themselves.
func encodeRun(t testing.TB, tenant string, id PlanID, in []map[string]*heax.Ciphertext) []byte {
	t.Helper()
	blobs, lens := encodeBatches(t, in)
	return runPayload(t, tenant, id, len(in), blobs, lens)
}

func chaosCtEqual(a, b *heax.Ciphertext) bool {
	if a == nil || b == nil || a.Scale != b.Scale || a.Level != b.Level || len(a.Polys) != len(b.Polys) {
		return false
	}
	for i := range a.Polys {
		if !a.Polys[i].Equal(b.Polys[i]) {
			return false
		}
	}
	return true
}

// assertOracle checks a wire result bit-identical to the in-process oracle.
func (k *chaosKit) assertOracle(t *testing.T, in, got []map[string]*heax.Ciphertext) {
	t.Helper()
	want, err := k.oracle.RunBatch(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d batches, want %d", len(got), len(want))
	}
	for b := range want {
		if !chaosCtEqual(got[b]["y"], want[b]["y"]) {
			t.Fatalf("batch %d: wire result not bit-identical to the in-process oracle", b)
		}
	}
}

// startChaosServer starts a server on loopback and returns it with its
// address. Callers own srv.Close via t.Cleanup.
func startChaosServer(t testing.TB, params *heax.Params, delay time.Duration, opts ...Option) (*Server, string) {
	t.Helper()
	srv, err := NewServer(params, opts...)
	if err != nil {
		t.Fatal(err)
	}
	srv.testRunDelay = delay
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// auditZeroLeak is the post-scenario invariant: once the scenario's
// connections are gone, every run settles, and evicting all tenants
// must empty the registry and the plan cache and leave every evicted
// key set unreachable — the garbage collector frees it, whatever fault
// was injected.
func auditZeroLeak(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.adm.mu.Lock()
		settled := s.adm.queuedTotal == 0 && s.adm.inFlightTotal == 0
		s.adm.mu.Unlock()
		if settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("admission never settled: jobs leaked or executors hung")
		}
		time.Sleep(2 * time.Millisecond)
	}
	waited := make(chan struct{})
	go func() { s.runWG.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(10 * time.Second):
		t.Fatal("run handlers never finished: a faulted connection wedged the server")
	}
	s.reg.mu.Lock()
	names := make([]string, 0, len(s.reg.tenants))
	keys := make([]weak.Pointer[heax.EvaluationKeySet], 0, len(s.reg.tenants))
	for name, e := range s.reg.tenants {
		names = append(names, name)
		keys = append(keys, weak.Make(e.evk))
	}
	s.reg.mu.Unlock()
	for _, name := range names {
		if err := s.evictTenant(name); err != nil {
			t.Fatalf("evicting %q: %v", name, err)
		}
	}
	if n := s.cache.len(); n != 0 {
		t.Fatalf("plan cache leaks %d entries after evicting every tenant", n)
	}
	if n := s.reg.len(); n != 0 {
		t.Fatalf("registry still holds %d tenants", n)
	}
	awaitCollected(t, names, keys)
}

// awaitCollected runs the garbage collector until every key set in keys
// (named by the parallel names) has been freed, and fails the test if
// one is still reachable after a deadline.
func awaitCollected(t *testing.T, names []string, keys []weak.Pointer[heax.EvaluationKeySet]) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		runtime.GC()
		var live []string
		for i, k := range keys {
			if k.Value() != nil {
				live = append(live, names[i])
			}
		}
		if len(live) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("evicted key sets of %q still reachable", live)
		}
	}
}

// dialChaos connects a Client through a faultConn so the scenario can
// twist the wire underneath an otherwise normal client.
func dialChaos(t *testing.T, addr string) (*Client, *faultConn) {
	t.Helper()
	raw, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	fc := newFaultConn(raw)
	cl, err := NewClient(fc)
	if err != nil {
		t.Fatal(err)
	}
	return cl, fc
}

// --- scenarios --------------------------------------------------------------

// TestChaosSlowIO: bytes dribble through 13-byte chunks with per-chunk
// delays in both directions; the protocol must stay framed and the
// result bit-identical.
func TestChaosSlowIO(t *testing.T) {
	srv, addr := startChaosServer(t, chaosParams(t), 0)
	cl, fc := dialChaos(t, addr)
	defer cl.Close()
	fc.mu.Lock()
	fc.chunk = 13
	fc.readDelay = 200 * time.Microsecond
	fc.writeDelay = 200 * time.Microsecond
	fc.mu.Unlock()

	kit := newChaosKit(t, cl.Params(), 101)
	if err := cl.Register("slow", kit.evk); err != nil {
		t.Fatal(err)
	}
	info, err := cl.Compile("slow", chaosCircuit())
	if err != nil {
		t.Fatal(err)
	}
	in := kit.batches(t, 102, 2)
	got, err := cl.Run("slow", info.ID, in)
	if err != nil {
		t.Fatal(err)
	}
	kit.assertOracle(t, in, got)
	cl.Close()
	auditZeroLeak(t, srv)
}

// TestChaosMidFrameCut: the connection dies partway through writing a
// Run request — inside the header, inside the payload — and the server
// must treat the torn frame as a dead peer (or ErrCorrupt), never
// execute garbage, never hang, and keep serving healthy clients.
func TestChaosMidFrameCut(t *testing.T) {
	srv, addr := startChaosServer(t, chaosParams(t), 0)
	setup, _ := dialChaos(t, addr)
	defer setup.Close()
	kit := newChaosKit(t, setup.Params(), 111)
	if err := setup.Register("cut", kit.evk); err != nil {
		t.Fatal(err)
	}
	info, err := setup.Compile("cut", chaosCircuit())
	if err != nil {
		t.Fatal(err)
	}

	for _, cutAt := range []int{3, 9, 20, 200} {
		cl, fc := dialChaos(t, addr)
		fc.mu.Lock()
		fc.cutAfterWrite = fc.written + cutAt
		fc.mu.Unlock()
		in := kit.batches(t, 112, 1)
		_, err := cl.Run("cut", info.ID, in)
		if err == nil {
			t.Fatalf("cut at +%d bytes: a torn request cannot succeed", cutAt)
		}
		if !fc.isCut() {
			t.Fatalf("cut at +%d bytes: fault did not trigger (frame smaller than expected)", cutAt)
		}
		cl.Close()
	}

	// The server is still healthy: a clean client round-trips bit-identically.
	in := kit.batches(t, 113, 1)
	got, err := setup.Run("cut", info.ID, in)
	if err != nil {
		t.Fatal(err)
	}
	kit.assertOracle(t, in, got)
	setup.Close()
	auditZeroLeak(t, srv)
}

// TestChaosStalledClient: a client floods a large run and then never
// reads its response; a healthy tenant keeps completing runs the whole
// time, and closing the stalled connection cleans everything up.
func TestChaosStalledClient(t *testing.T) {
	srv, addr := startChaosServer(t, chaosParams(t), 0,
		WithAdmissionWindow(1),
		WithTenantPolicy("stall", TenantPolicy{MaxInFlight: 1, MaxQueued: 4096}))
	stalled, fc := dialChaos(t, addr)
	kit := newChaosKit(t, stalled.Params(), 121)
	if err := stalled.Register("stall", kit.evk); err != nil {
		t.Fatal(err)
	}
	info, err := stalled.Compile("stall", chaosCircuit())
	if err != nil {
		t.Fatal(err)
	}

	// Fire a 256-batch run and go silent: the request lands and
	// executes, but the response is never read — everything the server
	// writes backs up into the socket.
	in := kit.batches(t, 122, 256)
	if err := writeFrame(stalled.bw, reqRunEx, encodeRun(t, "stall", info.ID, in)); err != nil {
		t.Fatal(err)
	}
	if err := stalled.bw.Flush(); err != nil {
		t.Fatal(err)
	}

	// A healthy tenant is admitted and completes throughout the stall.
	healthy, _ := dialChaos(t, addr)
	defer healthy.Close()
	hkit := newChaosKit(t, healthy.Params(), 123)
	if err := healthy.Register("healthy", hkit.evk); err != nil {
		t.Fatal(err)
	}
	hinfo, err := healthy.Compile("healthy", chaosCircuit())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		hin := hkit.batches(t, int64(124+round), 2)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		got, err := healthy.RunContext(ctx, "healthy", hinfo.ID, hin)
		cancel()
		if err != nil {
			t.Fatalf("healthy tenant blocked behind a stalled one (round %d): %v", round, err)
		}
		hkit.assertOracle(t, hin, got)
	}

	// Tear the stalled client down; its handler unwedges and the audit
	// must find nothing pinned.
	fc.Conn.Close()
	healthy.Close()
	auditZeroLeak(t, srv)
}

// TestChaosDrainMidBatch: Shutdown arrives while a multi-batch run is
// executing. The in-flight run completes bit-identically, new work is
// rejected with ErrServerDraining, and the drain finishes inside its
// deadline.
func TestChaosDrainMidBatch(t *testing.T) {
	srv, addr := startChaosServer(t, chaosParams(t), 30*time.Millisecond, WithAdmissionWindow(1))
	cl, _ := dialChaos(t, addr)
	defer cl.Close()
	late, _ := dialChaos(t, addr) // connected before the drain begins
	defer late.Close()
	kit := newChaosKit(t, cl.Params(), 131)
	if err := cl.Register("drain", kit.evk); err != nil {
		t.Fatal(err)
	}
	info, err := cl.Compile("drain", chaosCircuit())
	if err != nil {
		t.Fatal(err)
	}

	in := kit.batches(t, 132, 4) // ≥120ms of injected run time
	type runResult struct {
		out []map[string]*heax.Ciphertext
		err error
	}
	resCh := make(chan runResult, 1)
	go func() {
		out, err := cl.Run("drain", info.ID, in)
		resCh <- runResult{out, err}
	}()
	// Wait until the run is admitted, then start draining.
	for {
		srv.adm.mu.Lock()
		busy := srv.adm.inFlightTotal > 0
		srv.adm.mu.Unlock()
		if busy {
			break
		}
		time.Sleep(time.Millisecond)
	}
	shutErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutErr <- srv.Shutdown(ctx)
	}()
	// New work during the drain is rejected with the typed sentinel.
	for {
		srv.mu.Lock()
		draining := srv.draining
		srv.mu.Unlock()
		if draining {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := late.Run("drain", info.ID, kit.batches(t, 133, 1)); !errors.Is(err, ErrServerDraining) {
		t.Fatalf("run during drain must be ErrServerDraining, got %v", err)
	}
	if _, err := late.Compile("drain", chaosCircuit()); !errors.Is(err, ErrServerDraining) {
		t.Fatalf("compile during drain must be ErrServerDraining, got %v", err)
	}

	// The in-flight run drained to completion, bit-identical.
	res := <-resCh
	if res.err != nil {
		t.Fatalf("in-flight run must survive a graceful drain, got %v", res.err)
	}
	kit.assertOracle(t, in, res.out)
	if err := <-shutErr; err != nil {
		t.Fatalf("drain missed its deadline: %v", err)
	}
	// Audit directly: runs settled, registry clean (server is closed,
	// but registry/cache state must still be releasable).
	auditZeroLeak(t, srv)
}

// TestChaosRetryDedup: the response is cut mid-frame after the server
// executed the run; the client's idempotent retry reconnects, re-sends
// the same request id, and is answered from the dedup cache — the run
// executes exactly once, and the retried result is bit-identical.
func TestChaosRetryDedup(t *testing.T) {
	srv, addr := startChaosServer(t, chaosParams(t), 0)
	cl, err := Dial(addr, WithRetry(3, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	kit := newChaosKit(t, cl.Params(), 141)
	if err := cl.Register("retry", kit.evk); err != nil {
		t.Fatal(err)
	}
	info, err := cl.Compile("retry", chaosCircuit())
	if err != nil {
		t.Fatal(err)
	}

	// Swap the healthy connection for one that loses the response
	// mid-frame: allow the request out, then cut after 32 response bytes.
	fc := newFaultConn(cl.conn)
	fc.cutAfterRead = 32
	cl.conn = fc
	cl.br = bufio.NewReaderSize(fc, 64<<10)
	cl.bw = bufio.NewWriterSize(fc, 64<<10)

	in := kit.batches(t, 142, 2)
	got, err := cl.Run("retry", info.ID, in)
	if err != nil {
		t.Fatalf("retry after a cut response must succeed, got %v", err)
	}
	kit.assertOracle(t, in, got)
	if n := srv.completedRuns.Load(); n != 2 { // 2 input sets, once each
		t.Fatalf("run executed %d input sets, want 2 — the retry double-executed", n)
	}
	if n := srv.dedupHits.Load(); n != 1 {
		t.Fatalf("dedup hits = %d, want 1 (the retry must be answered from cache)", n)
	}
	cl.Close()
	auditZeroLeak(t, srv)
}

// TestChaosRetryRequestCut: the cut eats the request itself (the
// server never saw it); the retry reconnects and the run executes
// exactly once — on the retry.
func TestChaosRetryRequestCut(t *testing.T) {
	srv, addr := startChaosServer(t, chaosParams(t), 0)
	cl, err := Dial(addr, WithRetry(3, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	kit := newChaosKit(t, cl.Params(), 151)
	if err := cl.Register("retry2", kit.evk); err != nil {
		t.Fatal(err)
	}
	info, err := cl.Compile("retry2", chaosCircuit())
	if err != nil {
		t.Fatal(err)
	}
	fc := newFaultConn(cl.conn)
	fc.cutAfterWrite = 40 // inside the Run request frame
	cl.conn = fc
	cl.br = bufio.NewReaderSize(fc, 64<<10)
	cl.bw = bufio.NewWriterSize(fc, 64<<10)

	in := kit.batches(t, 152, 1)
	got, err := cl.Run("retry2", info.ID, in)
	if err != nil {
		t.Fatalf("retry after a cut request must succeed, got %v", err)
	}
	kit.assertOracle(t, in, got)
	if n := srv.completedRuns.Load(); n != 1 {
		t.Fatalf("run executed %d input sets, want 1", n)
	}
	cl.Close()
	auditZeroLeak(t, srv)
}

// TestChaosDeadlineShedFast: under a saturated queue with a seeded
// run-time estimate, an unmeetable deadline is rejected typed and
// immediately — long before the backlog could drain.
func TestChaosDeadlineShedFast(t *testing.T) {
	srv, addr := startChaosServer(t, chaosParams(t), 100*time.Millisecond,
		WithAdmissionWindow(1),
		WithDefaultTenantPolicy(TenantPolicy{MaxQueued: 1024}))
	cl, _ := dialChaos(t, addr)
	defer cl.Close()
	kit := newChaosKit(t, cl.Params(), 161)
	if err := cl.Register("shed", kit.evk); err != nil {
		t.Fatal(err)
	}
	info, err := cl.Compile("shed", chaosCircuit())
	if err != nil {
		t.Fatal(err)
	}
	// Seed the estimator: one completed run ≈ 100ms.
	seed := kit.batches(t, 162, 1)
	if _, err := cl.Run("shed", info.ID, seed); err != nil {
		t.Fatal(err)
	}

	// Build a backlog of ~6 queued input sets on separate connections.
	// (Inputs are encrypted up front: the encryptor's PRNG is not safe
	// for concurrent use.)
	shedIn := kit.batches(t, 169, 1)
	var floodWG sync.WaitGroup
	for i := 0; i < 6; i++ {
		fcl, _ := dialChaos(t, addr)
		defer fcl.Close()
		in := kit.batches(t, int64(163+i), 1)
		floodWG.Add(1)
		go func(c *Client) {
			defer floodWG.Done()
			c.Run("shed", info.ID, in)
		}(fcl)
	}
	for {
		srv.adm.mu.Lock()
		deep := srv.adm.queuedTotal >= 4
		srv.adm.mu.Unlock()
		if deep {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// ~600ms of backlog ahead; a 50ms budget is hopeless and must be
	// shed in O(ms), not queued until it times out.
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_, err = cl.RunContext(ctx, "shed", info.ID, shedIn)
	cancel()
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("unmeetable deadline must be ErrDeadlineExceeded, got %v", err)
	}
	if elapsed > time.Second {
		t.Fatalf("shed took %v: the request queued instead of being rejected up front", elapsed)
	}
	if shed := srv.Stats().ShedRuns; shed < 1 {
		t.Fatalf("ShedRuns = %d, want ≥1", shed)
	}
	floodWG.Wait()
	cl.Close()
	auditZeroLeak(t, srv)
}

// TestChaosMidRunDeadline: a deadline that expires while the plan is
// executing aborts the run with the typed wire error (not a hang, not
// an untyped cancel).
func TestChaosMidRunDeadline(t *testing.T) {
	srv, addr := startChaosServer(t, chaosParams(t), 80*time.Millisecond)
	cl, _ := dialChaos(t, addr)
	defer cl.Close()
	kit := newChaosKit(t, cl.Params(), 171)
	if err := cl.Register("midrun", kit.evk); err != nil {
		t.Fatal(err)
	}
	info, err := cl.Compile("midrun", chaosCircuit())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	_, err = cl.RunContext(ctx, "midrun", info.ID, kit.batches(t, 172, 1))
	if !errors.Is(err, ErrDeadlineExceeded) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-run expiry must surface as a deadline error, got %v", err)
	}
	cl.Close()
	auditZeroLeak(t, srv)
}

// TestChaosLegacyRunFrame: the retired 0x05 Run frame is answered like
// any unknown request type — ErrCorrupt on that connection, nothing
// executed — and the server keeps serving, on that connection and on
// others.
func TestChaosLegacyRunFrame(t *testing.T) {
	srv, addr := startChaosServer(t, chaosParams(t), 0)
	cl, _ := dialChaos(t, addr)
	defer cl.Close()
	kit := newChaosKit(t, cl.Params(), 181)
	if err := cl.Register("legacy", kit.evk); err != nil {
		t.Fatal(err)
	}
	info, err := cl.Compile("legacy", chaosCircuit())
	if err != nil {
		t.Fatal(err)
	}
	in := kit.batches(t, 182, 2)
	const retiredRun byte = 0x05
	_, err = cl.roundTrip(context.Background(), retiredRun, encodeRun(t, "legacy", info.ID, in), respBatches)
	if !errors.Is(err, heax.ErrCorrupt) {
		t.Fatalf("retired 0x05 frame: got %v, want ErrCorrupt", err)
	}
	if n := srv.adm.tenantCompleted("legacy"); n != 0 {
		t.Fatalf("retired frame executed %d input sets", n)
	}

	other, _ := dialChaos(t, addr)
	defer other.Close()
	for _, c := range []*Client{other, cl} {
		got, err := c.Run("legacy", info.ID, in)
		if err != nil {
			t.Fatalf("run after a retired frame: %v", err)
		}
		kit.assertOracle(t, in, got)
	}
	other.Close()
	cl.Close()
	auditZeroLeak(t, srv)
}

// TestChaosWeightedFairWire: two tenants at weights 2:1 flood a
// one-executor server; sampled mid-saturation, the heavy tenant leads
// ~2:1 and the light one is never starved; both drain fully.
func TestChaosWeightedFairWire(t *testing.T) {
	srv, addr := startChaosServer(t, chaosParams(t), 2*time.Millisecond,
		WithAdmissionWindow(1),
		WithTenantPolicy("heavy", TenantPolicy{Weight: 2, MaxQueued: 1024}),
		WithTenantPolicy("light", TenantPolicy{Weight: 1, MaxQueued: 1024}))
	reg, _ := dialChaos(t, addr)
	defer reg.Close()
	params := reg.Params()
	kits := map[string]*chaosKit{
		"heavy": newChaosKit(t, params, 191),
		"light": newChaosKit(t, params, 192),
	}
	infos := map[string]PlanInfo{}
	for name, kit := range kits {
		if err := reg.Register(name, kit.evk); err != nil {
			t.Fatal(err)
		}
		info, err := reg.Compile(name, chaosCircuit())
		if err != nil {
			t.Fatal(err)
		}
		infos[name] = info
	}

	// Encrypt every round's inputs up front (the encryptor's PRNG is
	// not safe for concurrent use), then flood from 3 connections per
	// tenant simultaneously.
	const conns, rounds = 3, 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for name := range kits {
		for c := 0; c < conns; c++ {
			cl, _ := dialChaos(t, addr)
			defer cl.Close()
			work := make([][]map[string]*heax.Ciphertext, rounds)
			for r := 0; r < rounds; r++ {
				work[r] = kits[name].batches(t, int64(200+c*10+r), 1)
			}
			wg.Add(1)
			go func(cl *Client, name string, work [][]map[string]*heax.Ciphertext) {
				defer wg.Done()
				<-start
				for _, in := range work {
					if _, err := cl.Run(name, infos[name].ID, in); err != nil {
						t.Errorf("%s: %v", name, err)
						return
					}
				}
			}(cl, name, work)
		}
	}
	close(start)

	// Sample mid-saturation: after half the work completes, the heavy
	// tenant must lead and the light tenant must be making progress.
	total := int64(2 * conns * rounds)
	for {
		done := srv.adm.tenantCompleted("heavy") + srv.adm.tenantCompleted("light")
		if done >= total/2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	heavy, light := srv.adm.tenantCompleted("heavy"), srv.adm.tenantCompleted("light")
	if light < 2 {
		t.Fatalf("light tenant starved: %d completions while heavy has %d", light, heavy)
	}
	if heavy <= light {
		t.Fatalf("weights not honored at saturation: heavy=%d light=%d", heavy, light)
	}
	wg.Wait()
	if h, l := srv.adm.tenantCompleted("heavy"), srv.adm.tenantCompleted("light"); h != conns*rounds || l != conns*rounds {
		t.Fatalf("drain incomplete: heavy=%d light=%d, want %d each", h, l, conns*rounds)
	}
	reg.Close()
	auditZeroLeak(t, srv)
}

// TestServeUnregisterDuringRun: a tenant is unregistered from a second
// connection while a run of its plan executes. The held run finishes
// bit-identical on the plan and keys it holds, the plan id is gone for
// new runs, the name takes fresh keys at once, and the old key set is
// collected once the held run has returned.
func TestServeUnregisterDuringRun(t *testing.T) {
	srv, addr := startChaosServer(t, chaosParams(t), 150*time.Millisecond, WithAdmissionWindow(1))
	cl, _ := dialChaos(t, addr)
	defer cl.Close()
	admin, _ := dialChaos(t, addr)
	defer admin.Close()
	kit := newChaosKit(t, cl.Params(), 221)
	if err := cl.Register("evict", kit.evk); err != nil {
		t.Fatal(err)
	}
	info, err := cl.Compile("evict", chaosCircuit())
	if err != nil {
		t.Fatal(err)
	}
	e, err := srv.reg.get("evict")
	if err != nil {
		t.Fatal(err)
	}
	oldKeys := weak.Make(e.evk)
	e = nil

	// Two input sets through one executor: when the eviction lands, one
	// is executing and the other still queued.
	in := kit.batches(t, 222, 2)
	type runResult struct {
		out []map[string]*heax.Ciphertext
		err error
	}
	held := make(chan runResult, 1)
	go func() {
		out, err := cl.Run("evict", info.ID, in)
		held <- runResult{out, err}
	}()
	for {
		srv.adm.mu.Lock()
		busy := srv.adm.inFlightTotal > 0
		srv.adm.mu.Unlock()
		if busy {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := admin.Unregister("evict"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-held:
		t.Fatal("the held run returned before the eviction landed")
	default:
	}
	if _, err := admin.Run("evict", info.ID, kit.batches(t, 223, 1)); !errors.Is(err, ErrUnknownPlan) {
		t.Fatalf("run of an evicted plan: got %v, want ErrUnknownPlan", err)
	}

	fresh := newChaosKit(t, admin.Params(), 224)
	if err := admin.Register("evict", fresh.evk); err != nil {
		t.Fatalf("re-registering the evicted name: %v", err)
	}
	finfo, err := admin.Compile("evict", chaosCircuit())
	if err != nil {
		t.Fatal(err)
	}
	if finfo.Cached {
		t.Fatal("compile after re-registration was served the evicted plan")
	}
	fin := fresh.batches(t, 225, 1)
	got, err := admin.Run("evict", finfo.ID, fin)
	if err != nil {
		t.Fatal(err)
	}
	fresh.assertOracle(t, fin, got)

	res := <-held
	if res.err != nil {
		t.Fatalf("a run in flight must survive its tenant's eviction, got %v", res.err)
	}
	kit.assertOracle(t, in, res.out)
	awaitCollected(t, []string{"evict (first registration)"}, []weak.Pointer[heax.EvaluationKeySet]{oldKeys})
	cl.Close()
	admin.Close()
	auditZeroLeak(t, srv)
}

// gateTracer holds every step that reports to it until open is closed,
// so a test can look at a server with all its admitted runs mid-step.
type gateTracer struct {
	arrived atomic.Int32
	open    chan struct{}
}

func (g *gateTracer) ObserveStep(string, time.Duration) {
	g.arrived.Add(1)
	<-g.open
}

// computeGoroutines counts the goroutines that are executors, plan run
// members or ring pool workers, from their stacks.
func computeGoroutines(t *testing.T) int {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 2); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, stack := range strings.Split(buf.String(), "\n\n") {
		if strings.Contains(stack, "serve.(*Server).executor") || strings.Contains(stack, "heax.(*planRun).") ||
			strings.Contains(stack, "ring.(*scheduler).worker") {
			n++
		}
	}
	return n
}

// TestServeComputeGoroutinesBounded: the process has one set of compute
// workers. With every admission slot holding a run of a wide plan and
// every member stopped inside a step, the goroutines that compute are
// the admission executors (the runs' callers) and the ring pool's P − 1
// workers they borrow — not a crew per run.
func TestServeComputeGoroutinesBounded(t *testing.T) {
	const admission, terms = 4, 24
	params := heax.MustParams(chaosSpec) // not the shared one: its pool is sized by this run's GOMAXPROCS
	before := computeGoroutines(t)       // idle pools of parameter sets earlier tests left behind
	srv, addr := startChaosServer(t, params, 0, WithAdmissionWindow(admission))
	cl, _ := dialChaos(t, addr)
	defer cl.Close()
	kit := newChaosKit(t, cl.Params(), 211)
	if err := cl.Register("wide", kit.evk); err != nil {
		t.Fatal(err)
	}
	// Every AddPlain is ready at once, so a run always has a step to
	// offer; sums, because a sum of MulPlains compiles to one step.
	c := heax.NewCircuit()
	x := c.Input("x")
	acc := c.AddPlain(x, []float64{1})
	for i := 1; i < terms; i++ {
		acc = c.Add(acc, c.AddPlain(x, []float64{float64(i + 1)}))
	}
	c.Output("y", acc)
	info, err := cl.Compile("wide", c)
	if err != nil {
		t.Fatal(err)
	}
	cp, ok := srv.cache.get(cacheKey{tenant: "wide", id: info.ID})
	if !ok {
		t.Fatal("compiled plan not cached")
	}
	gate := &gateTracer{open: make(chan struct{})}
	cp.plan.SetTracer(gate)

	if idle := computeGoroutines(t) - before; idle != admission {
		t.Fatalf("idle server holds %d compute goroutines, want its %d executors", idle, admission)
	}
	done := make(chan error, 1)
	in := kit.batches(t, 212, admission)
	go func() {
		_, err := cl.Run("wide", info.ID, in)
		done <- err
	}()
	want := admission + runtime.GOMAXPROCS(0) - 1
	for deadline := time.Now().Add(10 * time.Second); int(gate.arrived.Load()) < want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(gate.open)
			t.Fatalf("%d members reached a step, want %d (%d admitted callers + the pool)", gate.arrived.Load(), want, admission)
		}
	}
	busy := computeGoroutines(t) - before
	close(gate.open)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if busy != want {
		t.Fatalf("%d compute goroutines with %d runs admitted, want %d (admission + P − 1)", busy, admission, want)
	}
	cl.Close()
	auditZeroLeak(t, srv)
}

// FuzzParseRunRequest: the Run frame parser must reject malformed
// payloads with errors wrapping heax.ErrCorrupt — never a panic, hang,
// or oversized allocation.
func FuzzParseRunRequest(f *testing.F) {
	params := heax.MustParams(chaosSpec)
	s, err := NewServer(params, WithAdmissionWindow(1))
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	kit := newChaosKit(f, params, 201)
	enc := kit.batches(f, 202, 1)
	var buf bytes.Buffer
	if err := heax.WriteCiphertextBatch(&buf, enc[0]); err != nil {
		f.Fatal(err)
	}
	var pw payloadWriter
	pw.str("t")
	pw.bytes(make([]byte, len(PlanID{})))
	head := len(pw.buf)
	pw.bytes(make([]byte, len(requestID{})))
	pw.u64(1_000_000)
	tail := len(pw.buf)
	pw.u32(1)
	pw.blob(buf.Bytes())
	f.Add(pw.buf)
	f.Add(pw.buf[:len(pw.buf)/2])
	// The retired 0x05 layout: no request id, no budget.
	f.Add(append(append([]byte{}, pw.buf[:head]...), pw.buf[tail:]...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := s.parseRunRequest(&io.LimitedReader{R: bytes.NewReader(data), N: int64(len(data))})
		if err != nil {
			if !errors.Is(err, heax.ErrCorrupt) {
				t.Fatalf("malformed run request must wrap ErrCorrupt, got %v", err)
			}
			return
		}
		if len(req.batches) > 1<<20 {
			t.Fatalf("parser over-allocated %d batches", len(req.batches))
		}
	})
}
