package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"heax"
	"heax/obs"
)

// Server is the multi-tenant plan-serving daemon: one process, one
// parameter set (the fixed accelerator pipeline), many tenants. See
// the package documentation for the architecture.
type Server struct {
	params     *heax.Params
	paramsBlob []byte
	reg        *registry
	cache      *planCache
	opts       serverOptions

	// metrics is the server's obs instrumentation bundle; always
	// non-nil (a private registry is created unless WithMetricsRegistry
	// supplies one), so no instrumentation site needs a nil check.
	metrics *serveMetrics

	// adm is the weighted-fair admission layer (admission.go): one
	// bounded queue per tenant, stride-scheduled dispatch, deadline
	// shedding. len(executor pool) workers drain it.
	adm    *admitter
	dedup  *dedupCache
	ctx    context.Context
	cancel context.CancelFunc

	// regMu serializes tenant registration lifecycle (registry mutation
	// + tenant-log append) so the durable log's record order always
	// matches the order the registry observed — replay reconstructs
	// exactly the surviving registrations.
	regMu sync.Mutex

	mu        sync.Mutex
	listeners map[net.Listener]bool
	conns     map[net.Conn]bool
	draining  bool
	closed    bool

	connWG sync.WaitGroup
	execWG sync.WaitGroup
	// runWG tracks every accepted Run request from admission through
	// response flush; Shutdown drains it before closing connections.
	runWG sync.WaitGroup

	completedRuns atomic.Int64
	dedupHits     atomic.Int64

	// testRunDelay stretches every executed run (set by tests before
	// Serve to saturate the admission layer deterministically).
	testRunDelay time.Duration
	// testRunHook runs inside the executor's recover boundary just
	// before each job executes (set by tests before Serve): a hook that
	// panics exercises exactly the path a panicking kernel takes.
	testRunHook func(tenant string)
}

// TenantLog records the tenant registration lifecycle durably — the
// seam between the server and a crash-safe store (serve/durable). The
// server appends under its registration lock, in registry order, and
// treats an append failure as a failed request (with the in-memory
// change rolled back), so the log never trails an acknowledged
// registration. Implementations must be safe for concurrent use.
type TenantLog interface {
	// AppendRegister records that name registered the serialized
	// evaluation key set keys.
	AppendRegister(name string, keys []byte) error
	// AppendUnregister records that name was unregistered.
	AppendUnregister(name string) error
}

type serverOptions struct {
	cacheCap   int
	admission  int
	maxFrame   int
	dedupCap   int
	defPolicy  TenantPolicy
	policies   map[string]TenantPolicy
	tlog       TenantLog
	metricsReg *obs.Registry
	slowRun    time.Duration
	slowLogf   func(format string, args ...any)
}

// Option configures a Server at construction.
type Option func(*serverOptions)

// WithCacheCapacity bounds how many compiled plans the LRU cache holds
// across all tenants (default 64). The least recently used plan is
// evicted first; an evicted plan id simply recompiles on next use.
func WithCacheCapacity(n int) Option {
	return func(o *serverOptions) { o.cacheCap = n }
}

// WithAdmissionWindow sets how many input sets may execute concurrently
// across all tenants and connections (default GOMAXPROCS) — the host
// analogue of the paper's bounded device queue.
func WithAdmissionWindow(n int) Option {
	return func(o *serverOptions) {
		if n < 1 {
			n = 1
		}
		o.admission = n
	}
}

// WithMaxFrameBytes caps the size of a single protocol frame (default
// DefaultMaxFrame). Oversized frames are rejected before allocation.
func WithMaxFrameBytes(n int) Option {
	return func(o *serverOptions) {
		if n < 1<<10 {
			n = 1 << 10
		}
		o.maxFrame = n
	}
}

// WithTenantPolicy pins one tenant's admission policy (weight,
// in-flight cap, queue bound); zero fields inherit the defaults set by
// WithDefaultTenantPolicy. Tenants without a pinned policy get the
// defaults.
func WithTenantPolicy(name string, p TenantPolicy) Option {
	return func(o *serverOptions) {
		if o.policies == nil {
			o.policies = make(map[string]TenantPolicy)
		}
		o.policies[name] = p
	}
}

// WithDefaultTenantPolicy sets the admission policy applied to every
// tenant without a WithTenantPolicy pin (defaults: weight 1, no
// in-flight cap, DefaultTenantQueue queued input sets).
func WithDefaultTenantPolicy(p TenantPolicy) Option {
	return func(o *serverOptions) { o.defPolicy = p }
}

// WithTenantLog attaches a durable tenant log: every successful
// Register/Unregister is appended before it is acknowledged, and an
// append failure fails the request (rolling back the in-memory
// change). Pair with RestoreTenant at startup to resume tenants across
// a crash without re-uploading keys.
func WithTenantLog(l TenantLog) Option {
	return func(o *serverOptions) { o.tlog = l }
}

// WithDedupCapacity bounds the retry dedup cache: how many completed
// Run responses are retained by request id so an idempotent client
// retry is answered from cache instead of re-executed (default 256).
func WithDedupCapacity(n int) Option {
	return func(o *serverOptions) {
		if n < 1 {
			n = 1
		}
		o.dedupCap = n
	}
}

// WithMetricsRegistry has the server register its metric families on
// an existing obs registry (serve /metrics for several subsystems from
// one endpoint) instead of a private one. A registry can back at most
// one Server: family names are process-wide within a registry and
// duplicate registration panics.
func WithMetricsRegistry(r *obs.Registry) Option {
	return func(o *serverOptions) { o.metricsReg = r }
}

// WithSlowRunLog logs every Run request slower than threshold through
// logf (e.g. log.Printf) with tenant, plan id, batch count, duration
// and outcome — the structured breadcrumb for tail-latency triage.
// A zero threshold or nil logf disables it.
func WithSlowRunLog(threshold time.Duration, logf func(format string, args ...any)) Option {
	return func(o *serverOptions) {
		o.slowRun = threshold
		o.slowLogf = logf
	}
}

// errNilParams is deliberately a package-level sentinel (sentinelwrap):
// callers constructing servers from config can branch on it.
var errNilParams = errors.New("serve: nil parameters")

// NewServer builds a server for one parameter set and starts its
// executor pool. Callers own the listeners: combine with Serve, and
// Close to shut down.
func NewServer(params *heax.Params, opts ...Option) (*Server, error) {
	if params == nil {
		return nil, errNilParams
	}
	o := serverOptions{
		cacheCap:  64,
		admission: runtime.GOMAXPROCS(0),
		maxFrame:  DefaultMaxFrame,
		dedupCap:  256,
	}
	for _, opt := range opts {
		opt(&o)
	}
	var pb bytes.Buffer
	if err := heax.WriteParams(&pb, params); err != nil {
		return nil, fmt.Errorf("serve: serializing parameters: %w", err)
	}
	mreg := o.metricsReg
	if mreg == nil {
		mreg = obs.NewRegistry()
	}
	m := newServeMetrics(mreg)
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		params:     params,
		paramsBlob: pb.Bytes(),
		reg:        newRegistry(),
		cache:      newPlanCache(o.cacheCap, m),
		opts:       o,
		metrics:    m,
		adm:        newAdmitter(o.admission, o.defPolicy, o.policies, m),
		dedup:      newDedupCache(o.dedupCap),
		ctx:        ctx,
		cancel:     cancel,
		listeners:  make(map[net.Listener]bool),
		conns:      make(map[net.Conn]bool),
	}
	// Snapshot-style occupancy gauges read component state under the
	// component's own lock at scrape time (exposition holds no registry
	// lock while calling them, so the lock order is scrape → component,
	// never the reverse — no cycle).
	mreg.NewGaugeFunc("heax_serve_tenants",
		"Currently registered tenants.",
		func() float64 { return float64(s.reg.len()) })
	mreg.NewGaugeFunc("heax_serve_key_bytes",
		"Evaluation-key bytes held for registered tenants (serialized size = resident size).",
		func() float64 { return float64(s.reg.keyBytes()) })
	mreg.NewGaugeFunc("heax_serve_cached_plans",
		"Compiled plans resident in the LRU cache.",
		func() float64 { return float64(s.cache.len()) })
	mreg.NewGaugeFunc("heax_serve_queued_runs",
		"Input sets queued at admission across all tenants.",
		func() float64 { queued, _ := s.adm.snapshot(); return float64(queued) })
	s.execWG.Add(o.admission)
	for i := 0; i < o.admission; i++ {
		go s.executor()
	}
	return s, nil
}

// MetricsRegistry returns the obs registry holding the server's metric
// families — mount its Handler at /metrics (cmd/heax-serve does this
// behind -metrics-addr).
func (s *Server) MetricsRegistry() *obs.Registry { return s.metrics.reg }

// runJob is one input set bound for one plan — the unit of admission.
type runJob struct {
	ctx context.Context
	cp  *cachedPlan
	in  map[string]*heax.Ciphertext
	idx int
	// bytes is the job's estimated working set, charged against the
	// tenant's MaxBytes budget from submit until done.
	bytes int64
	out   []map[string]*heax.Ciphertext
	errs  []error
	wg    *sync.WaitGroup
}

func (s *Server) executor() {
	defer s.execWG.Done()
	for {
		job, tq, ok := s.adm.next()
		if !ok {
			return
		}
		s.runOne(job, tq)
	}
}

// runOne executes one dispatched job inside the executor's recover
// boundary: a panic escaping a kernel (or the test hook) fails this
// one job with ErrInternal and the worker lives on — the job is always
// marked done and its waiter always released, so no panic can wedge
// the admission accounting or the requesting connection.
func (s *Server) runOne(job *runJob, tq *tenantQueue) {
	defer func() {
		if r := recover(); r != nil {
			job.errs[job.idx] = fmt.Errorf("%w: recovered executor panic: %v", ErrInternal, r)
			s.metrics.panics.Inc()
		}
		s.adm.done(tq, job.bytes)
		job.wg.Done()
	}()
	if err := job.ctx.Err(); err != nil {
		// Expired or cancelled while queued: surface the typed error
		// without burning executor time.
		job.errs[job.idx] = err
		s.metrics.canceled.Inc()
		return
	}
	start := time.Now()
	if d := s.testRunDelay; d > 0 {
		time.Sleep(d)
	}
	if hook := s.testRunHook; hook != nil {
		hook(job.cp.key.tenant)
	}
	job.out[job.idx], job.errs[job.idx] = job.cp.plan.RunContext(job.ctx, job.in)
	if job.errs[job.idx] == nil {
		elapsed := time.Since(start)
		job.cp.observe(elapsed)
		job.cp.hist.Observe(elapsed.Seconds())
		s.completedRuns.Add(1)
		tq.mCompleted.Inc()
	} else if errors.Is(job.errs[job.idx], context.Canceled) {
		s.metrics.canceled.Inc()
	}
}

// Serve accepts connections on ln until Close or Shutdown (or a
// listener error) and handles each on its own goroutine. It always
// returns a non-nil error; after Close or Shutdown it is
// ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.listeners[ln] = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			stopping := s.closed || s.draining
			s.mu.Unlock()
			if stopping {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed || s.draining {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.conns[conn] = true
		s.connWG.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.connWG.Done()
			s.handleConn(conn)
		}()
	}
}

// ListenAndServe listens on the TCP address and serves.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Close shuts the server down hard: in-flight runs are cancelled,
// listeners and connections closed, and the executor pool drained.
// For a graceful stop that lets in-flight runs finish, use Shutdown.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lns := make([]net.Listener, 0, len(s.listeners))
	for ln := range s.listeners {
		lns = append(lns, ln)
	}
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	s.cancel()
	for _, ln := range lns {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.connWG.Wait()
	s.adm.close()
	s.execWG.Wait()
	return nil
}

// Shutdown drains the server gracefully: listeners close and new work
// (Run, Compile, Register) is rejected with ErrServerDraining, but
// every run already admitted — executing or queued — finishes and its
// response is flushed. When the drain completes (or ctx expires, or
// ctx was already expired — the hard-stop degenerate case) the server
// falls back to Close. Returns nil on a clean drain, ctx.Err() if the
// deadline cut it short.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	lns := make([]net.Listener, 0, len(s.listeners))
	for ln := range s.listeners {
		lns = append(lns, ln)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	drained := make(chan struct{})
	go func() {
		s.runWG.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.Close()
	return err
}

// beginRun gates a Run request on the lifecycle: rejected with a typed
// error while draining or closed, otherwise tracked until endRun so
// Shutdown can wait for it (through response flush).
func (s *Server) beginRun() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrServerClosed
	}
	if s.draining {
		return fmt.Errorf("%w: run rejected (in-flight runs are finishing)", ErrServerDraining)
	}
	s.runWG.Add(1)
	return nil
}

func (s *Server) endRun() { s.runWG.Done() }

// stopErr reports the lifecycle rejection for new non-Run work, or nil.
func (s *Server) stopErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrServerClosed
	}
	if s.draining {
		return fmt.Errorf("%w: request rejected during graceful drain", ErrServerDraining)
	}
	return nil
}

// Stats reports the server's current occupancy.
type Stats struct {
	Tenants      int
	CachedPlans  int
	QueuedRuns   int
	CanceledRuns int64
	// CompletedRuns counts input sets executed to completion.
	CompletedRuns int64
	// ShedRuns counts requests rejected at admission (ErrOverloaded or
	// deadline-infeasible ErrDeadlineExceeded) before any work ran.
	ShedRuns int64
	// DedupHits counts retried Runs answered from the dedup cache
	// instead of re-executed.
	DedupHits int64
	// PanicsRecovered counts panics caught at a recover boundary
	// (executor worker, request dispatch, connection handler) and
	// converted into a typed ErrInternal on one request. Nonzero means
	// a bug fired and the daemon survived it.
	PanicsRecovered int64
	// CacheHits / CacheMisses count compile-path plan-cache lookups (a
	// Run's plan fetch is deliberately uncounted); CacheEvictions counts
	// plans dropped for capacity, tenant eviction or staleness. All
	// three read the obs counters a /metrics scrape reports, so the two
	// never diverge by more than scrape timing.
	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64
	// KeyBytes is the serialized — and, framing aside, resident —
	// evaluation-key footprint of every currently registered tenant.
	KeyBytes int64
	// Draining reports a graceful shutdown in progress (new work is
	// being rejected while admitted runs finish) — the signal a
	// /healthz endpoint should turn into "not ready".
	Draining bool
}

// Stats snapshots registry, cache and admission occupancy.
func (s *Server) Stats() Stats {
	queued, shed := s.adm.snapshot()
	s.mu.Lock()
	draining := s.draining || s.closed
	s.mu.Unlock()
	return Stats{
		Tenants:         s.reg.len(),
		CachedPlans:     s.cache.len(),
		QueuedRuns:      queued,
		CanceledRuns:    int64(s.metrics.canceled.Value()),
		CompletedRuns:   s.completedRuns.Load(),
		ShedRuns:        shed,
		DedupHits:       s.dedupHits.Load(),
		PanicsRecovered: int64(s.metrics.panics.Value()),
		CacheHits:       int64(s.metrics.cacheHits.Value()),
		CacheMisses:     int64(s.metrics.cacheMisses.Value()),
		CacheEvictions:  int64(s.metrics.cacheEvictions.Value()),
		KeyBytes:        s.reg.keyBytes(),
		Draining:        draining,
	}
}

// SetTenantPolicy installs (or replaces) a tenant's admission policy
// at runtime — weight, in-flight cap, queue bound and byte budget take
// effect for all subsequent submissions, including while a backlog is
// draining. Zero fields inherit the server defaults, exactly as a
// WithTenantPolicy pin at construction would.
func (s *Server) SetTenantPolicy(name string, p TenantPolicy) {
	s.adm.setPolicy(name, p)
}

// RestoreTenant re-installs a tenant from durably stored state — the
// startup half of crash recovery. It registers the tenant exactly as a
// Register request would (the blob is validated against the server's
// parameter set) but does not append to the tenant log: the record is
// already in the log, that is where the blob came from.
func (s *Server) RestoreTenant(name string, keys []byte) error {
	evk, err := heax.ReadEvaluationKeySet(bytes.NewReader(keys), s.params)
	if err != nil {
		return fmt.Errorf("serve: restoring tenant %q: %w", name, err)
	}
	s.regMu.Lock()
	defer s.regMu.Unlock()
	return s.reg.register(name, evk, int64(len(keys)))
}

// --- Connection handling ---------------------------------------------------

func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		// The connection-level recover boundary: a panic that escapes a
		// request guard (framing, response encoding) tears down this one
		// connection, never the daemon.
		if r := recover(); r != nil {
			s.metrics.panics.Inc()
		}
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	// The connection context cancels in-flight work when the peer goes
	// away (or the server closes).
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	for {
		typ, n, err := readFrameHeader(br, s.opts.maxFrame)
		var payload []byte
		if err == nil && typ != reqRunEx && typ != reqRegister {
			// Control frames are read whole; Run and Register frames are
			// decoded straight off the connection, never buffered.
			payload, err = readFrameBody(br, n)
		}
		if err != nil {
			// Corrupt framing gets a best-effort error frame; a clean
			// EOF or closed connection just ends the handler.
			if errors.Is(err, heax.ErrCorrupt) {
				s.writeErr(bw, err)
			}
			return
		}
		var rtyp byte
		var rpayload []byte
		switch typ {
		case reqParams:
			rtyp, rpayload = respParams, s.paramsBlob
		case reqRegister:
			if !s.serveRegister(br, bw, n) {
				return
			}
			continue
		case reqUnregister:
			// Allowed during drain: releasing keys is cleanup, not work.
			rtyp = respOK
			err = s.guard(func() error { return s.handleUnregister(payload) })
		case reqCompile:
			rtyp = respPlan
			if err = s.stopErr(); err == nil {
				err = s.guard(func() (gerr error) {
					rpayload, gerr = s.handleCompile(payload)
					return gerr
				})
			}
		case reqRunEx:
			if !s.serveRun(ctx, cancel, conn, br, bw, n) {
				return
			}
			continue
		default:
			err = fmt.Errorf("serve: unknown request type %#x: %w", typ, heax.ErrCorrupt)
		}
		if err != nil {
			if !s.writeErr(bw, err) {
				return
			}
			continue
		}
		if err := writeFrame(bw, rtyp, rpayload); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// serveRun handles one Run frame whose n payload bytes are still on the
// wire, and reports whether the connection is still usable. The whole
// run — admission, execution, response flush — is tracked by runWG so a
// graceful drain never cuts a response mid-frame.
func (s *Server) serveRun(ctx context.Context, cancel context.CancelFunc, conn net.Conn, br *bufio.Reader, bw *bufio.Writer, n int) bool {
	frame := &io.LimitedReader{R: br, N: int64(n)}
	var out []map[string]*heax.Ciphertext
	err := s.beginRun()
	if err == nil {
		defer s.endRun()
		err = s.guard(func() (gerr error) {
			out, gerr = s.handleRun(ctx, cancel, conn, br, frame)
			return gerr
		})
	}
	if !discardRest(frame) {
		return false
	}
	if err != nil {
		return s.writeErr(bw, err)
	}
	return writeBatchFrame(bw, respBatches, nil, out) == nil
}

// serveRegister handles one Register frame whose n payload bytes are
// still on the wire, and reports whether the connection is still
// usable.
func (s *Server) serveRegister(br *bufio.Reader, bw *bufio.Writer, n int) bool {
	frame := &io.LimitedReader{R: br, N: int64(n)}
	err := s.stopErr()
	if err == nil {
		err = s.guard(func() error { return s.handleRegister(frame) })
	}
	if !discardRest(frame) {
		return false
	}
	if err != nil {
		return s.writeErr(bw, err)
	}
	return writeFrame(bw, respOK, nil) == nil && bw.Flush() == nil
}

// discardRest resynchronizes a streamed frame before the reply: whatever
// an early exit (draining, budget, a parse error part-way, a recovered
// panic) left unread of the frame is dropped, so the next frame header
// is where the reader expects it. A failure here is the connection's.
func discardRest(frame *io.LimitedReader) bool {
	_, err := io.CopyN(io.Discard, frame, frame.N)
	return err == nil
}

// guard is the per-request recover boundary: a panic anywhere in a
// request handler becomes a typed ErrInternal response for that one
// request, the connection stays up, and the daemon keeps serving every
// other tenant.
func (s *Server) guard(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.panics.Inc()
			err = fmt.Errorf("%w: recovered request panic: %v", ErrInternal, r)
		}
	}()
	return f()
}

func (s *Server) writeErr(bw *bufio.Writer, err error) bool {
	code, msg := errToCode(err)
	var pw payloadWriter
	pw.bytes([]byte{code})
	pw.bytes([]byte(msg))
	if werr := writeFrame(bw, respErr, pw.buf); werr != nil {
		return false
	}
	return bw.Flush() == nil
}

// registerRequest is one parsed Register request.
type registerRequest struct {
	tenant string
	evk    *heax.EvaluationKeySet
	// size is the encoded key set's length, which is also what the
	// decoded keys occupy: the charge against the tenant's byte budget.
	size int64
	// blob is the encoded key set as it arrived, kept only for the
	// tenant log.
	blob []byte
}

// parseRegisterRequest decodes a Register payload — tenant name, key
// set length, key set — from the frame it arrives in. The key set is
// decoded off the frame straight into its polynomials, after the
// tenant's byte budget has been checked against its length: an
// oversized set is shed before one key byte is read. With a tenant log
// the key set's bytes are also teed, as they pass, into a keyLog that
// ends as one buffer of exactly that length for the log record.
// Malformed input fails with an
// error wrapping heax.ErrCorrupt and may leave part of the frame unread.
func (s *Server) parseRegisterRequest(frame *io.LimitedReader) (*registerRequest, error) {
	name, pr, err := readHead(frame, 4, "register request")
	if err != nil {
		return nil, err
	}
	size, err := pr.u32("evaluation key set length")
	if err != nil {
		return nil, err
	}
	req := &registerRequest{tenant: name, size: int64(size)}
	if req.size != frame.N {
		return nil, fmt.Errorf("serve: evaluation key set claims %d bytes, the frame carries %d: %w", req.size, frame.N, heax.ErrCorrupt)
	}
	if limit := s.adm.policyFor(name).MaxBytes; limit > 0 && req.size > limit {
		return nil, fmt.Errorf("%w: tenant %q key set of %d bytes exceeds the %d-byte budget",
			ErrResourceExhausted, name, req.size, limit)
	}
	var keys io.Reader = frame
	var tee *keyLog
	if s.opts.tlog != nil {
		tee = &keyLog{size: int(req.size)}
		keys = io.TeeReader(frame, tee)
	}
	if req.evk, err = heax.ReadEvaluationKeySet(keys, s.params); err != nil {
		return nil, err
	}
	// The codec ignores bytes past the key set's end, as it always has.
	// They are read (and logged) too, so the tenant is registered only
	// once its whole frame has arrived.
	if _, err := io.Copy(io.Discard, keys); err != nil {
		return nil, fmt.Errorf("serve: reading the evaluation key set: %w: %w", err, heax.ErrCorrupt)
	}
	if frame.N != 0 {
		return nil, fmt.Errorf("serve: evaluation key set truncated %d bytes short: %w", frame.N, heax.ErrCorrupt)
	}
	if tee != nil {
		req.blob = tee.buf
	}
	return req, nil
}

// keyLog collects a key set's bytes for the tenant log as they pass. It
// grows as bytes arrive, doubling but never past the announced length,
// so what it holds follows what the peer has sent, never the length it
// claims: a peer that announces a gigabyte and goes silent costs the
// first 64 KB. A complete key set ends in one buffer of exactly its
// length, with no slack past it: a tenant log may keep the buffer as the
// tenant's state for as long as the tenant is registered.
type keyLog struct {
	buf  []byte
	size int
}

func (l *keyLog) Write(p []byte) (int, error) {
	if need := len(l.buf) + len(p); need > cap(l.buf) {
		c := min(max(2*cap(l.buf), 64<<10), l.size)
		grown := make([]byte, len(l.buf), max(c, need))
		copy(grown, l.buf)
		l.buf = grown
	}
	l.buf = append(l.buf, p...)
	return len(p), nil
}

func (s *Server) handleRegister(frame *io.LimitedReader) error {
	req, err := s.parseRegisterRequest(frame)
	if err != nil {
		return err
	}
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if err := s.reg.register(req.tenant, req.evk, req.size); err != nil {
		return err
	}
	if s.opts.tlog != nil {
		if lerr := s.opts.tlog.AppendRegister(req.tenant, req.blob); lerr != nil {
			// Roll back: an unlogged registration must not be acknowledged,
			// or a crash would silently forget a tenant the client believes
			// is registered.
			s.reg.unregister(req.tenant)
			return fmt.Errorf("serve: tenant log append failed (registration rolled back): %w", lerr)
		}
	}
	return nil
}

func (s *Server) handleUnregister(payload []byte) error {
	pr := payloadReader{buf: payload}
	name, err := pr.str("tenant name")
	if err != nil {
		return err
	}
	if err := pr.done("unregister request"); err != nil {
		return err
	}
	s.regMu.Lock()
	defer s.regMu.Unlock()
	// Log-before-evict, mirroring register's append-before-ack: if the
	// append fails the tenant simply stays registered (durable state
	// remains a faithful superset of acknowledged state), whereas
	// evicting first would resurrect the tenant on restart.
	if s.opts.tlog != nil {
		if _, err := s.reg.get(name); err != nil {
			return err
		}
		if lerr := s.opts.tlog.AppendUnregister(name); lerr != nil {
			return fmt.Errorf("serve: tenant log append failed (tenant stays registered): %w", lerr)
		}
	}
	return s.evictTenant(name)
}

// evictTenant unregisters a tenant and drops everything bound to the
// registration: cached plans (runs in flight finish on the plan they
// hold, and the keys become garbage after the last of them),
// admission-queue state, and dedup entries (a request id must never
// resolve to a result under evicted keys after the name is
// re-registered).
func (s *Server) evictTenant(name string) error {
	if err := s.reg.unregister(name); err != nil {
		return err
	}
	s.cache.purgeTenant(name)
	s.dedup.purgeTenant(name)
	s.adm.dropIdle(name)
	return nil
}

func (s *Server) handleCompile(payload []byte) ([]byte, error) {
	pr := payloadReader{buf: payload}
	name, err := pr.str("tenant name")
	if err != nil {
		return nil, err
	}
	dag, err := pr.blob("circuit description")
	if err != nil {
		return nil, err
	}
	if err := pr.done("compile request"); err != nil {
		return nil, err
	}
	// Canonicalize (decode → re-encode) so formatting differences in
	// client JSON do not split the cache, then key by tenant + digest.
	// The circuit's own codec is called directly: one decode and one
	// canonical encode, with no json.Unmarshal validity scan ahead of
	// the decoder's own and no compaction of the encoder's output, which
	// is already compact and HTML-escaped, so the bytes (and PlanID) are
	// what json.Marshal would give. null, trailing bytes and a wrong
	// version are refused as before.
	var circ heax.Circuit
	if err := circ.UnmarshalJSON(dag); err != nil {
		return nil, fmt.Errorf("%v: %w", err, heax.ErrCorrupt)
	}
	canonical, err := circ.MarshalJSON()
	if err != nil {
		return nil, fmt.Errorf("%v: %w", err, heax.ErrCorrupt)
	}
	id := digestCircuit(canonical)
	key := cacheKey{tenant: name, id: id}
	if cp, ok := s.cache.get(key); ok {
		// A hit only counts if the entry belongs to the name's current
		// registration: after an unregister (or unregister +
		// re-register with fresh keys) a lingering entry must never be
		// served — drop it and recompile against the live keys.
		if s.reg.live(cp.tenant) {
			return compileResponse(id, cp.steps, true), nil
		}
		s.cache.removeEntry(cp)
	}
	entry, err := s.reg.get(name)
	if err != nil {
		return nil, err
	}
	plan, err := circ.Compile(s.params, entry.evk)
	if err != nil {
		if errors.Is(err, heax.ErrKeyMissing) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %v", errCompile, err)
	}
	cp := &cachedPlan{key: key, plan: plan, tenant: entry, steps: plan.NumSteps(), tag: planTag(id)}
	cp.hist = s.metrics.runSeconds.With(name, cp.tag)
	plan.SetTracer(s.metrics.tracer)
	s.cache.add(cp)
	// If the tenant was evicted while we compiled, the purge may have
	// run before our insert landed; drop the entry ourselves rather than
	// let a stale plan keep evicted keys reachable. removeEntry is
	// pointer-precise, so it leaves alone an incumbent that kept the key.
	if !s.reg.live(entry) {
		s.cache.removeEntry(cp)
	}
	return compileResponse(id, cp.steps, false), nil
}

func compileResponse(id PlanID, steps int, cached bool) []byte {
	var pw payloadWriter
	pw.bytes(id[:])
	pw.u32(uint32(steps))
	flag := byte(0)
	if cached {
		flag = 1
	}
	pw.bytes([]byte{flag})
	return pw.buf
}

// runRequest is one parsed Run request.
type runRequest struct {
	tenant  string
	id      PlanID
	reqID   requestID     // zero = no retry dedup
	budget  time.Duration // remaining deadline budget; 0 = none
	batches []map[string]*heax.Ciphertext
}

// maxBudgetUS caps the wire deadline budget (~106 days in µs): larger
// values are a corrupt frame, not a quiet Duration overflow.
const maxBudgetUS = uint64(1) << 53

// runHeadFixedLen is the fixed-width tail of a Run head: plan id,
// request id, deadline budget, batch count.
const runHeadFixedLen = len(PlanID{}) + len(requestID{}) + 8 + 4

// readHead reads the small, bounded head of a streamed request frame:
// the tenant name's length prefix, then (for a plausible length) the
// name and the fixed bytes that follow it in one read. It returns the
// name and a parser over those fixed bytes; malformed input fails with
// an error wrapping heax.ErrCorrupt.
func readHead(frame *io.LimitedReader, fixed int, what string) (string, *payloadReader, error) {
	head := make([]byte, 4, 4+maxStringLen+fixed)
	if _, err := io.ReadFull(frame, head); err != nil {
		return "", nil, fmt.Errorf("serve: truncated tenant name: %w: %w", err, heax.ErrCorrupt)
	}
	if n := binary.LittleEndian.Uint32(head); n <= maxStringLen {
		head = head[:4+int(n)+fixed]
		if _, err := io.ReadFull(frame, head[4:]); err != nil {
			return "", nil, fmt.Errorf("serve: truncated %s head: %w: %w", what, err, heax.ErrCorrupt)
		}
	}
	pr := &payloadReader{buf: head}
	name, err := pr.str("tenant name")
	if err != nil {
		return "", nil, err
	}
	return name, pr, nil
}

// parseRunRequest decodes a Run payload from the frame it arrives in,
// batch by batch; malformed input fails with an error wrapping
// heax.ErrCorrupt and may leave part of the frame unread.
func (s *Server) parseRunRequest(frame *io.LimitedReader) (*runRequest, error) {
	name, pr, err := readHead(frame, runHeadFixedLen, "run request")
	if err != nil {
		return nil, err
	}
	req := &runRequest{tenant: name}
	idBytes, err := pr.take(len(PlanID{}), "plan id")
	if err != nil {
		return nil, err
	}
	copy(req.id[:], idBytes)
	rid, err := pr.take(len(requestID{}), "request id")
	if err != nil {
		return nil, err
	}
	copy(req.reqID[:], rid)
	budgetUS, err := pr.u64("deadline budget")
	if err != nil {
		return nil, err
	}
	if budgetUS > maxBudgetUS {
		return nil, fmt.Errorf("serve: deadline budget %d µs out of range: %w", budgetUS, heax.ErrCorrupt)
	}
	req.budget = time.Duration(budgetUS) * time.Microsecond
	n, err := pr.u32("batch count")
	if err != nil {
		return nil, err
	}
	req.batches, err = readBatches(frame, s.params, int(n), "run request")
	if err != nil {
		return nil, err
	}
	return req, nil
}

func (s *Server) handleRun(ctx context.Context, cancel context.CancelFunc, conn net.Conn, br *bufio.Reader, frame *io.LimitedReader) (out []map[string]*heax.Ciphertext, err error) {
	req, perr := s.parseRunRequest(frame)
	if perr != nil {
		return nil, perr
	}
	if s.opts.slowRun > 0 && s.opts.slowLogf != nil {
		start := time.Now()
		defer func() {
			if d := time.Since(start); d >= s.opts.slowRun {
				s.opts.slowLogf("serve: slow run tenant=%q plan=%x batches=%d dur=%v err=%v",
					req.tenant, req.id[:8], len(req.batches), d.Round(time.Microsecond), err)
			}
		}()
	}
	if req.reqID == (requestID{}) {
		return s.executeRun(ctx, cancel, conn, br, req)
	}
	// Idempotent retry: the request id keys a dedup entry. The first
	// arrival owns the execution; a retry joins it (the original may
	// still be computing after a dropped connection) or is answered
	// from the cached response — never executed a second time. An
	// attempt that failed (cancelled mid-run, shed, ...) is not cached,
	// so the retry re-claims and re-executes.
	key := dedupKey{tenant: req.tenant, id: req.reqID}
	for {
		e, owner := s.dedup.claim(key)
		if owner {
			out, err := s.executeRun(ctx, cancel, conn, br, req)
			s.dedup.complete(e, out, err)
			return out, err
		}
		select {
		case <-e.done:
			if e.err != nil {
				s.dedup.drop(e)
				continue
			}
			s.dedupHits.Add(1)
			s.metrics.dedupHits.With(req.tenant).Inc()
			return e.out, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func (s *Server) executeRun(ctx context.Context, cancel context.CancelFunc, conn net.Conn, br *bufio.Reader, req *runRequest) ([]map[string]*heax.Ciphertext, error) {
	// lookup, not get: run-path plan fetches must not dilute the
	// compile-path hit rate.
	cp, ok := s.cache.lookup(cacheKey{tenant: req.tenant, id: req.id})
	if ok && !s.reg.live(cp.tenant) {
		// Stale entry from an evicted (possibly re-registered) tenant:
		// never serve it — a fresh registration under the same name
		// must recompile against its own keys.
		s.cache.removeEntry(cp)
		ok = false
	}
	if !ok {
		return nil, fmt.Errorf("%w: tenant %q plan %x (compile it first)", ErrUnknownPlan, req.tenant, req.id[:4])
	}
	// From here the run holds cp, and through it the plan and the keys:
	// an eviction mid-run purges the cache but cannot free them.

	// The client's deadline budget propagates into every job context,
	// so a mid-run expiry aborts the plan executor with a typed error.
	if req.budget > 0 {
		var cancelBudget context.CancelFunc
		ctx, cancelBudget = context.WithTimeout(ctx, req.budget)
		defer cancelBudget()
	}

	// While the executors stream this request, watch the socket: a
	// vanished client cancels the connection context and the plan
	// executor abandons the remaining steps.
	stopWatch := watchDisconnect(conn, br, cancel)
	defer stopWatch()

	out := make([]map[string]*heax.Ciphertext, len(req.batches))
	errs := make([]error, len(req.batches))
	var wg sync.WaitGroup
	jobs := make([]*runJob, len(req.batches))
	runBytes := cp.plan.FootprintBytes()
	for i, in := range req.batches {
		jobs[i] = &runJob{ctx: ctx, cp: cp, in: in, idx: i, bytes: runBytes, out: out, errs: errs, wg: &wg}
	}
	wg.Add(len(jobs))
	// All-or-nothing admission: a full tenant queue, a blown memory
	// budget (key bytes + live working set) or an unmeetable deadline
	// rejects the whole request here, in O(ms), instead of blocking or
	// timing out mid-run.
	if err := s.adm.submit(req.tenant, jobs, cp.tenant.keyBytes, req.budget, cp.estNS.Load()); err != nil {
		wg.Add(-len(jobs))
		return nil, err
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				err = fmt.Errorf("%w: %v", ErrDeadlineExceeded, err)
			}
			return nil, fmt.Errorf("serve: batch %d: %w", i, err)
		}
	}
	// Bound the response by the same frame cap requests obey: an
	// explicit, actionable error beats shipping a frame the peer
	// must reject as corrupt (both sides share one cap contract).
	_, size, err := batchPrefixes(out)
	if err != nil {
		return nil, err
	}
	if size > int64(s.opts.maxFrame) {
		return nil, fmt.Errorf("serve: response of %d bytes exceeds the %d-byte frame cap (raise it on both sides or send fewer batches per request): %w",
			size, s.opts.maxFrame, ErrFrameTooLarge)
	}
	return out, nil
}

// watchDisconnect peeks the connection while a request is processed:
// an EOF or reset mid-request means the client is gone, so the
// connection context cancels and in-flight plan runs abort. The
// returned stop function pokes the blocked peek with an immediate read
// deadline and clears it again; pipelined bytes from a live client
// terminate the watch without being consumed.
func watchDisconnect(conn net.Conn, br *bufio.Reader, cancel context.CancelFunc) (stop func()) {
	stopped := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		_, err := br.Peek(1)
		select {
		case <-stopped:
			return
		default:
		}
		if err == nil {
			return // pipelined request: client is alive
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return
		}
		cancel()
	}()
	return func() {
		close(stopped)
		conn.SetReadDeadline(time.Now())
		<-finished
		conn.SetReadDeadline(time.Time{})
	}
}
