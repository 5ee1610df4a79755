package serve

import (
	"bufio"
	"bytes"
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	mathrand "math/rand"
	"net"
	"time"

	"heax"
)

// Client is the wire-protocol handle an application uses against a
// heax-serve daemon: fetch the server's parameter set, register a
// tenant's evaluation keys, compile circuit descriptions into cached
// plans, and stream ciphertext batches through them. A Client is one
// connection and is not safe for concurrent use; open one per
// goroutine (the server interleaves them through weighted-fair
// admission).
//
// Every call has a Context variant (RunContext, CompileContext, ...)
// whose deadline bounds the socket reads and writes and — for Run —
// travels to the server as a remaining-time budget, so an overloaded
// server sheds the request immediately instead of letting it rot in a
// queue. Clients built by Dial/DialContext can opt into idempotent
// Run retries (WithRetry): each Run carries a generated request id,
// and a retry after a dropped connection reconnects, backs off with
// jitter, and is answered from the server's dedup cache if the
// original execution completed — never executed twice.
type Client struct {
	conn     net.Conn
	br       *bufio.Reader
	bw       *bufio.Writer
	params   *heax.Params
	maxFrame int
	addr     string // empty for NewClient: no redial possible
	cfg      dialConfig
	rng      *mathrand.Rand // backoff jitter
}

// String renders a plan id as hex.
func (id PlanID) String() string { return hex.EncodeToString(id[:]) }

// PlanInfo describes a compiled (or cache-hit) plan.
type PlanInfo struct {
	ID    PlanID
	Steps int
	// Cached reports a server-side cache hit: the circuit was already
	// compiled for this tenant.
	Cached bool
}

type dialConfig struct {
	dialTimeout time.Duration
	callTimeout time.Duration
	retries     int
	backoff     time.Duration
}

// DialOption configures Dial/DialContext.
type DialOption func(*dialConfig)

// DefaultDialTimeout bounds Dial's connect + parameter handshake when
// the caller supplies no deadline of its own.
const DefaultDialTimeout = 10 * time.Second

// WithDialTimeout overrides the default connect + handshake timeout
// (0 disables it; DialContext's ctx still applies).
func WithDialTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) { c.dialTimeout = d }
}

// WithCallTimeout applies a default deadline to every call made with a
// context that has none (default 0 = unbounded — encrypted runs can
// legitimately take a long time).
func WithCallTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) { c.callTimeout = d }
}

// WithRetry opts Run into idempotent retry: up to attempts additional
// tries after a connection failure or an ErrOverloaded shed, sleeping
// a jittered exponential backoff starting at base between tries. The
// request id generated for the first attempt is reused, so the server
// dedups — a retried Run is never double-executed (the retry joins the
// in-flight execution or is answered from the response cache).
func WithRetry(attempts int, base time.Duration) DialOption {
	return func(c *dialConfig) {
		if attempts < 0 {
			attempts = 0
		}
		if base <= 0 {
			base = 50 * time.Millisecond
		}
		c.retries = attempts
		c.backoff = base
	}
}

// Dial connects to a heax-serve daemon and fetches its parameter set,
// bounded by DefaultDialTimeout (override with WithDialTimeout).
func Dial(addr string, opts ...DialOption) (*Client, error) {
	return DialContext(context.Background(), addr, opts...)
}

// DialContext is Dial bounded by ctx: connect and the parameter
// handshake respect the earlier of ctx's deadline and the dial
// timeout.
func DialContext(ctx context.Context, addr string, opts ...DialOption) (*Client, error) {
	cfg := dialConfig{dialTimeout: DefaultDialTimeout}
	for _, opt := range opts {
		opt(&cfg)
	}
	c := &Client{
		addr: addr,
		cfg:  cfg,
		rng:  mathrand.New(mathrand.NewSource(time.Now().UnixNano())),
	}
	if err := c.connect(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// connect dials (or re-dials) addr and performs the parameter
// handshake under the configured timeout.
func (c *Client) connect(ctx context.Context) error {
	if c.cfg.dialTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.dialTimeout)
		defer cancel()
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return err
	}
	nc, err := newClientConn(ctx, conn)
	if err != nil {
		return err
	}
	c.conn, c.br, c.bw, c.params, c.maxFrame = nc.conn, nc.br, nc.bw, nc.params, nc.maxFrame
	return nil
}

// NewClient wraps an established connection (the server side of the
// handshake is a running Server) and fetches the parameter set. A
// Client built this way cannot reconnect, so Run retries only re-send
// on the same connection for server-shed (ErrOverloaded) failures.
func NewClient(conn net.Conn) (*Client, error) {
	return newClientConn(context.Background(), conn)
}

func newClientConn(ctx context.Context, conn net.Conn) (*Client, error) {
	c := &Client{
		conn:     conn,
		br:       bufio.NewReaderSize(conn, 64<<10),
		bw:       bufio.NewWriterSize(conn, 64<<10),
		maxFrame: DefaultMaxFrame,
		rng:      mathrand.New(mathrand.NewSource(time.Now().UnixNano())),
	}
	payload, err := c.roundTrip(ctx, reqParams, nil, respParams)
	if err != nil {
		conn.Close()
		return nil, err
	}
	params, err := heax.ReadParams(bytes.NewReader(payload))
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.params = params
	return c, nil
}

// Params returns the server's parameter set; clients encode, encrypt
// and decrypt against it (the reconstruction is bit-identical to the
// server's, so results match the in-process evaluator exactly).
func (c *Client) Params() *heax.Params { return c.params }

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// callCtx applies the default call timeout to a deadline-less context.
func (c *Client) callCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.cfg.callTimeout > 0 {
		if _, ok := ctx.Deadline(); !ok {
			return context.WithTimeout(ctx, c.cfg.callTimeout)
		}
	}
	return ctx, func() {}
}

// applyCtx projects ctx onto the connection: the deadline bounds every
// read and write, and a cancellation pokes any blocked I/O loose with
// an immediate deadline. The returned stop clears both again.
func (c *Client) applyCtx(ctx context.Context) (stop func()) {
	if ctx.Done() == nil {
		return func() {}
	}
	if dl, ok := ctx.Deadline(); ok {
		c.conn.SetDeadline(dl)
	}
	stopped := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		select {
		case <-ctx.Done():
			c.conn.SetDeadline(time.Now())
		case <-stopped:
		}
	}()
	return func() {
		close(stopped)
		<-finished
		c.conn.SetDeadline(time.Time{})
	}
}

// abandonErr converts an I/O failure caused by ctx expiry into the
// typed contract error. The wire may be mid-frame at that point, so
// the connection is poisoned and closed; a retrying client redials.
func (c *Client) abandonErr(ctx context.Context, err error) error {
	// The connection deadline and the context timer race by design, so
	// the context may not have fired yet when the I/O call fails —
	// check the wall clock against the deadline as well.
	dl, hasDL := ctx.Deadline()
	switch {
	case ctx.Err() == context.DeadlineExceeded || (hasDL && !time.Now().Before(dl)):
		c.conn.Close()
		return fmt.Errorf("serve: call abandoned at deadline: %w", ErrDeadlineExceeded)
	case ctx.Err() == context.Canceled:
		c.conn.Close()
		return fmt.Errorf("serve: call canceled: %w", context.Canceled)
	}
	return err
}

func (c *Client) roundTrip(ctx context.Context, req byte, payload []byte, want byte) ([]byte, error) {
	return c.exchange(ctx, func(bw *bufio.Writer) error { return writeFrame(bw, req, payload) }, want)
}

// exchange writes one request frame through send, flushes it and reads
// the control-frame response, all under ctx.
func (c *Client) exchange(ctx context.Context, send func(*bufio.Writer) error, want byte) ([]byte, error) {
	stop := c.applyCtx(ctx)
	defer stop()
	if err := send(c.bw); err != nil {
		return nil, c.abandonErr(ctx, err)
	}
	if err := c.bw.Flush(); err != nil {
		return nil, c.abandonErr(ctx, err)
	}
	typ, resp, err := readFrame(c.br, c.maxFrame)
	if err != nil {
		return nil, c.abandonErr(ctx, err)
	}
	return resp, responseErr(typ, resp, want)
}

// responseErr maps an error frame back to its sentinel and refuses a
// response of any type but want.
func responseErr(typ byte, resp []byte, want byte) error {
	if typ == respErr {
		if len(resp) < 1 {
			return fmt.Errorf("serve: malformed error frame: %w", heax.ErrCorrupt)
		}
		return codeToErr(resp[0], string(resp[1:]))
	}
	if typ != want {
		return fmt.Errorf("serve: expected response %#x, got %#x: %w", want, typ, heax.ErrCorrupt)
	}
	return nil
}

// Register uploads a tenant's evaluation key set. The name must be
// free; Unregister releases it.
func (c *Client) Register(tenant string, evk *heax.EvaluationKeySet) error {
	return c.RegisterContext(context.Background(), tenant, evk)
}

// RegisterContext is Register with a deadline: ctx bounds the upload's
// socket writes and the wait for the server's acknowledgement.
//
// The key set is streamed: its length is computed from the key shapes,
// and the keys are encoded straight from their polynomials onto the
// connection, so no encoded copy of the set is ever held.
func (c *Client) RegisterContext(ctx context.Context, tenant string, evk *heax.EvaluationKeySet) error {
	ctx, cancel := c.callCtx(ctx)
	defer cancel()
	var pw payloadWriter
	if err := pw.str(tenant); err != nil {
		return err
	}
	size, err := heax.EvaluationKeySetSize(evk)
	if err != nil {
		return err
	}
	pw.u32(uint32(size))
	_, err = c.exchange(ctx, func(bw *bufio.Writer) error {
		if err := writeFrameHeader(bw, reqRegister, int64(len(pw.buf))+int64(size)); err != nil {
			return err
		}
		if _, err := bw.Write(pw.buf); err != nil {
			return err
		}
		return heax.WriteEvaluationKeySet(bw, evk)
	}, respOK)
	return err
}

// Unregister evicts a tenant: its name is freed and its cached plans
// dropped. Runs already in flight finish on the plan and keys they
// hold; the server frees the keys once the last of them returns.
func (c *Client) Unregister(tenant string) error {
	return c.UnregisterContext(context.Background(), tenant)
}

// UnregisterContext is Unregister with a deadline.
func (c *Client) UnregisterContext(ctx context.Context, tenant string) error {
	ctx, cancel := c.callCtx(ctx)
	defer cancel()
	var pw payloadWriter
	if err := pw.str(tenant); err != nil {
		return err
	}
	_, err := c.roundTrip(ctx, reqUnregister, pw.buf, respOK)
	return err
}

// Compile ships a circuit DAG and compiles it against the tenant's
// registered keys into the server's plan cache, returning the plan id
// to run against. Compiling the same circuit again is a cache hit.
func (c *Client) Compile(tenant string, circ *heax.Circuit) (PlanInfo, error) {
	return c.CompileContext(context.Background(), tenant, circ)
}

// CompileContext is Compile with a deadline on the round trip.
func (c *Client) CompileContext(ctx context.Context, tenant string, circ *heax.Circuit) (PlanInfo, error) {
	if circ == nil {
		return PlanInfo{}, fmt.Errorf("serve: compile: nil circuit: %w", heax.ErrInvalidCircuit)
	}
	ctx, cancel := c.callCtx(ctx)
	defer cancel()
	dag, err := circ.MarshalJSON()
	if err != nil {
		return PlanInfo{}, err
	}
	var pw payloadWriter
	if err := pw.str(tenant); err != nil {
		return PlanInfo{}, err
	}
	pw.blob(dag)
	resp, err := c.roundTrip(ctx, reqCompile, pw.buf, respPlan)
	if err != nil {
		return PlanInfo{}, err
	}
	pr := payloadReader{buf: resp}
	idBytes, err := pr.take(len(PlanID{}), "plan id")
	if err != nil {
		return PlanInfo{}, err
	}
	var info PlanInfo
	copy(info.ID[:], idBytes)
	steps, err := pr.u32("step count")
	if err != nil {
		return PlanInfo{}, err
	}
	info.Steps = int(steps)
	flag, err := pr.take(1, "cache flag")
	if err != nil {
		return PlanInfo{}, err
	}
	info.Cached = flag[0] != 0
	if err := pr.done("compile response"); err != nil {
		return PlanInfo{}, err
	}
	return info, nil
}

// Run streams input batches through a compiled plan and returns one
// named output set per input set, in order. The server admits the
// batches through its weighted-fair window, so concurrent tenants
// interleave in proportion to their weights.
func (c *Client) Run(tenant string, id PlanID, batches []map[string]*heax.Ciphertext) ([]map[string]*heax.Ciphertext, error) {
	return c.RunContext(context.Background(), tenant, id, batches)
}

// RunContext is Run with a deadline and (if the client was dialed
// WithRetry) idempotent retry. The remaining budget of ctx's deadline
// travels with the request: a server that cannot meet it sheds the
// request immediately with ErrDeadlineExceeded instead of queuing it,
// and a mid-run expiry aborts with the same typed error. On a
// connection failure the client reconnects and retries with jittered
// exponential backoff, reusing the request id so the server never
// executes the Run twice.
func (c *Client) RunContext(ctx context.Context, tenant string, id PlanID, batches []map[string]*heax.Ciphertext) ([]map[string]*heax.Ciphertext, error) {
	ctx, cancel := c.callCtx(ctx)
	defer cancel()
	var pw payloadWriter
	if err := pw.str(tenant); err != nil {
		return nil, err
	}
	pw.bytes(id[:])
	// Only retry-enabled clients claim dedup state on the server: a
	// zero id means "no retry coming", so the server keeps no outputs
	// around for it.
	var reqID requestID
	if c.cfg.retries > 0 {
		reqID = newRequestID()
	}
	pw.bytes(reqID[:])
	budgetOff := len(pw.buf)
	pw.u64(0) // deadline budget, patched per attempt
	var lastErr error
	for attempt := 0; ; attempt++ {
		// Every attempt streams the request from the caller's
		// ciphertexts again; no encoded copy is kept between tries.
		patchBudget(pw.buf[budgetOff:], ctx)
		out, err := c.runOnce(ctx, pw.buf, batches)
		if err == nil {
			return out, nil
		}
		lastErr = err
		if attempt >= c.cfg.retries || ctx.Err() != nil || !retryable(err) {
			return nil, err
		}
		if err := c.backoff(ctx, attempt); err != nil {
			return nil, lastErr
		}
		if transient(lastErr) {
			// The connection is dirty (dropped, mid-frame, desynced):
			// reconnect before re-sending. Without an address (NewClient)
			// the failure is final.
			if c.addr == "" {
				return nil, lastErr
			}
			c.conn.Close()
			if err := c.connect(ctx); err != nil {
				lastErr = err
				if ctx.Err() != nil {
					return nil, lastErr
				}
			}
		}
	}
}

// runOnce is one Run attempt: the request is streamed from the batches'
// own memory behind head, and the response's batches are decoded
// straight off the connection.
func (c *Client) runOnce(ctx context.Context, head []byte, batches []map[string]*heax.Ciphertext) ([]map[string]*heax.Ciphertext, error) {
	stop := c.applyCtx(ctx)
	defer stop()
	if err := writeBatchFrame(c.bw, reqRunEx, head, batches); err != nil {
		return nil, c.abandonErr(ctx, err)
	}
	typ, n, err := readFrameHeader(c.br, c.maxFrame)
	if err != nil {
		return nil, c.abandonErr(ctx, err)
	}
	if typ != respBatches {
		// An error frame is small: read it whole, as roundTrip does.
		resp, err := readFrameBody(c.br, n)
		if err != nil {
			return nil, c.abandonErr(ctx, err)
		}
		return nil, responseErr(typ, resp, respBatches)
	}
	out, err := readRunResponse(&io.LimitedReader{R: c.br, N: int64(n)}, c.params, len(batches))
	if err != nil {
		// The frame is part-read, so the stream position is unknown:
		// abandon the connection, as after any desync. A retrying
		// client redials.
		c.conn.Close()
		return nil, c.abandonErr(ctx, err)
	}
	return out, nil
}

func readRunResponse(frame *io.LimitedReader, params *heax.Params, sent int) ([]map[string]*heax.Ciphertext, error) {
	var count [4]byte
	if _, err := io.ReadFull(frame, count[:]); err != nil {
		return nil, fmt.Errorf("serve: truncated batch count: %w: %w", err, heax.ErrCorrupt)
	}
	if n := binary.LittleEndian.Uint32(count[:]); int64(n) != int64(sent) {
		return nil, fmt.Errorf("serve: sent %d batches, received %d: %w", sent, n, heax.ErrCorrupt)
	}
	return readBatches(frame, params, sent, "run response")
}

// backoff sleeps the jittered exponential delay for attempt, capped at
// 32× base, or returns early when ctx expires.
func (c *Client) backoff(ctx context.Context, attempt int) error {
	base := c.cfg.backoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	shift := attempt
	if shift > 5 {
		shift = 5
	}
	d := base << shift
	d += time.Duration(c.rng.Int63n(int64(base))) // full jitter on top
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// newRequestID draws a random 16-byte id; the zero id (drawn only if
// the system's entropy source fails) disables server-side dedup.
func newRequestID() requestID {
	var id requestID
	io.ReadFull(rand.Reader, id[:])
	return id
}

// patchBudget writes ctx's remaining deadline budget (µs) into the
// reserved u64 of an encoded Run payload. No deadline encodes 0.
func patchBudget(b []byte, ctx context.Context) {
	var us uint64
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem > 0 {
			us = uint64(rem / time.Microsecond)
			if us == 0 {
				us = 1 // expiring now: still a deadline, not "none"
			}
		} else {
			us = 1
		}
	}
	var pw payloadWriter
	pw.u64(us)
	copy(b, pw.buf)
}

// retryable reports whether a Run failure may be retried: transport
// errors (the response was lost; dedup makes the re-send idempotent)
// and ErrOverloaded sheds (the queue was full; back off and re-offer).
// Every other typed server error is a deterministic verdict.
func retryable(err error) bool {
	return errors.Is(err, ErrOverloaded) || transient(err)
}

// transient reports connection-level failures that require a redial.
func transient(err error) bool {
	if errors.Is(err, ErrOverloaded) {
		return false // server answered; the connection is fine
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe)
}
