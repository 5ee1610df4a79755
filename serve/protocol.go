package serve

// The wire protocol: fixed-header frames carrying one message each.
//
//	frame := magic(u32 LE) | type(u8) | length(u32 LE) | payload
//
// Payloads are built from the heax serialization codecs (params, key
// sets, ciphertext batches) plus small length-prefixed strings. Every
// length is checked against the negotiated frame cap, and memory is
// only ever reserved for bytes that have arrived: a control frame's
// buffer grows with the payload (readFrameBody), and Run and Register
// frames are never buffered at all. A malformed frame fails with an
// error wrapping heax.ErrCorrupt.
//
// Run frames are streamed. The sender computes every batch length up
// front (heax.CiphertextBatchSize), writes the frame header and the
// small head, then encodes each batch from the ciphertexts' own memory
// onto the connection's bufio.Writer (writeBatchFrame). The receiver
// decodes each length-prefixed batch through an io.LimitedReader
// straight off the connection's bufio.Reader into freshly allocated
// polynomials (readBatches). Each ciphertext byte is therefore copied
// once per side — by the socket write and by the socket read.
//
// Register frames are streamed the same way: tenant name, then the key
// set as one length-prefixed blob whose length is computed from the
// key shapes (heax.EvaluationKeySetSize) and must be the rest of the
// frame. The client encodes the keys from their polynomials onto the
// connection (Client.RegisterContext); the server decodes them off it
// into the polynomials it registers (Server.parseRegisterRequest).
//
// A streamed frame can be abandoned part-read (parse error in a later
// batch, a blown byte budget, draining server). The server then
// discards the rest of the frame before it replies, so the connection
// stays synchronized exactly as it would had the frame been read whole;
// a client whose response fails to decode mid-frame closes the
// connection.

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"heax"
)

const frameMagic uint32 = 0x31535848 // "HXS1"

// DefaultMaxFrame bounds a frame payload (1 GiB): large enough for a
// Set-C key upload, small enough that a hostile length prefix cannot
// exhaust memory.
const DefaultMaxFrame = 1 << 30

// Message types. Requests have the high bit clear, responses set.
const (
	reqParams     byte = 0x01
	reqRegister   byte = 0x02
	reqUnregister byte = 0x03
	reqCompile    byte = 0x04
	// reqRunEx is the Run request: tenant, plan id, a 16-byte client
	// request id (zero = none), a u64 deadline budget in microseconds
	// (0 = none) and the input batches. Type 0x05 was the first Run
	// layout, without request id or budget; it is no longer served and
	// is answered like any other unknown request type.
	reqRunEx byte = 0x06

	respOK      byte = 0x80
	respParams  byte = 0x81
	respPlan    byte = 0x82
	respBatches byte = 0x83
	respErr     byte = 0xff
)

// Error codes carried by respErr frames, mapped back to sentinels on
// the client side.
const (
	codeInternal byte = iota
	codeCorrupt
	codeUnknownTenant
	codeTenantExists
	codeUnknownPlan
	codeKeyMissing
	codeCompile
	codeCanceled
	codeOverloaded
	codeDeadline
	codeDraining
	codeResourceExhausted
)

// Sentinel errors of the serving layer; wire errors arriving at the
// client wrap one of these (or a heax sentinel) so callers can branch
// with errors.Is.
var (
	// ErrUnknownTenant: the request names a tenant that is not
	// registered (or was evicted).
	ErrUnknownTenant = errors.New("serve: unknown tenant")
	// ErrTenantExists: Register for a name that is already bound to a
	// key set; unregister it first.
	ErrTenantExists = errors.New("serve: tenant already registered")
	// ErrUnknownPlan: the request references a plan id that is not in
	// the cache (never compiled, or evicted — compile again).
	ErrUnknownPlan = errors.New("serve: unknown plan")
	// ErrServerClosed: the server is shutting down.
	ErrServerClosed = errors.New("serve: server closed")
	// ErrServerDraining: the server is gracefully draining
	// (Server.Shutdown); in-flight runs finish, but new work is
	// rejected. Retry against another replica.
	ErrServerDraining = errors.New("serve: server draining")
	// ErrFrameTooLarge: a frame payload (request or response) exceeds
	// what the wire format or the configured frame cap can carry. The
	// frame was refused before any bytes hit the socket, so the stream
	// stays synchronized; send less per frame or raise the cap on both
	// sides.
	ErrFrameTooLarge = errors.New("serve: frame too large")
	// ErrOverloaded: the tenant's bounded admission queue is full. The
	// request was rejected immediately instead of queuing; back off and
	// retry (Client retry with WithRetry does this automatically).
	ErrOverloaded = errors.New("serve: overloaded")
	// ErrDeadlineExceeded: the request's deadline budget cannot be met —
	// either the admission estimator predicted the queue would eat the
	// budget (rejected in O(ms), before any work), or the deadline
	// expired mid-run. Not retryable without a larger budget.
	ErrDeadlineExceeded = errors.New("serve: deadline exceeded")
	// ErrResourceExhausted: admitting the work would push the tenant
	// past its TenantPolicy.MaxBytes memory budget (registered key
	// bytes plus the working set of queued and executing runs). The
	// request was shed before any allocation; free capacity
	// (unregister, smaller plans, fewer concurrent batches) or raise
	// the budget.
	ErrResourceExhausted = errors.New("serve: tenant resource budget exhausted")
	// ErrInternal: a panic inside the server was recovered and
	// converted into this typed failure of the one request that hit it.
	// The daemon keeps serving; the panic is also counted in
	// Stats.PanicsRecovered.
	ErrInternal = errors.New("serve: internal error")
)

// wireErrors maps each error code to the sentinel it carries, in the
// order encoding tries them: an error takes the code of the first entry
// it wraps (codeInternal when none), and a code decodes to the sentinel
// of its first entry. Cancellation goes first, whatever else it wraps.
var wireErrors = [...]struct {
	code     byte
	sentinel error
}{
	{codeCanceled, context.Canceled},
	{codeCorrupt, heax.ErrCorrupt},
	{codeOverloaded, ErrOverloaded},
	{codeDeadline, ErrDeadlineExceeded},
	{codeDeadline, context.DeadlineExceeded},
	{codeResourceExhausted, ErrResourceExhausted},
	{codeDraining, ErrServerDraining},
	{codeUnknownTenant, ErrUnknownTenant},
	{codeTenantExists, ErrTenantExists},
	{codeUnknownPlan, ErrUnknownPlan},
	{codeKeyMissing, heax.ErrKeyMissing},
	{codeCompile, errCompile},
	{codeInternal, ErrInternal},
}

func errToCode(err error) (byte, string) {
	for _, e := range wireErrors {
		if errors.Is(err, e.sentinel) {
			return e.code, err.Error()
		}
	}
	return codeInternal, err.Error()
}

// errCompile marks server-side compilation failures that are not key
// related (depth, scale, malformed DAG semantics).
var errCompile = errors.New("serve: compile failed")

func codeToErr(code byte, msg string) error {
	for _, e := range wireErrors {
		if e.code == code {
			return fmt.Errorf("serve: remote: %s: %w", msg, e.sentinel)
		}
	}
	// An unrecognized code means the peer speaks a wire dialect this side
	// does not: treat it as protocol corruption so retry logic refuses to
	// hammer an incompatible endpoint.
	return fmt.Errorf("serve: remote: unknown error code %d: %s: %w", code, msg, heax.ErrCorrupt)
}

const frameHeaderLen = 9

// writeFrameHeader announces a frame of n payload bytes; a payload the
// u32 length field cannot carry is refused rather than silently
// truncated into a desynchronized stream.
func writeFrameHeader(w io.Writer, typ byte, n int64) error {
	if n > int64(^uint32(0)) {
		return fmt.Errorf("serve: frame payload of %d bytes exceeds the wire format's 4 GiB limit: %w", n, ErrFrameTooLarge)
	}
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], frameMagic)
	hdr[4] = typ
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(n))
	_, err := w.Write(hdr[:])
	return err
}

// writeFrame emits one control frame from a fully assembled payload.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	if err := writeFrameHeader(w, typ, int64(len(payload))); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrameHeader reads one frame header, rejecting bad magic and a
// payload length above maxFrame. It allocates nothing.
func readFrameHeader(r io.Reader, maxFrame int) (typ byte, n int, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, err // clean EOF at a frame boundary is not corruption
	}
	if got := binary.LittleEndian.Uint32(hdr[0:4]); got != frameMagic {
		return 0, 0, fmt.Errorf("serve: bad frame magic %#x: %w", got, heax.ErrCorrupt)
	}
	size := binary.LittleEndian.Uint32(hdr[5:9])
	if int64(size) > int64(maxFrame) {
		return 0, 0, fmt.Errorf("serve: frame of %d bytes exceeds the %d-byte cap: %w", size, maxFrame, heax.ErrCorrupt)
	}
	return hdr[4], int(size), nil
}

// bodyChunk is the first reservation for a control frame's payload.
const bodyChunk = 64 << 10

// readFrameBody reads an n-byte control-frame payload. The buffer
// doubles as bytes arrive, so it never exceeds twice what the peer has
// actually sent (nor n): a length prefix alone reserves bodyChunk, not
// the frame cap.
func readFrameBody(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, bodyChunk))
	for got := 0; ; {
		m, err := io.ReadFull(r, buf[got:])
		if got += m; err != nil {
			return nil, fmt.Errorf("serve: truncated frame: %w: %w", err, heax.ErrCorrupt)
		}
		if got == n {
			return buf, nil
		}
		grown := make([]byte, min(n, 2*got))
		copy(grown, buf)
		buf = grown
	}
}

// readFrame reads one control frame whole.
func readFrame(r io.Reader, maxFrame int) (byte, []byte, error) {
	typ, n, err := readFrameHeader(r, maxFrame)
	if err != nil {
		return 0, nil, err
	}
	payload, err := readFrameBody(r, n)
	return typ, payload, err
}

// Payload encoding: frames embed strings as [u32 length | bytes] and
// serialized heax objects (params, key sets, ciphertext batches) as
// length-prefixed blobs [u32 length | object bytes]. Blobs keep the
// payload parseable without trusting the embedded codec to consume an
// exact byte count, and let the parser hand each object a private
// sub-slice (the heax readers buffer internally and may read ahead).

const maxStringLen = 1 << 8

// payloadWriter accumulates a frame payload.
type payloadWriter struct {
	buf []byte
}

func (p *payloadWriter) u32(v uint32) {
	p.buf = binary.LittleEndian.AppendUint32(p.buf, v)
}

func (p *payloadWriter) u64(v uint64) {
	p.buf = binary.LittleEndian.AppendUint64(p.buf, v)
}

func (p *payloadWriter) bytes(b []byte) {
	p.buf = append(p.buf, b...)
}

func (p *payloadWriter) str(s string) error {
	if len(s) == 0 || len(s) > maxStringLen {
		return fmt.Errorf("serve: string field length %d out of range [1, %d]: %w", len(s), maxStringLen, heax.ErrCorrupt)
	}
	p.u32(uint32(len(s)))
	p.buf = append(p.buf, s...)
	return nil
}

func (p *payloadWriter) blob(b []byte) {
	p.u32(uint32(len(b)))
	p.buf = append(p.buf, b...)
}

// batchPrefixes sizes a batch sequence — count, then each batch as a
// length-prefixed blob. It returns the sequence's u32 fields (the
// count, then every batch length) and its total encoded length, or the
// codec's error for a batch the format cannot carry.
func batchPrefixes(batches []map[string]*heax.Ciphertext) (prefixes []byte, total int64, err error) {
	prefixes = binary.LittleEndian.AppendUint32(make([]byte, 0, 4+4*len(batches)), uint32(len(batches)))
	for _, batch := range batches {
		n, err := heax.CiphertextBatchSize(batch)
		if err != nil {
			return nil, 0, err
		}
		prefixes = binary.LittleEndian.AppendUint32(prefixes, uint32(n))
		total += int64(n)
	}
	return prefixes, total + int64(len(prefixes)), nil
}

// writeBatchFrame streams one frame whose payload is head followed by
// the batch sequence, straight from the ciphertexts' memory, and
// flushes it. An unsendable frame (a batch the codec cannot carry, a
// payload over 4 GiB) is refused before the first byte is written, so
// any later failure is the transport's.
func writeBatchFrame(bw *bufio.Writer, typ byte, head []byte, batches []map[string]*heax.Ciphertext) error {
	prefixes, size, err := batchPrefixes(batches)
	if err != nil {
		return err
	}
	if err := writeFrameHeader(bw, typ, int64(len(head))+size); err != nil {
		return err
	}
	if _, err := bw.Write(head); err != nil {
		return err
	}
	if _, err := bw.Write(prefixes[:4]); err != nil {
		return err
	}
	for i, batch := range batches {
		if _, err := bw.Write(prefixes[4+4*i:][:4]); err != nil {
			return err
		}
		if err := heax.WriteCiphertextBatch(bw, batch); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readBatches decodes the n length-prefixed batches that make up the
// rest of a frame, each through its own io.LimitedReader over lr so a
// batch decoder can neither read past its blob nor past the frame.
// Bytes a blob carries beyond its batch are skipped; bytes the frame
// carries beyond its batches are corrupt. On error part of the frame
// may be unread: the caller discards lr or abandons the connection.
func readBatches(lr *io.LimitedReader, params *heax.Params, n int, what string) ([]map[string]*heax.Ciphertext, error) {
	batches := make([]map[string]*heax.Ciphertext, 0, min(n, 1024))
	var prefix [4]byte
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(lr, prefix[:]); err != nil {
			return nil, fmt.Errorf("serve: truncated ciphertext batch length: %w: %w", err, heax.ErrCorrupt)
		}
		size := int64(binary.LittleEndian.Uint32(prefix[:]))
		if size > lr.N {
			return nil, fmt.Errorf("serve: ciphertext batch claims %d bytes, %d remain: %w", size, lr.N, heax.ErrCorrupt)
		}
		blob := &io.LimitedReader{R: lr, N: size}
		batch, err := heax.ReadCiphertextBatch(blob, params)
		if err != nil {
			return nil, err
		}
		if _, err := io.CopyN(io.Discard, blob, blob.N); err != nil {
			return nil, fmt.Errorf("serve: truncated ciphertext batch: %w: %w", err, heax.ErrCorrupt)
		}
		batches = append(batches, batch)
	}
	if lr.N != 0 {
		return nil, fmt.Errorf("serve: %s carries %d trailing bytes: %w", what, lr.N, heax.ErrCorrupt)
	}
	return batches, nil
}

// payloadReader parses a frame payload in place: strings and blobs are
// sub-slices of the frame buffer, so parsing allocates nothing beyond
// the frame itself and a corrupt length can never over-allocate.
type payloadReader struct {
	buf []byte
	off int
}

func (p *payloadReader) remaining() int { return len(p.buf) - p.off }

func (p *payloadReader) u32(what string) (uint32, error) {
	if p.remaining() < 4 {
		return 0, fmt.Errorf("serve: truncated %s: %w", what, heax.ErrCorrupt)
	}
	v := binary.LittleEndian.Uint32(p.buf[p.off:])
	p.off += 4
	return v, nil
}

func (p *payloadReader) u64(what string) (uint64, error) {
	if p.remaining() < 8 {
		return 0, fmt.Errorf("serve: truncated %s: %w", what, heax.ErrCorrupt)
	}
	v := binary.LittleEndian.Uint64(p.buf[p.off:])
	p.off += 8
	return v, nil
}

func (p *payloadReader) take(n int, what string) ([]byte, error) {
	if n < 0 || p.remaining() < n {
		return nil, fmt.Errorf("serve: %s claims %d bytes, %d remain: %w", what, n, p.remaining(), heax.ErrCorrupt)
	}
	b := p.buf[p.off : p.off+n]
	p.off += n
	return b, nil
}

func (p *payloadReader) str(what string) (string, error) {
	n, err := p.u32(what)
	if err != nil {
		return "", err
	}
	if n == 0 || n > maxStringLen {
		return "", fmt.Errorf("serve: %s length %d out of range [1, %d]: %w", what, n, maxStringLen, heax.ErrCorrupt)
	}
	b, err := p.take(int(n), what)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (p *payloadReader) blob(what string) ([]byte, error) {
	n, err := p.u32(what)
	if err != nil {
		return nil, err
	}
	return p.take(int(n), what)
}

// done rejects trailing garbage, so a framing bug surfaces as
// ErrCorrupt instead of a silent misparse.
func (p *payloadReader) done(what string) error {
	if p.remaining() != 0 {
		return fmt.Errorf("serve: %s carries %d trailing bytes: %w", what, p.remaining(), heax.ErrCorrupt)
	}
	return nil
}
