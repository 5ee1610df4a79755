package ckks

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"heax/internal/ring"
)

// Binary serialization for parameters, ciphertexts and keys: the wire
// format a client and an HEAX-accelerated server exchange over PCIe/
// network (Section 5.2 moves exactly these objects). Format: magic,
// version, then little-endian fixed-width fields; polynomials are raw
// rows of 64-bit words.
//
// The codec moves each polynomial byte once. A residue row goes to the
// writer, and arrives from the reader, as the byte image of the row's
// own memory (ring.WriteRow / ring.ReadRow), so a large row bypasses the
// bufio layer entirely and lands in (or leaves from) the polynomial it
// belongs to. The small fixed-width fields are encoded in place in the
// bufio buffers (AvailableBuffer on the way out, Peek on the way in):
// no reflection, no boxing, no per-field scratch. Every public entry
// wraps its stream in bufio — which returns the stream itself when it
// already is a large enough bufio.Writer/Reader, so a caller streaming
// onto a connection's own buffer pays for no second one.

const (
	serialMagic   uint32 = 0x48454158 // "HEAX"
	serialVersion uint32 = 1
)

type objectKind uint32

const (
	kindParams objectKind = iota + 1
	kindCiphertext
	kindPlaintext
	kindSecretKey
	kindPublicKey
	kindSwitchingKey
	kindGaloisKey
	kindEvalKeys
	kindCiphertextBatch
)

// Readers bound every length prefix before allocating: a corrupted or
// hostile prefix must yield ErrCorrupt, not an over-allocation (let
// alone a panic). These caps are far above anything the parameter sets
// produce while keeping the worst-case allocation a prefix can trigger
// small.
const (
	maxBatchEntries = 1 << 12
	maxEntryNameLen = 1 << 8
	maxGaloisKeys   = 1 << 14
)

// Encoded sizes of the fixed parts, for CiphertextBatchSize and
// EvaluationKeysSize.
const (
	headerSize         = 12        // magic, version, kind
	polyShapeSize      = 8         // rows, degree
	ciphertextMetaSize = 8 + 4 + 4 // scale bits, level, component count
)

// corrupted normalizes low-level read failures into the ErrCorrupt
// sentinel: a stream that ends (io.EOF / io.ErrUnexpectedEOF) in the
// middle of an object is a truncated blob, and any other transport
// error equally leaves the object unreconstructable. The underlying
// error stays in the chain for errors.Is.
func corrupted(what string, err error) error {
	if err == nil || errors.Is(err, ErrCorrupt) {
		return err
	}
	return fmt.Errorf("ckks: %s: %w: %w", what, err, ErrCorrupt)
}

// writeU32 and writeU64 encode fixed-width fields straight into the
// writer's buffer.
func writeU32(bw *bufio.Writer, vs ...uint32) error {
	if bw.Available() < 4*len(vs) {
		if err := bw.Flush(); err != nil {
			return err
		}
	}
	b := bw.AvailableBuffer()
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	_, err := bw.Write(b)
	return err
}

func writeU64(bw *bufio.Writer, v uint64) error {
	if bw.Available() < 8 {
		if err := bw.Flush(); err != nil {
			return err
		}
	}
	_, err := bw.Write(binary.LittleEndian.AppendUint64(bw.AvailableBuffer(), v))
	return err
}

// readU32 and readU64 decode fixed-width fields in the reader's buffer.
func readU32(br *bufio.Reader, what string) (uint32, error) {
	b, err := br.Peek(4)
	if err != nil {
		return 0, corrupted(what, err)
	}
	v := binary.LittleEndian.Uint32(b)
	br.Discard(4)
	return v, nil
}

func readU64(br *bufio.Reader, what string) (uint64, error) {
	b, err := br.Peek(8)
	if err != nil {
		return 0, corrupted(what, err)
	}
	v := binary.LittleEndian.Uint64(b)
	br.Discard(8)
	return v, nil
}

func writeHeader(bw *bufio.Writer, kind objectKind) error {
	return writeU32(bw, serialMagic, serialVersion, uint32(kind))
}

func readHeader(br *bufio.Reader, want objectKind) error {
	b, err := br.Peek(headerSize)
	if err != nil {
		return corrupted("object header", err)
	}
	magic, version, kind := binary.LittleEndian.Uint32(b), binary.LittleEndian.Uint32(b[4:]), binary.LittleEndian.Uint32(b[8:])
	br.Discard(headerSize)
	if magic != serialMagic {
		return fmt.Errorf("ckks: bad magic %#x: %w", magic, ErrCorrupt)
	}
	if version != serialVersion {
		return fmt.Errorf("ckks: unsupported version %d: %w", version, ErrCorrupt)
	}
	if kind != uint32(want) {
		return fmt.Errorf("ckks: expected object kind %d, found %d: %w", want, kind, ErrCorrupt)
	}
	return nil
}

func polySize(p *ring.Poly) int {
	return polyShapeSize + 8*p.Rows()*len(p.Coeffs[0])
}

func writePoly(bw *bufio.Writer, p *ring.Poly) error {
	if err := writeU32(bw, uint32(p.Rows()), uint32(len(p.Coeffs[0]))); err != nil {
		return err
	}
	for _, row := range p.Coeffs {
		if err := ring.WriteRow(bw, row); err != nil {
			return err
		}
	}
	return nil
}

func readPoly(br *bufio.Reader, ctx *ring.Context) (*ring.Poly, error) {
	rows, err := readU32(br, "polynomial shape")
	if err != nil {
		return nil, err
	}
	n, err := readU32(br, "polynomial shape")
	if err != nil {
		return nil, err
	}
	// Shape checks precede any allocation, so an oversized prefix can
	// never make the reader reserve memory the basis does not justify.
	if int(n) != ctx.N {
		return nil, fmt.Errorf("ckks: polynomial degree %d does not match context %d: %w", n, ctx.N, ErrCorrupt)
	}
	if rows == 0 || int(rows) > ctx.K() {
		return nil, fmt.Errorf("ckks: polynomial rows %d out of range: %w", rows, ErrCorrupt)
	}
	p := ctx.NewPoly(int(rows))
	for i, row := range p.Coeffs {
		if err := ring.ReadRow(br, row); err != nil {
			return nil, corrupted("polynomial row", err)
		}
		// Validate residues against the basis while the row is still in
		// cache, so corrupted blobs fail fast; p is dropped on failure,
		// so no out-of-range residue is ever observable.
		prime := ctx.Basis.Primes[i]
		for _, v := range row {
			if v >= prime {
				return nil, fmt.Errorf("ckks: residue %d out of range for prime %d: %w", v, prime, ErrCorrupt)
			}
		}
	}
	return p, nil
}

// WriteParams serializes the realized parameters (actual primes, so the
// receiver reconstructs bit-identical contexts).
func WriteParams(w io.Writer, p *Params) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, kindParams); err != nil {
		return err
	}
	if err := writeU32(bw, uint32(p.LogN), uint32(p.LogScale), uint32(len(p.Q))); err != nil {
		return err
	}
	if err := ring.WriteRow(bw, p.Q); err != nil {
		return err
	}
	if err := writeU64(bw, p.P); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadParams reconstructs parameters written by WriteParams.
func ReadParams(r io.Reader) (*Params, error) {
	br := bufio.NewReader(r)
	if err := readHeader(br, kindParams); err != nil {
		return nil, err
	}
	logN, err := readU32(br, "params")
	if err != nil {
		return nil, err
	}
	logScale, err := readU32(br, "params")
	if err != nil {
		return nil, err
	}
	k, err := readU32(br, "params")
	if err != nil {
		return nil, err
	}
	if k == 0 || k > 64 {
		return nil, fmt.Errorf("ckks: implausible prime count %d: %w", k, ErrCorrupt)
	}
	q := make([]uint64, k)
	if err := ring.ReadRow(br, q); err != nil {
		return nil, corrupted("params primes", err)
	}
	special, err := readU64(br, "params special prime")
	if err != nil {
		return nil, err
	}
	return ParamsFromRaw(int(logN), q, special, int(logScale))
}

// ParamsFromRaw builds parameters from explicit primes (as a receiving
// party does); it validates the NTT-friendliness constraints.
func ParamsFromRaw(logN int, q []uint64, special uint64, logScale int) (*Params, error) {
	if logN < 2 || logN > 17 {
		return nil, fmt.Errorf("ckks: LogN %d out of range", logN)
	}
	n := 1 << logN
	all := append(append([]uint64(nil), q...), special)
	rqp, err := ring.NewContext(n, all)
	if err != nil {
		return nil, err
	}
	return &Params{
		LogN: logN, N: n, Q: append([]uint64(nil), q...), P: special,
		LogScale: logScale, RingQP: rqp,
	}, nil
}

// WriteCiphertext serializes a ciphertext.
func WriteCiphertext(w io.Writer, ct *Ciphertext) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, kindCiphertext); err != nil {
		return err
	}
	if err := writeCiphertextBody(bw, ct); err != nil {
		return err
	}
	return bw.Flush()
}

// writeCiphertextBody is the header-less ciphertext encoding, shared by
// WriteCiphertext and the batch codec.
func writeCiphertextBody(bw *bufio.Writer, ct *Ciphertext) error {
	if err := writeU64(bw, math.Float64bits(ct.Scale)); err != nil {
		return err
	}
	if err := writeU32(bw, uint32(ct.Level), uint32(len(ct.Polys))); err != nil {
		return err
	}
	for _, p := range ct.Polys {
		if err := writePoly(bw, p); err != nil {
			return err
		}
	}
	return nil
}

// ReadCiphertext deserializes a ciphertext against params.
func ReadCiphertext(r io.Reader, params *Params) (*Ciphertext, error) {
	br := bufio.NewReader(r)
	if err := readHeader(br, kindCiphertext); err != nil {
		return nil, err
	}
	return readCiphertextBody(br, params)
}

// readCiphertextBody deserializes the header-less ciphertext encoding.
func readCiphertextBody(br *bufio.Reader, params *Params) (*Ciphertext, error) {
	scaleBits, err := readU64(br, "ciphertext scale")
	if err != nil {
		return nil, err
	}
	level, err := readU32(br, "ciphertext level")
	if err != nil {
		return nil, err
	}
	np, err := readU32(br, "ciphertext arity")
	if err != nil {
		return nil, err
	}
	if np < 2 || np > 3 {
		return nil, fmt.Errorf("ckks: ciphertext with %d components: %w", np, ErrCorrupt)
	}
	if int(level) > params.MaxLevel() {
		return nil, fmt.Errorf("ckks: level %d above maximum %d: %w", level, params.MaxLevel(), ErrCorrupt)
	}
	ct := &Ciphertext{Scale: math.Float64frombits(scaleBits), Level: int(level)}
	for i := 0; i < int(np); i++ {
		p, err := readPoly(br, params.RingQP)
		if err != nil {
			return nil, err
		}
		if p.Rows() != int(level)+1 {
			return nil, fmt.Errorf("ckks: component rows %d do not match level %d: %w", p.Rows(), level, ErrCorrupt)
		}
		ct.Polys = append(ct.Polys, p)
	}
	return ct, nil
}

// WriteSecretKey / ReadSecretKey serialize the secret key.
func WriteSecretKey(w io.Writer, sk *SecretKey) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, kindSecretKey); err != nil {
		return err
	}
	if err := writePoly(bw, sk.Value); err != nil {
		return err
	}
	return bw.Flush()
}

func ReadSecretKey(r io.Reader, params *Params) (*SecretKey, error) {
	br := bufio.NewReader(r)
	if err := readHeader(br, kindSecretKey); err != nil {
		return nil, err
	}
	p, err := readPoly(br, params.RingQP)
	if err != nil {
		return nil, err
	}
	return &SecretKey{Value: p}, nil
}

// WritePublicKey / ReadPublicKey serialize the public key.
func WritePublicKey(w io.Writer, pk *PublicKey) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, kindPublicKey); err != nil {
		return err
	}
	if err := writePoly(bw, pk.B); err != nil {
		return err
	}
	if err := writePoly(bw, pk.A); err != nil {
		return err
	}
	return bw.Flush()
}

func ReadPublicKey(r io.Reader, params *Params) (*PublicKey, error) {
	br := bufio.NewReader(r)
	if err := readHeader(br, kindPublicKey); err != nil {
		return nil, err
	}
	b, err := readPoly(br, params.RingQP)
	if err != nil {
		return nil, err
	}
	a, err := readPoly(br, params.RingQP)
	if err != nil {
		return nil, err
	}
	return &PublicKey{B: b, A: a}, nil
}

func switchingKeySize(swk *SwitchingKey) int {
	size := 4
	for _, d := range swk.Digits {
		size += polySize(d[0]) + polySize(d[1])
	}
	return size
}

func writeSwitchingKey(bw *bufio.Writer, swk *SwitchingKey) error {
	if err := writeU32(bw, uint32(len(swk.Digits))); err != nil {
		return err
	}
	for _, d := range swk.Digits {
		if err := writePoly(bw, d[0]); err != nil {
			return err
		}
		if err := writePoly(bw, d[1]); err != nil {
			return err
		}
	}
	return nil
}

func readSwitchingKey(r *bufio.Reader, params *Params, swk *SwitchingKey) error {
	n, err := readU32(r, "switching key digits")
	if err != nil {
		return err
	}
	if int(n) != params.K() {
		return fmt.Errorf("ckks: key has %d digits, params need %d: %w", n, params.K(), ErrCorrupt)
	}
	swk.Digits = make([][2]*ring.Poly, n)
	for i := range swk.Digits {
		d0, err := readPoly(r, params.RingQP)
		if err != nil {
			return err
		}
		d1, err := readPoly(r, params.RingQP)
		if err != nil {
			return err
		}
		swk.Digits[i] = [2]*ring.Poly{d0, d1}
	}
	return nil
}

// WriteRelinearizationKey / ReadRelinearizationKey serialize rlk.
func WriteRelinearizationKey(w io.Writer, rlk *RelinearizationKey) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, kindSwitchingKey); err != nil {
		return err
	}
	if err := writeSwitchingKey(bw, &rlk.SwitchingKey); err != nil {
		return err
	}
	return bw.Flush()
}

func ReadRelinearizationKey(r io.Reader, params *Params) (*RelinearizationKey, error) {
	br := bufio.NewReader(r)
	if err := readHeader(br, kindSwitchingKey); err != nil {
		return nil, err
	}
	rlk := &RelinearizationKey{}
	if err := readSwitchingKey(br, params, &rlk.SwitchingKey); err != nil {
		return nil, err
	}
	return rlk, nil
}

// WriteGaloisKey / ReadGaloisKey serialize one rotation key.
func WriteGaloisKey(w io.Writer, gk *GaloisKey) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, kindGaloisKey); err != nil {
		return err
	}
	if err := writeGaloisKeyBody(bw, gk); err != nil {
		return err
	}
	return bw.Flush()
}

func ReadGaloisKey(r io.Reader, params *Params) (*GaloisKey, error) {
	br := bufio.NewReader(r)
	if err := readHeader(br, kindGaloisKey); err != nil {
		return nil, err
	}
	return readGaloisKeyBody(br, params)
}

// --- Framed aggregate codecs (the serving wire format) ---------------------
//
// A plan-serving host moves two aggregate objects: a tenant's complete
// evaluation key set (one upload at registration) and named ciphertext
// batches (one per request and response). Both are single framed
// objects whose counts and name lengths are checked against hard caps
// before anything is allocated, so a stream either yields a complete,
// validated aggregate or fails with ErrCorrupt — never a partial object
// and never an attacker-sized allocation.

// checkEvalKeys reports whether the wire format can carry gks: its
// rotation count is within the cap readers enforce.
func checkEvalKeys(gks *GaloisKeySet) error {
	if gks != nil && len(gks.Rotations) > maxGaloisKeys {
		return fmt.Errorf("ckks: %d rotation keys, the wire format allows %d", len(gks.Rotations), maxGaloisKeys)
	}
	return nil
}

// EvaluationKeysSize returns the exact number of bytes
// WriteEvaluationKeys produces for rlk and gks, computed from the key
// shapes, or the error it would fail with for a set the format cannot
// carry — so a caller framing a key set can announce its length before
// streaming it.
func EvaluationKeysSize(rlk *RelinearizationKey, gks *GaloisKeySet) (int, error) {
	if err := checkEvalKeys(gks); err != nil {
		return 0, err
	}
	size := headerSize + 4 // flags
	if rlk != nil {
		size += switchingKeySize(&rlk.SwitchingKey)
	}
	if gks != nil {
		size += 4 // rotation count
		for _, gk := range gks.Rotations {
			size += 8 + galoisKeyBodySize(gk) // step, key
		}
		if gks.Conjugate != nil {
			size += galoisKeyBodySize(gks.Conjugate)
		}
	}
	return size, nil
}

// WriteEvaluationKeys serializes a relinearization key and a Galois key
// set as one framed object; either may be nil. Rotation entries are
// written in sorted step order, so equal key sets serialize to equal
// bytes.
func WriteEvaluationKeys(w io.Writer, rlk *RelinearizationKey, gks *GaloisKeySet) error {
	if err := checkEvalKeys(gks); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, kindEvalKeys); err != nil {
		return err
	}
	var flags uint32
	if rlk != nil {
		flags |= 1
	}
	if gks != nil {
		flags |= 2
		if gks.Conjugate != nil {
			flags |= 4
		}
	}
	if err := writeU32(bw, flags); err != nil {
		return err
	}
	if rlk != nil {
		if err := writeSwitchingKey(bw, &rlk.SwitchingKey); err != nil {
			return err
		}
	}
	if gks != nil {
		// Snapshot (step, key) pairs and sort by step: deterministic
		// output without re-indexing the map (the keys are normalized by
		// construction; rotnorm keeps raw-step lookups out of this file).
		type stepKey struct {
			step int
			gk   *GaloisKey
		}
		pairs := make([]stepKey, 0, len(gks.Rotations))
		for s, gk := range gks.Rotations {
			pairs = append(pairs, stepKey{s, gk})
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].step < pairs[j].step })
		if err := writeU32(bw, uint32(len(pairs))); err != nil {
			return err
		}
		for _, p := range pairs {
			if err := writeU64(bw, uint64(int64(p.step))); err != nil {
				return err
			}
			if err := writeGaloisKeyBody(bw, p.gk); err != nil {
				return err
			}
		}
		if gks.Conjugate != nil {
			if err := writeGaloisKeyBody(bw, gks.Conjugate); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func galoisKeyBodySize(gk *GaloisKey) int {
	return 8 + switchingKeySize(&gk.SwitchingKey)
}

// writeGaloisKeyBody writes the header-less Galois key encoding:
// element, then switching key.
func writeGaloisKeyBody(bw *bufio.Writer, gk *GaloisKey) error {
	if err := writeU64(bw, gk.GaloisElt); err != nil {
		return err
	}
	return writeSwitchingKey(bw, &gk.SwitchingKey)
}

// readGaloisKeyBody reads the header-less Galois key encoding,
// validating the element against the ring.
func readGaloisKeyBody(r *bufio.Reader, params *Params) (*GaloisKey, error) {
	elt, err := readU64(r, "Galois element")
	if err != nil {
		return nil, err
	}
	if elt&1 == 0 || elt >= uint64(2*params.N) {
		return nil, fmt.Errorf("ckks: invalid Galois element %d: %w", elt, ErrCorrupt)
	}
	gk := &GaloisKey{GaloisElt: elt}
	if err := readSwitchingKey(r, params, &gk.SwitchingKey); err != nil {
		return nil, err
	}
	return gk, nil
}

// ReadEvaluationKeys reconstructs a key set written by
// WriteEvaluationKeys, validating counts, step ranges and Galois
// elements before allocating.
func ReadEvaluationKeys(r io.Reader, params *Params) (*RelinearizationKey, *GaloisKeySet, error) {
	br := bufio.NewReader(r)
	if err := readHeader(br, kindEvalKeys); err != nil {
		return nil, nil, err
	}
	flags, err := readU32(br, "evaluation keys flags")
	if err != nil {
		return nil, nil, err
	}
	if flags&^7 != 0 || (flags&4 != 0 && flags&2 == 0) {
		return nil, nil, fmt.Errorf("ckks: invalid evaluation key flags %#x: %w", flags, ErrCorrupt)
	}
	var rlk *RelinearizationKey
	if flags&1 != 0 {
		rlk = &RelinearizationKey{}
		if err := readSwitchingKey(br, params, &rlk.SwitchingKey); err != nil {
			return nil, nil, err
		}
	}
	var gks *GaloisKeySet
	if flags&2 != 0 {
		n, err := readU32(br, "rotation key count")
		if err != nil {
			return nil, nil, err
		}
		// Steps are unique in [1, Slots()), so the count is bounded by
		// the slot count (and the absolute cap) before the map exists.
		if int64(n) > int64(maxGaloisKeys) || int64(n) >= int64(params.Slots()) {
			return nil, nil, fmt.Errorf("ckks: implausible rotation key count %d: %w", n, ErrCorrupt)
		}
		gks = &GaloisKeySet{Rotations: make(map[int]*GaloisKey, n)}
		for i := 0; i < int(n); i++ {
			stepBits, err := readU64(br, "rotation step")
			if err != nil {
				return nil, nil, err
			}
			step := int64(stepBits)
			if step <= 0 || step >= int64(params.Slots()) {
				return nil, nil, fmt.Errorf("ckks: rotation step %d out of range [1, %d): %w", step, params.Slots(), ErrCorrupt)
			}
			// A wire step must already be in normalized form — a
			// denormalized one would land the key where no lookup
			// (which always normalizes) could find it.
			norm := params.NormalizeRotation(int(step))
			if norm != int(step) {
				return nil, nil, fmt.Errorf("ckks: denormalized rotation step %d (normal form %d): %w", step, norm, ErrCorrupt)
			}
			if _, dup := gks.Rotations[norm]; dup {
				return nil, nil, fmt.Errorf("ckks: duplicate rotation step %d: %w", step, ErrCorrupt)
			}
			gk, err := readGaloisKeyBody(br, params)
			if err != nil {
				return nil, nil, err
			}
			gks.Rotations[norm] = gk
		}
		if flags&4 != 0 {
			gk, err := readGaloisKeyBody(br, params)
			if err != nil {
				return nil, nil, err
			}
			gks.Conjugate = gk
		}
	}
	return rlk, gks, nil
}

// checkBatch reports whether the wire format can carry batch: the entry
// count and every name length are within the caps readers enforce.
func checkBatch(batch map[string]*Ciphertext) error {
	if len(batch) > maxBatchEntries {
		return fmt.Errorf("ckks: batch has %d entries, the wire format allows %d", len(batch), maxBatchEntries)
	}
	for name := range batch {
		if len(name) == 0 || len(name) > maxEntryNameLen {
			return fmt.Errorf("ckks: batch entry name %q has length %d, the wire format allows [1, %d]", name, len(name), maxEntryNameLen)
		}
	}
	return nil
}

// CiphertextBatchSize returns the exact number of bytes
// WriteCiphertextBatch produces for batch, or the error it would fail
// with for a batch the format cannot carry — so a caller framing
// batches can announce lengths, and refuse an unsendable batch, before
// the first byte is written.
func CiphertextBatchSize(batch map[string]*Ciphertext) (int, error) {
	if err := checkBatch(batch); err != nil {
		return 0, err
	}
	size := headerSize + 4
	for name, ct := range batch {
		size += 4 + len(name) + ciphertextMetaSize
		for _, p := range ct.Polys {
			size += polySize(p)
		}
	}
	return size, nil
}

// WriteCiphertextBatch serializes one named input (or output) set — the
// unit a plan-serving request streams — as a single framed object,
// entries in sorted name order for deterministic bytes.
func WriteCiphertextBatch(w io.Writer, batch map[string]*Ciphertext) error {
	if err := checkBatch(batch); err != nil {
		return err
	}
	names := make([]string, 0, len(batch))
	for name := range batch {
		names = append(names, name)
	}
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, kindCiphertextBatch); err != nil {
		return err
	}
	if err := writeU32(bw, uint32(len(names))); err != nil {
		return err
	}
	for _, name := range names {
		if err := writeU32(bw, uint32(len(name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(name); err != nil {
			return err
		}
		if err := writeCiphertextBody(bw, batch[name]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCiphertextBatch reconstructs a batch written by
// WriteCiphertextBatch, bounding the entry count and name lengths
// before allocating.
func ReadCiphertextBatch(r io.Reader, params *Params) (map[string]*Ciphertext, error) {
	br := bufio.NewReader(r)
	if err := readHeader(br, kindCiphertextBatch); err != nil {
		return nil, err
	}
	n, err := readU32(br, "batch entry count")
	if err != nil {
		return nil, err
	}
	if n > maxBatchEntries {
		return nil, fmt.Errorf("ckks: batch claims %d entries, the wire format allows %d: %w", n, maxBatchEntries, ErrCorrupt)
	}
	batch := make(map[string]*Ciphertext, n)
	for i := 0; i < int(n); i++ {
		nameLen, err := readU32(br, "batch entry name length")
		if err != nil {
			return nil, err
		}
		if nameLen == 0 || nameLen > maxEntryNameLen {
			return nil, fmt.Errorf("ckks: batch entry name length %d out of range [1, %d]: %w", nameLen, maxEntryNameLen, ErrCorrupt)
		}
		nameBytes, err := br.Peek(int(nameLen))
		if err != nil {
			return nil, corrupted("batch entry name", err)
		}
		name := string(nameBytes)
		br.Discard(int(nameLen))
		if _, dup := batch[name]; dup {
			return nil, fmt.Errorf("ckks: duplicate batch entry %q: %w", name, ErrCorrupt)
		}
		ct, err := readCiphertextBody(br, params)
		if err != nil {
			return nil, err
		}
		batch[name] = ct
	}
	return batch, nil
}
