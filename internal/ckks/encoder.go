package ckks

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"

	"heax/internal/ring"
	"heax/internal/rns"
	"heax/internal/uintmod"
)

// Plaintext is an encoded message: an RNS polynomial in NTT form together
// with its scale Δ (Section 3.3: every CKKS operand carries a scale).
type Plaintext struct {
	Value *ring.Poly
	Scale float64
}

// Level returns the plaintext's level (rows-1).
func (p *Plaintext) Level() int { return p.Value.Level() }

// Encoder maps vectors of n/2 complex numbers to plaintext polynomials
// through the canonical embedding (the "special FFT" over the orbit of 5
// in Z_2n^*) and back. Encoding and decoding are client-side operations
// (Section 1); they exist here to drive the evaluator and its tests.
//
// The special FFT's twiddles are stored in the order its butterflies
// read them (fftTables): the stage with half-length h owns entries
// [h−1, 2h−1) of each table, entry h−1+j being ζ^((5^j mod 8h)·m/8h)
// forward and ζ^(m − (5^j mod 8h)·m/8h) inverse, ζ = exp(2πi/m), m = 2n.
// Each is computed by the same cmplx.Exp expression a table of every
// power of ζ would hold, and the butterflies apply them in the same
// order, so the transforms are bit for bit those over the gathered
// table, with no index arithmetic per butterfly. The tables and
// Encode's scratch are shared by every encoder of one ring degree.
type Encoder struct {
	params *Params
	slots  int
	fft    *fftTables
	// composers[l] composes the coefficients of a plaintext of l+1 rows.
	composers []*rns.Composer
}

// NewEncoder builds an encoder for params.
func NewEncoder(params *Params) *Encoder {
	slots := params.Slots()
	e := &Encoder{params: params, slots: slots, fft: sharedFFTTables(slots)}
	basis := params.RingQP.Basis
	for k := 1; k <= basis.K(); k++ {
		e.composers = append(e.composers, basis.Composer(k))
	}
	return e
}

// fftTables holds the stage-ordered twiddles of the special FFT over
// slots points, the bit-reversal permutation, and a pool of Encode's
// scratch.
type fftTables struct {
	fwd, inv []complex128
	bitrev   []uint32
	scratch  sync.Pool // *encodeScratch
}

// encodeScratch is one Encode's working memory: the slot vector and
// the rounded coefficients.
type encodeScratch struct {
	v []complex128
	c []int64
}

var fftBySlots struct {
	sync.Mutex
	m map[int]*fftTables
}

// sharedFFTTables returns the process's tables for a slot count,
// building them on first use; the map holds one entry per ring degree
// the process has built an encoder for.
func sharedFFTTables(slots int) *fftTables {
	fftBySlots.Lock()
	defer fftBySlots.Unlock()
	if t, ok := fftBySlots.m[slots]; ok {
		return t
	}
	t := newFFTTables(slots)
	if fftBySlots.m == nil {
		fftBySlots.m = make(map[int]*fftTables)
	}
	fftBySlots.m[slots] = t
	return t
}

func newFFTTables(slots int) *fftTables {
	m := 4 * slots
	root := func(j int) complex128 {
		angle := 2 * math.Pi * float64(j) / float64(m)
		return cmplx.Exp(complex(0, angle))
	}
	t := &fftTables{
		fwd:    make([]complex128, slots-1),
		inv:    make([]complex128, slots-1),
		bitrev: make([]uint32, slots),
	}
	for h := 1; h < slots; h <<= 1 {
		lenq := 8 * h
		gap := m / lenq
		g := 1 // 5^j mod m
		for j := 0; j < h; j++ {
			r := g % lenq
			t.fwd[h-1+j] = root(r * gap)
			t.inv[h-1+j] = root((lenq - r) * gap)
			g = g * 5 % m
		}
	}
	logn := bits.Len(uint(slots)) - 1
	for i := range t.bitrev {
		t.bitrev[i] = uint32(bits.Reverse64(uint64(i)) >> (64 - logn))
	}
	t.scratch.New = func() any {
		return &encodeScratch{v: make([]complex128, slots), c: make([]int64, 2*slots)}
	}
	return t
}

// specialFFT evaluates the canonical embedding: it maps the coefficient
// representation (packed as slots complex numbers) to slot values.
func (t *fftTables) specialFFT(v []complex128) {
	n := len(v)
	for i, j := range t.bitrev {
		if i < int(j) {
			v[i], v[j] = v[j], v[i]
		}
	}
	for h := 1; h < n; h <<= 1 {
		tw := t.fwd[h-1 : 2*h-1]
		if h < 4 {
			for j, w := range tw {
				for i := j; i < n; i += 2 * h {
					u, x := v[i], v[i+h]*w
					v[i], v[i+h] = u+x, u-x
				}
			}
			continue
		}
		for i := 0; i < n; i += 2 * h {
			lo := v[i : i+h : i+h]
			hi := v[i+h : i+2*h : i+2*h]
			hi, tw := hi[:len(lo)], tw[:len(lo)]
			for j, w := range tw {
				u, x := lo[j], hi[j]*w
				lo[j], hi[j] = u+x, u-x
			}
		}
	}
}

// specialIFFT runs the butterflies of the inverse of specialFFT; the
// result is in bit-reversed order and not yet scaled by 1/n.
func (t *fftTables) specialIFFT(v []complex128) {
	n := len(v)
	for h := n >> 1; h >= 1; h >>= 1 {
		tw := t.inv[h-1 : 2*h-1]
		if h < 4 {
			for j, w := range tw {
				for i := j; i < n; i += 2 * h {
					a, b := v[i], v[i+h]
					v[i], v[i+h] = a+b, (a-b)*w
				}
			}
			continue
		}
		for i := 0; i < n; i += 2 * h {
			lo := v[i : i+h : i+h]
			hi := v[i+h : i+2*h : i+2*h]
			hi, tw := hi[:len(lo)], tw[:len(lo)]
			for j, w := range tw {
				a, b := lo[j], hi[j]
				lo[j], hi[j] = a+b, (a-b)*w
			}
		}
	}
}

// wordCoeffBound bounds the scaled coefficients Encode rounds straight to
// an int64; larger ones take the arbitrary-precision path.
const wordCoeffBound = 1 << 62

// Encode embeds values (at most Slots of them; missing entries are zero)
// into a fresh plaintext at the given level and scale. Encoding fails only
// if a scaled coefficient overflows the 62-bit fast path; with sane scales
// this means the message magnitude was far outside CKKS's useful range.
func (e *Encoder) Encode(values []complex128, level int, scale float64) (*Plaintext, error) {
	if len(values) > e.slots {
		return nil, fmt.Errorf("ckks: %d values exceed %d slots", len(values), e.slots)
	}
	if level < 0 || level > e.params.MaxLevel() {
		return nil, fmt.Errorf("ckks: level %d out of range [0,%d]", level, e.params.MaxLevel())
	}
	pt := e.params.RingQP.NewPoly(level + 1)
	if err := e.encode(pt, values, false, scale); err != nil {
		return nil, err
	}
	return &Plaintext{Value: pt, Scale: scale}, nil
}

// EncodeInto writes into dst, whose rows fix the level, the NTT-form
// encoding of values at scale: the slots hold values followed by zeros,
// or with periodic values repeated end to end (len(values) must then
// divide Slots). It is Encode on that slot vector, bit for bit, with the
// plaintext's memory from the caller and no tiled copy. A payload of
// period n encodes to rows constant on blocks of N/(2n) coefficients, and
// dst's rows may then be shorter than N: rows of any power-of-two length
// L from 2n to N hold one value per block of N/L coefficients (L = N is
// the full row). It is a function rather than a method so that the
// public Encoder's methods stay those of the façade; the compiler encodes
// its payloads through it.
func EncodeInto(e *Encoder, dst *ring.Poly, values []complex128, periodic bool, scale float64) error {
	if periodic && (len(values) == 0 || e.slots%len(values) != 0) {
		return fmt.Errorf("ckks: periodic payload of %d values does not divide %d slots", len(values), e.slots)
	}
	if len(values) > e.slots {
		return fmt.Errorf("ckks: %d values exceed %d slots", len(values), e.slots)
	}
	if rows := dst.Rows(); rows < 1 || rows > e.params.MaxLevel()+1 {
		return fmt.Errorf("ckks: level %d out of range [0,%d]", rows-1, e.params.MaxLevel())
	}
	period := e.slots
	if periodic {
		period = len(values)
	}
	for _, row := range dst.Coeffs {
		if l := len(row); l != len(dst.Coeffs[0]) || l < 2*period || l > 2*e.slots || l&(l-1) != 0 {
			return fmt.Errorf("ckks: rows of %d coefficients cannot hold a payload of period %d on %d slots", l, period, e.slots)
		}
	}
	return e.encode(dst, values, periodic, scale)
}

// encode is Encode into dst. A payload of period n < Slots (a
// non-periodic one has period Slots) is the polynomial in X^k, k =
// N/(2n), whose 2n coefficients are those of its own special IFFT over n
// points: every special IFFT stage of half-length h ≥ n meets equal
// halves, doubles the lower exactly and zeros the upper, which later
// stages never mix back in. Those 2n coefficients are rounded once into
// pooled scratch, then every row reduces them with no branch on the sign
// (an add of q when all of them lie in (−q, q), a Barrett reduction of
// the magnitude otherwise), transforms them over 2n points
// (ntt.Tables.ForwardPrefix, the full-ring NTT of that polynomial, whose
// output is constant on blocks of k) and spreads each value over its
// block, a row at a time through RunRows. Coefficients past the word
// range take the big-integer path once every row is reduced, before the
// transforms.
func (e *Encoder) encode(dst *ring.Poly, values []complex128, periodic bool, scale float64) error {
	s := e.fft.scratch.Get().(*encodeScratch)
	defer e.fft.scratch.Put(s)
	v := s.v
	n := len(v)
	if periodic {
		n = len(values)
	}
	stride := len(v) / n
	if stride > 1 {
		f := float64(stride)
		for i, x := range values {
			v[i] = complex(real(x)*f, imag(x)*f)
		}
		e.fft.specialIFFT(v[:n])
	} else {
		clear(v[copy(v, values):])
		e.fft.specialIFFT(v)
	}

	inv := 1 / float64(e.slots)
	c := s.c[:2*n]
	mag, wide := roundCoeffs(c[:n], c[n:], v, e.fft.bitrev, inv, scale, stride)
	ctx := e.params.RingQP
	reduce := func(i int) {
		row := dst.Coeffs[i][:2*n]
		if p := ctx.Basis.Primes[i]; mag < p {
			reduceSmall(row, c, p)
		} else {
			reduceBarrett(row, c, ctx.Basis.Mods[i])
		}
	}
	if wide {
		for i := range dst.Coeffs {
			reduce(i)
		}
		if err := e.encodeWide(dst, v, inv, scale, stride); err != nil {
			return err
		}
	}
	// Each row is transformed as soon as it is reduced, while it is still
	// in cache, and at Set-C the rows share the workers.
	ctx.RunRows(dst.Rows(), func(i int) {
		if !wide {
			reduce(i)
		}
		row := dst.Coeffs[i]
		ctx.Tables[i].ForwardPrefix(row[:2*n])
		spread(row, 2*n)
	})
	return nil
}

// spread writes each of the first m values of row over its block of
// len(row)/m, in place: the later blocks first, so no value is
// overwritten before it is read.
func spread(row []uint64, m int) {
	rep := len(row) / m
	if rep == 1 {
		return
	}
	for b := m - 1; b >= 0; b-- {
		x := row[b]
		blk := row[b*rep : (b+1)*rep]
		for j := range blk {
			blk[j] = x
		}
	}
}

// roundCoeffs sets re[t] and im[t] to the rounded real and imaginary
// parts of v[bitrev[t·stride]]·inv·scale: the reference transform's
// bit-reversal and complex scaling by (inv, 0), read in place, at the
// coefficients t·stride that a payload of period len(re) leaves non-zero.
// A part at or past wordCoeffBound, or not finite, is left 0 and reported
// wide; mag is the OR of every other part's magnitude.
func roundCoeffs(re, im []int64, v []complex128, bitrev []uint32, inv, scale float64, stride int) (mag uint64, wide bool) {
	im = im[:len(re)]
	for t := range re {
		r := bitrev[t*stride]
		x, y := real(v[r])*inv*scale, imag(v[r])*inv*scale
		var a, b int64
		if math.Abs(x) < wordCoeffBound {
			a = int64(math.Round(x))
		} else {
			wide = true
		}
		if math.Abs(y) < wordCoeffBound {
			b = int64(math.Round(y))
		} else {
			wide = true
		}
		sa, sb := a>>63, b>>63
		mag |= uint64((a^sa)-sa) | uint64((b^sb)-sb)
		re[t], im[t] = a, b
	}
	return mag, wide
}

// reduceSmall sets row[j] = c[j] mod p for |c[j]| < p: the add of p a
// negative c[j] needs, by its sign mask.
func reduceSmall(row []uint64, c []int64, p uint64) {
	row = row[:len(c)]
	for j, x := range c {
		row[j] = uint64(x) + p&uint64(x>>63)
	}
}

// reduceBarrett sets row[j] = c[j] mod p for |c[j]| < 2^62: a Barrett
// reduction of the magnitude, negated by the sign mask.
func reduceBarrett(row []uint64, c []int64, mod uintmod.Modulus) {
	row = row[:len(c)]
	p := mod.P
	for j, x := range c {
		s := uint64(x >> 63)
		r := mod.Reduce((uint64(x) ^ s) - s)
		r = (r ^ s) - s + p&s // p − r for a negative x
		if r >= p {
			r -= p
		}
		row[j] = r
	}
}

// encodeWide fills the coefficients encode's word path skipped, in the
// layout roundCoeffs writes (the real part of coefficient t·stride at t,
// its imaginary part at n + t, n = len(v)/stride): a non-finite one fails,
// and one at or past wordCoeffBound is an integer m·2^e with m < 2^53 and
// e ≥ 10, so its residue is m·(2^e mod q_i), negated for a negative one.
// That is exact as long as the float64 mantissa carried the value, which
// is the best any double-input encoder can do.
func (e *Encoder) encodeWide(dst *ring.Poly, v []complex128, inv, scale float64, stride int) error {
	mods := e.params.RingQP.Basis.Mods
	n := len(v) / stride
	for t := 0; t < n; t++ {
		r := e.fft.bitrev[t*stride]
		for k, x := range [2]float64{real(v[r]) * inv * scale, imag(v[r]) * inv * scale} {
			if math.Abs(x) < wordCoeffBound {
				continue
			}
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("ckks: non-finite coefficient at scale %g", scale)
			}
			frac, exp := math.Frexp(math.Abs(x))
			m, sh := uint64(frac*(1<<53)), uint64(exp-53)
			for i, row := range dst.Coeffs {
				res := mods[i].MulMod(m, mods[i].PowMod(2, sh))
				if x < 0 {
					res = uintmod.NegMod(res, mods[i].P)
				}
				row[t+k*n] = res
			}
		}
	}
	return nil
}

// EncodeReal is Encode for real-valued messages.
func (e *Encoder) EncodeReal(values []float64, level int, scale float64) (*Plaintext, error) {
	cv := make([]complex128, len(values))
	for i, x := range values {
		cv[i] = complex(x, 0)
	}
	return e.Encode(cv, level, scale)
}

// EncodeConst encodes v in every slot at level and scale, bit for bit
// what Encode makes of that vector, without its transforms. The special
// IFFT of a constant real vector is exactly (v, 0, …, 0): every
// butterfly difference is an exact zero and the power-of-two scalings
// are exact. The NTT of the constant polynomial round(v·scale) is that
// constant at every point, so each row is round(v·scale) mod q_i. A
// value outside the word-sized fast path, a non-finite one and a level
// out of range go through Encode, and fail or round there.
func (e *Encoder) EncodeConst(v float64, level int, scale float64) (*Plaintext, error) {
	x := v * scale
	if !(math.Abs(v) < wordCoeffBound && math.Abs(x) < wordCoeffBound) || level < 0 || level > e.params.MaxLevel() {
		vals := make([]complex128, e.slots)
		for i := range vals {
			vals[i] = complex(v, 0)
		}
		return e.Encode(vals, level, scale)
	}
	ctx := e.params.RingQP
	c := int64(math.Round(x))
	pt := ctx.NewPoly(level + 1)
	for i, row := range pt.Coeffs {
		r := ctx.Basis.ReduceInt64(c, i)
		for j := range row {
			row[j] = r
		}
	}
	return &Plaintext{Value: pt, Scale: scale}, nil
}

// decodeBlocks is the number of coefficient blocks Decode's composition
// hands RunRows: enough for every worker of a Table 2 ring to take a
// share.
const decodeBlocks = 16

// Decode recovers the complex message vector from a plaintext. It
// inverse-transforms the rows into pooled scratch, composes each
// coefficient from its residues as a centered integer v in word-sized
// RNS arithmetic (rns.Composer, tables cached per level), and divides by
// the scale, rounding as big.Float would round SetInt(v), Quo and
// Float64: every decoded value is bit for bit that of the big-integer
// path, with no big integer per coefficient. Blocks of coefficients run
// through RunRows; the result does not depend on the worker count.
func (e *Encoder) Decode(pt *Plaintext) []complex128 {
	v := make([]complex128, e.slots)
	e.decodeCoeffs(pt, v)
	e.fft.specialFFT(v)
	return v
}

// decodeCoeffs sets v[j] to complex(c_j, c_{j+slots})/Δ, the scaled
// coefficients the special FFT turns into slot values.
func (e *Encoder) decodeCoeffs(pt *Plaintext, v []complex128) {
	ctx := e.params.RingQP
	src := pt.Value
	rows := src.Rows()
	poly := ctx.GetPolyNoZero(rows)
	defer ctx.PutPoly(poly)
	ctx.RunRows(rows, func(i int) { ctx.Tables[i].InverseTo(poly.Coeffs[i], src.Coeffs[i]) })

	comp := e.composers[rows-1]
	d := rns.NewDivisor(pt.Scale)
	blocks := min(decodeBlocks, e.slots)
	// Each block's residues and scratch, padded to whole cache lines.
	stride := (rows + comp.ScratchLen() + 7) &^ 7
	scratch := make([]uint64, blocks*stride)
	ctx.RunRows(blocks, func(b int) {
		res := scratch[b*stride : b*stride+rows]
		tmp := scratch[b*stride+rows : (b+1)*stride]
		coeff := func(j int) float64 {
			for i, row := range poly.Coeffs {
				res[i] = row[j]
			}
			return comp.Quo(res, &d, tmp)
		}
		for j := b * e.slots / blocks; j < (b+1)*e.slots/blocks; j++ {
			v[j] = complex(coeff(j), coeff(j+e.slots))
		}
	})
}

// Slots returns the number of message slots.
func (e *Encoder) Slots() int { return e.slots }
