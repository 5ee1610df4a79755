package ckks

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"math/cmplx"

	"heax/internal/ring"
	"heax/internal/rns"
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
type Encoder struct {
	params *Params
	slots  int
	m      int // 2n, the cyclotomic index
	// rotGroup[i] = 5^i mod m enumerates the slot orbit.
	rotGroup []int
	// roots[j] = exp(2πi j / m).
	roots []complex128
	// composers[l] composes the coefficients of a plaintext of l+1 rows.
	composers []*rns.Composer
}

// NewEncoder builds an encoder for params.
func NewEncoder(params *Params) *Encoder {
	slots := params.Slots()
	m := 2 * params.N
	e := &Encoder{
		params:   params,
		slots:    slots,
		m:        m,
		rotGroup: make([]int, slots),
		roots:    make([]complex128, m+1),
	}
	basis := params.RingQP.Basis
	for k := 1; k <= basis.K(); k++ {
		e.composers = append(e.composers, basis.Composer(k))
	}
	g := 1
	for i := 0; i < slots; i++ {
		e.rotGroup[i] = g
		g = g * 5 % m
	}
	for j := 0; j <= m; j++ {
		angle := 2 * math.Pi * float64(j) / float64(m)
		e.roots[j] = cmplx.Exp(complex(0, angle))
	}
	return e
}

// bitrevComplex permutes v in place by bit reversal.
func bitrevComplex(v []complex128) {
	n := len(v)
	logn := bits.Len(uint(n)) - 1
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> (64 - logn))
		if i < j {
			v[i], v[j] = v[j], v[i]
		}
	}
}

// specialFFT evaluates the canonical embedding: it maps the coefficient
// representation (packed as slots complex numbers) to slot values.
func (e *Encoder) specialFFT(v []complex128) {
	n := len(v)
	bitrevComplex(v)
	for length := 2; length <= n; length <<= 1 {
		lenh := length >> 1
		lenq := length << 2
		gap := e.m / lenq
		for i := 0; i < n; i += length {
			for j := 0; j < lenh; j++ {
				idx := (e.rotGroup[j] % lenq) * gap
				u := v[i+j]
				w := v[i+j+lenh] * e.roots[idx]
				v[i+j] = u + w
				v[i+j+lenh] = u - w
			}
		}
	}
}

// specialIFFT inverts specialFFT (including the 1/n scaling).
func (e *Encoder) specialIFFT(v []complex128) {
	n := len(v)
	for length := n; length >= 2; length >>= 1 {
		lenh := length >> 1
		lenq := length << 2
		gap := e.m / lenq
		for i := 0; i < n; i += length {
			for j := 0; j < lenh; j++ {
				idx := (lenq - e.rotGroup[j]%lenq) * gap
				u := v[i+j] + v[i+j+lenh]
				w := (v[i+j] - v[i+j+lenh]) * e.roots[idx]
				v[i+j] = u
				v[i+j+lenh] = w
			}
		}
	}
	bitrevComplex(v)
	inv := complex(1/float64(n), 0)
	for i := range v {
		v[i] *= inv
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
	v := make([]complex128, e.slots)
	copy(v, values)
	e.specialIFFT(v)

	ctx := e.params.RingQP
	pt := ctx.NewPoly(level + 1)
	setCoeff := func(j int, x float64) error {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("ckks: non-finite coefficient at scale %g", scale)
		}
		if math.Abs(x) < wordCoeffBound {
			c := int64(math.Round(x))
			for i := 0; i <= level; i++ {
				pt.Coeffs[i][j] = ctx.Basis.ReduceInt64(c, i)
			}
			return nil
		}
		// Arbitrary-precision path for coefficients beyond the word
		// range (large scales); exact as long as the float64 mantissa
		// carried the value, which is the best any double-input encoder
		// can do.
		bi, _ := big.NewFloat(x).Int(nil)
		res := ctx.Basis.DecomposeSigned(bi)
		for i := 0; i <= level; i++ {
			pt.Coeffs[i][j] = res[i]
		}
		return nil
	}
	for j := 0; j < e.slots; j++ {
		if err := setCoeff(j, real(v[j])*scale); err != nil {
			return nil, err
		}
		if err := setCoeff(j+e.slots, imag(v[j])*scale); err != nil {
			return nil, err
		}
	}
	ctx.NTT(pt)
	return &Plaintext{Value: pt, Scale: scale}, nil
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
	e.specialFFT(v)
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
