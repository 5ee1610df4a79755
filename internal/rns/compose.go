package rns

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"

	"heax/internal/uintmod"
)

// Composer is the centered CRT composition over the first k primes of a
// basis in word arithmetic, with the quotient of the composed integer by a
// float64 scale: what decoding a plaintext and measuring noise do once per
// coefficient. Its tables are built once, with math/big, by
// Basis.Composer; Quo itself touches no big integer. The big-integer CRT
// composition, centered, followed by big.Float's SetInt, Quo and Float64
// is its exact oracle (ComposeCentered, kept in the package's tests).
type Composer struct {
	primes []uint64
	// inv[i] = [π_i⁻¹]_{q_i} and invShoup[i] its Shoup constant, with
	// π_i = Q/q_i.
	inv, invShoup []uint64
	// punc holds π_i in w little-endian words, by column: word t of π_i
	// at t·k + i.
	punc []uint64
	// qInv[i] = 1/q_i, rounded.
	qInv []float64
	// q and half are Q and ⌊Q/2⌋ in w+1 words, the top one zero, the
	// width of the composition's accumulator.
	q, half []uint64
	w       int
}

// Composer builds the composition tables of the first k primes, which
// must be odd.
func (b *Basis) Composer(k int) *Composer {
	if k < 1 || k > len(b.Primes) {
		panic(fmt.Sprintf("rns: composer of %d primes out of range [1,%d]", k, len(b.Primes)))
	}
	q := b.QAtLevel(k - 1)
	w := (q.BitLen() + 63) / 64
	c := &Composer{
		primes:   b.Primes[:k:k],
		inv:      make([]uint64, k),
		invShoup: make([]uint64, k),
		qInv:     make([]float64, k),
		punc:     make([]uint64, k*w),
		q:        make([]uint64, w+1),
		half:     make([]uint64, w+1),
		w:        w,
	}
	putWords(c.q, q)
	putWords(c.half, new(big.Int).Rsh(q, 1))
	pi, p := new(big.Int), new(big.Int)
	for i, qi := range c.primes {
		if qi%2 == 0 {
			panic("rns: composer over an even modulus")
		}
		c.qInv[i] = 1 / float64(qi)
		p.SetUint64(qi)
		pi.Div(q, p)
		col := make([]uint64, w)
		putWords(col, pi)
		for t, pw := range col {
			c.punc[t*k+i] = pw
		}
		inv := b.Mods[i].InvMod(new(big.Int).Mod(pi, p).Uint64())
		c.inv[i], c.invShoup[i] = inv, uintmod.ShoupPrecomp(inv, qi)
	}
	return c
}

// putWords writes x into dst as little-endian words; x must fit.
func putWords(dst []uint64, x *big.Int) {
	t := new(big.Int).Set(x)
	mask := new(big.Int).SetUint64(math.MaxUint64)
	for i := range dst {
		dst[i] = new(big.Int).And(t, mask).Uint64()
		t.Rsh(t, 64)
	}
	if t.Sign() != 0 {
		panic("rns: integer wider than its words")
	}
}

// ScratchLen is the length of the scratch Quo needs.
func (c *Composer) ScratchLen() int { return 2*c.w + 2 + len(c.primes) }

// centered sets x (w+1 words) to |v| for the v ≡ res_i (mod q_i) in
// (−Q/2, Q/2] and reports v < 0. With y_i = [res_i·π_i⁻¹]_{q_i}, the sum
// Σ y_i·π_i is v + n·Q for the integer n nearest Σ y_i/q_i, which a
// float64 sum estimates to within k²·2^-52: less n·Q is v, unless the
// estimate rounded the wrong way at a half, which leaves v ∓ Q, of
// magnitude Q − |v| past ⌊Q/2⌋, for one more Q to mend. The sum runs by
// columns, word t of every π_i into a three-word accumulator; y is k
// words of scratch.
func (c *Composer) centered(res, x, y []uint64) bool {
	k, w := len(c.primes), c.w
	if len(res) != k {
		panic("rns: residue count mismatch")
	}
	y = y[:k]
	f := 0.0
	for i, qi := range c.primes {
		y[i] = uintmod.MulRed(res[i], c.inv[i], c.invShoup[i], qi)
		f += float64(y[i]) * c.qInv[i]
	}
	var a0, a1, a2 uint64
	for t := range x[:w] {
		for i, pw := range c.punc[t*k : (t+1)*k] {
			hi, lo := bits.Mul64(y[i], pw)
			var cc uint64
			a0, cc = bits.Add64(a0, lo, 0)
			a1, cc = bits.Add64(a1, hi, cc)
			a2 += cc
		}
		x[t] = a0
		a0, a1, a2 = a1, a2, 0
	}
	x[w] = a0
	// x −= n·Q, in two's complement over the w+1 words.
	n := uint64(f + 0.5)
	var carry, borrow uint64
	for t, qw := range c.q {
		hi, lo := bits.Mul64(n, qw)
		var cc uint64
		lo, cc = bits.Add64(lo, carry, 0)
		carry = hi + cc
		x[t], borrow = bits.Sub64(x[t], lo, borrow)
	}
	neg := x[w]>>63 != 0
	if neg {
		borrow = 0
		for t := range x[:w+1] {
			x[t], borrow = bits.Sub64(0, x[t], borrow)
		}
	}
	if less(c.half, x) {
		sub(x, c.q, x)
		neg = !neg
	}
	return neg
}

// less reports x < y for equal-length little-endian words.
func less(x, y []uint64) bool {
	for i := len(x) - 1; i >= 0; i-- {
		if x[i] != y[i] {
			return x[i] < y[i]
		}
	}
	return false
}

// sub sets z = x − y for equal-length words, x ≥ y; z may be x or y.
func sub(z, x, y []uint64) {
	var borrow uint64
	for i := range z {
		z[i], borrow = bits.Sub64(x[i], y[i], borrow)
	}
}

// Quo returns v/s for the centered v ≡ res_i (mod q_i) — res holds one
// residue per prime of the composer — rounded as big.Float rounds it:
// SetInt(v) keeps v exactly at max(64, bitlen v) bits, Quo rounds the
// quotient to that precision, and Float64 rounds it again to 53 bits
// (fewer below 2^-1022), each to nearest, ties to even. The first rounding
// moves the second's result only when the quotient lies within half a
// unit of the first's last place of a 53-bit tie: it then lands on the
// tie, which goes to the even neighbour rather than to the side the exact
// quotient lies on. tmp holds ScratchLen words and may be reused.
func (c *Composer) Quo(res []uint64, d *Divisor, tmp []uint64) float64 {
	x, y := tmp[:c.w+1], tmp[c.w+1:c.w+1+len(c.primes)]
	neg := c.centered(res, x, y)
	return d.quo(x, neg, tmp[c.w+1+len(c.primes):])
}

// Divisor is a float64 scale s = m·2^e, m odd, split once for Quo.
type Divisor struct {
	m     uint64 // 0 when s is 0 or infinite
	mbits int
	e     int
	neg   bool // s's sign bit
	inf   bool
}

// NewDivisor splits s. It panics on NaN, as big.NewFloat does. A zero s
// divides a non-zero v to ±Inf, as big.Float does, and 0 to NaN, where
// big.Float panics.
func NewDivisor(s float64) Divisor {
	if math.IsNaN(s) {
		panic("rns: NaN divisor")
	}
	d := Divisor{neg: math.Signbit(s), inf: math.IsInf(s, 0)}
	if s != 0 && !d.inf {
		fr, e := math.Frexp(math.Abs(s))
		m := uint64(fr * (1 << 53))
		tz := bits.TrailingZeros64(m)
		d.m, d.mbits, d.e = m>>tz, 53-tz, e-53+tz
	}
	return d
}

// quo is Quo of the integer ±x (little-endian words, negative when neg);
// buf holds len(x)+1 words.
func (d *Divisor) quo(x []uint64, neg bool, buf []uint64) float64 {
	neg = neg != d.neg
	b := bitLen(x)
	switch {
	case d.inf || b == 0 && d.m != 0:
		return signed(0, neg)
	case d.m == 0 && b == 0:
		return math.NaN()
	case d.m == 0:
		return signed(math.Inf(1), neg)
	}
	// t = ⌊x·2^sh/m⌋ with rem the remainder: p+1 bits or more, p those
	// of the first rounding, so that every bit it reads is in t or rem.
	p := max(64, b)
	sh := p + 1 + d.mbits - b
	t := buf[:(b+sh+63)/64]
	shiftLeft(t, x[:(b+63)/64], sh)
	var rem uint64
	for i := len(t) - 1; i >= 0; i-- {
		t[i], rem = bits.Div64(rem, t[i], d.m)
	}
	// First rounding, to p bits: t·2^unit is the rounded quotient.
	c1 := bitLen(t) - p
	up := bit(t, c1-1) && (rem != 0 || anyBelow(t, c1-1) || bit(t, c1))
	shiftRight(t, c1)
	if up {
		increment(t)
	}
	unit := c1 - sh - d.e
	// Second rounding, to the float64 grid at the quotient's exponent:
	// 2^(lead−52), or 2^−1074 for a subnormal.
	u := max(bitLen(t)-1+unit-52, -1074)
	c2 := u - unit
	mant := word(t, c2)
	if bit(t, c2-1) && (anyBelow(t, c2-1) || mant&1 != 0) {
		mant++
	}
	return signed(math.Ldexp(float64(mant), u), neg)
}

func signed(f float64, neg bool) float64 {
	if neg {
		return -f
	}
	return f
}

// bitLen is the bit length of little-endian words.
func bitLen(x []uint64) int {
	for i := len(x) - 1; i >= 0; i-- {
		if x[i] != 0 {
			return 64*i + bits.Len64(x[i])
		}
	}
	return 0
}

// bit reports bit i of x; bits outside x are 0.
func bit(x []uint64, i int) bool {
	return i >= 0 && i < 64*len(x) && x[i/64]>>(i%64)&1 != 0
}

// anyBelow reports whether any bit of x below bit i is set.
func anyBelow(x []uint64, i int) bool {
	if i <= 0 {
		return false
	}
	k, r := i/64, uint(i%64)
	if k >= len(x) {
		k, r = len(x), 0
	}
	for _, v := range x[:k] {
		if v != 0 {
			return true
		}
	}
	return r != 0 && x[k]<<(64-r) != 0
}

// word returns bits [i, i+64) of x, i ≥ 0.
func word(x []uint64, i int) uint64 {
	k, s := i/64, uint(i%64)
	var v uint64
	if k < len(x) {
		v = x[k] >> s
	}
	if s != 0 && k+1 < len(x) {
		v |= x[k+1] << (64 - s)
	}
	return v
}

// shiftLeft sets dst to x·2^s; dst must hold the result.
func shiftLeft(dst, x []uint64, s int) {
	clear(dst)
	k, r := s/64, uint(s%64)
	for i, v := range x {
		dst[i+k] |= v << r
		if r != 0 && i+k+1 < len(dst) {
			dst[i+k+1] |= v >> (64 - r)
		}
	}
}

// shiftRight sets x to ⌊x/2^s⌋ in place, s ≥ 0.
func shiftRight(x []uint64, s int) {
	for i := range x {
		x[i] = word(x, 64*i+s)
	}
}

// increment adds 1 to x, which must not overflow.
func increment(x []uint64) {
	for i := range x {
		x[i]++
		if x[i] != 0 {
			return
		}
	}
}
