// Package uintmod implements the word-level modular arithmetic primitives
// that HEAX and Microsoft SEAL build on: Barrett reduction of single- and
// double-word integers (paper Algorithm 1) and the optimized modular
// multiplication with a precomputed operand, often called Shoup
// multiplication (paper Algorithm 2).
//
// Two word sizes are supported, mirroring the paper's discussion in
// Section 4 ("Word Size and Native Operations"):
//
//   - w = 64: the native x86 word used by SEAL on CPUs. Moduli must be
//     below 2^62 for Algorithm 2 to be correct.
//   - w = 54: the HEAX native word, chosen because the target FPGAs have
//     27-bit DSP multipliers (a 54-bit multiplier costs four DSPs, a 64-bit
//     one costs nine). Moduli must be below 2^52.
//
// The w=54 routines operate on uint64 values whose upper 10 bits are zero;
// they emulate exactly the arithmetic a 54-bit datapath performs, so the
// hardware simulator can share them.
package uintmod

import "math/bits"

// MaxModulusBits64 is the largest modulus width usable with the w=64
// routines (Algorithm 2 requires p < 2^(w-2)).
const MaxModulusBits64 = 62

// MaxModulusBits54 is the largest modulus width usable with the w=54
// routines. The paper states "Modulus p has at most 52 bits."
const MaxModulusBits54 = 52

// Modulus bundles a prime modulus with the precomputed constants used by
// Barrett reduction: ratio = floor(2^128 / p) stored as two 64-bit words.
// The zero value is not usable; construct with NewModulus.
type Modulus struct {
	P uint64
	// ratio[0] is the low word and ratio[1] the high word of
	// floor(2^128 / P); ratio[1] is what single-word Barrett uses.
	ratio [2]uint64
}

// NewModulus precomputes the Barrett constants for p. It panics if p < 2,
// since a modulus of 0 or 1 is never meaningful in this codebase and would
// otherwise fail far from the construction site.
func NewModulus(p uint64) Modulus {
	if p < 2 {
		panic("uintmod: modulus must be >= 2")
	}
	// Compute floor(2^128 / p) by long division of (2^128 - 1) by p and
	// correcting: floor((2^128-1)/p) == floor(2^128/p) unless p divides
	// 2^128, which is impossible for p >= 2 unless p is a power of two
	// that divides 2^128. Handle the correction explicitly.
	hi := ^uint64(0)
	lo := ^uint64(0)
	qhi := hi / p
	rem := hi % p
	qlo, rem2 := bits.Div64(rem, lo, p)
	// (2^128 - 1) = p*(qhi*2^64 + qlo) + rem2.
	// 2^128 = p*q + rem2 + 1; if rem2+1 == p then floor(2^128/p) = q+1.
	if rem2+1 == p {
		var carry uint64
		qlo, carry = bits.Add64(qlo, 1, 0)
		qhi += carry
	}
	return Modulus{P: p, ratio: [2]uint64{qlo, qhi}}
}

// Reduce returns x mod P for any single-word x using Barrett reduction
// with the precomputed ratio (Algorithm 1 specialised to one word).
func (m Modulus) Reduce(x uint64) uint64 {
	// q = floor(x * ratio[1] / 2^64) approximates floor(x/p) with error
	// at most 1.
	q, _ := bits.Mul64(x, m.ratio[1])
	r := x - q*m.P
	if r >= m.P {
		r -= m.P
	}
	return r
}

// ReduceWide returns (hi*2^64 + lo) mod P using double-word Barrett
// reduction (Algorithm 1). The input may be any 128-bit value. P must be
// below 2^62 (true for every modulus in this codebase; see
// MaxModulusBits64), otherwise the single-word correction step can wrap.
//
// Correction bound: with ratio = floor(2^128/p) the computed estimate q
// satisfies x/p - 2 < q <= x/p, so r = x - q·p lies in [0, 2p) and one
// conditional subtraction fully reduces it. Concretely, writing
// 2^128 = ratio·p + s (s < p) and d for the discarded low word of
// lo·ratio[0] (d < 2^64), the remainder before correction is
// x - q·p <= x·s/2^128 + d·p/2^128 + p < 2p strictly, for every
// x < 2^128 and every p within the documented < 2^62 range — the loop
// the seed carried here never ran more than once.
func (m Modulus) ReduceWide(hi, lo uint64) uint64 {
	// Following SEAL's barrett_reduce_128: estimate
	// q = floor(x * ratio / 2^128) and correct once.
	// x*ratio = (hi*2^64 + lo) * (r1*2^64 + r0).
	carry, _ := bits.Mul64(lo, m.ratio[0]) // only the carry out of word 0 matters

	t1hi, t1lo := bits.Mul64(lo, m.ratio[1])
	var c uint64
	t1lo, c = bits.Add64(t1lo, carry, 0)
	t1hi += c

	t2hi, t2lo := bits.Mul64(hi, m.ratio[0])
	var c2 uint64
	t2lo, c2 = bits.Add64(t2lo, t1lo, 0)
	t2hi += c2

	q := hi*m.ratio[1] + t1hi + t2hi
	r := lo - q*m.P
	if r >= m.P {
		r -= m.P
	}
	return r
}

// MulMod returns x*y mod P via a 128-bit product and Barrett reduction.
func (m Modulus) MulMod(x, y uint64) uint64 {
	hi, lo := bits.Mul64(x, y)
	return m.ReduceWide(hi, lo)
}

// AddMod returns x+y mod P assuming x, y < P.
func AddMod(x, y, p uint64) uint64 {
	z := x + y
	if z >= p {
		z -= p
	}
	return z
}

// SubMod returns x-y mod P assuming x, y < P.
func SubMod(x, y, p uint64) uint64 {
	z := x - y
	if x < y {
		z += p
	}
	return z
}

// NegMod returns -x mod P assuming x < P.
func NegMod(x, p uint64) uint64 {
	if x == 0 {
		return 0
	}
	return p - x
}

// Half returns x/2 mod P assuming x < P < 2^63 and odd P, using the
// branchless (x + (x&1)·p) >> 1 trick (no overflow since x+p < 2^64).
// The paper's INTT (Algorithm 4) folds this halving into every stage so
// that the final 1/n scaling disappears.
func Half(x, p uint64) uint64 {
	return (x + (x&1)*p) >> 1
}

// PowMod returns base^exp mod p by square-and-multiply.
func PowMod(base, exp, p uint64) uint64 {
	m := NewModulus(p)
	return m.PowMod(base, exp)
}

// PowMod returns base^exp mod P.
func (m Modulus) PowMod(base, exp uint64) uint64 {
	result := uint64(1 % m.P)
	b := m.Reduce(base)
	for exp > 0 {
		if exp&1 == 1 {
			result = m.MulMod(result, b)
		}
		b = m.MulMod(b, b)
		exp >>= 1
	}
	return result
}

// InvMod returns x^-1 mod P for prime P (Fermat), panicking on x == 0.
func (m Modulus) InvMod(x uint64) uint64 {
	if x%m.P == 0 {
		panic("uintmod: inverse of zero")
	}
	return m.PowMod(x, m.P-2)
}

// ShoupPrecomp returns y' = floor(y * 2^64 / p), the precomputed constant
// of Algorithm 2 for w = 64. y must be < p.
func ShoupPrecomp(y, p uint64) uint64 {
	q, _ := bits.Div64(y, 0, p) // floor((y*2^64)/p); y < p so quotient fits
	return q
}

// MulRed is Algorithm 2 with w = 64: x*y mod p where yShoup was produced
// by ShoupPrecomp(y, p). Requires p < 2^62 and y < p (by construction);
// x may be any 64-bit value, including lazy operands in [0, 4p) — see
// MulRedLazy. The result is fully reduced.
func MulRed(x, y, yShoup, p uint64) uint64 {
	t, _ := bits.Mul64(x, yShoup) // upper word of x*y'
	z := x*y - t*p                // computed mod 2^64
	if z >= p {
		z -= p
	}
	return z
}

// MulRedLazy is MulRed without the final conditional subtraction; the
// result lies in [0, 2p). Useful inside butterflies that tolerate lazy
// reduction.
//
// Unlike MulRed, x need not be reduced: for ANY 64-bit x (in particular
// lazy operands in [0, 4p)) the identity x·y - floor(x·y'/2^64)·p ≡ x·y
// (mod p) holds and the result stays below 2p, because the quotient
// estimate errs by less than 1 + x/2^64 < 2. Only y < p is required.
func MulRedLazy(x, y, yShoup, p uint64) uint64 {
	t, _ := bits.Mul64(x, yShoup)
	return x*y - t*p
}

// LazyReduce maps x in [0, 4p) to the fully reduced x mod p with two
// conditional subtractions — the single final pass of the lazy NTT
// (Harvey butterflies), which keeps operands in [0, 4p) through the
// forward transform and [0, 2p) through the inverse. twoP must be 2*p,
// and p < 2^62 so that 4p fits in a 64-bit word.
func LazyReduce(x, p, twoP uint64) uint64 {
	if x >= twoP {
		x -= twoP
	}
	if x >= p {
		x -= p
	}
	return x
}

// ShoupPrecomp52 returns y' = floor(y * 2^52 / p), the Shoup constant at
// the scale the AVX-512 IFMA kernels multiply at (52-bit lanes). Requires
// y < p < 2^50. With this scale, t = floor(x·y'/2^52) underestimates
// floor(x·y/p) by less than 1 + x/2^52 < 2 for any x < 2^52, so
// x·y - t·p stays in [0, 2p) exactly as with the 2^64-scaled constant.
func ShoupPrecomp52(y, p uint64) uint64 {
	q, _ := bits.Div64(y>>12, y<<52, p)
	return q
}

// barrett52 returns the per-row constants of the general-operand kernels
// (ifma_amd64.s, "Barrett by halves") for an odd p < 2^50 with
// k = bitlen(p): mu = floor(2^(k+51)/p) — the 2^52-scaled Shoup constant
// of 2^(k-1), which is below p — and shift = 52-k.
func barrett52(p uint64) (mu, shift uint64) {
	k := uint(bits.Len64(p))
	return ShoupPrecomp52(1<<(k-1), p), uint64(52 - k)
}

// dotPairLimit is the number of products of residues of p that one
// deferred reduction of the dot-product kernel may absorb (derived at the
// head of ifma_amd64.s, k = bitlen(p) <= 50): the sum of the products'
// high halves must stay an IFMA operand, the low halves a 64-bit lane,
// and the remainder plus an addend, below (T+3)p, a 52-bit lane.
func dotPairLimit(p uint64) int {
	k := bits.Len64(p)
	return min(1<<(51-k), 1<<(52-k)-3, 4095)
}

// Lanes is the number of 64-bit lanes in an AVX-512 vector. The shared
// operand y of VecMulPair and VecDotPair (a plaintext row) may be
// compact: n/Lanes values for a row of n, value j standing for lanes
// j·Lanes through j·Lanes+Lanes−1, which the kernels broadcast into a
// vector instead of loading one.
const Lanes = 8

// OperandShift returns the right shift that maps a coefficient index of
// a row of n to its index in the shared operand y: 0 when y is full (n
// values), 3 when it is compact (n/Lanes). Any other length panics.
func OperandShift(y []uint64, n int) uint {
	switch {
	case len(y) == n:
		return 0
	case len(y)*Lanes == n:
		return 3
	}
	panic("uintmod: operand row of neither n nor n/8 values")
}

// --- w = 54 emulation ------------------------------------------------

// Word54 is the HEAX native word width.
const Word54 = 54

const mask54 = (uint64(1) << Word54) - 1

// ShoupPrecomp54 returns y' = floor(y * 2^54 / p) for the w=54 datapath.
// Requires y < p < 2^52.
func ShoupPrecomp54(y, p uint64) uint64 {
	// y*2^54 fits in 106 bits; use 128-bit division.
	hi := y >> (64 - Word54)
	lo := y << Word54
	q, _ := bits.Div64(hi, lo, p)
	return q
}

// MulRed54 is Algorithm 2 with w = 54, emulating the HEAX dyadic-core
// datapath: all intermediate words are 54 bits wide. Requires p < 2^52,
// x, y < p, and yShoup = ShoupPrecomp54(y, p).
func MulRed54(x, y, yShoup, p uint64) uint64 {
	z := (x * y) & mask54 // lower 54-bit word of the product
	// t = floor(x*y' / 2^54): upper word of the 108-bit product.
	hi, lo := bits.Mul64(x, yShoup)
	t := hi<<(64-Word54) | lo>>Word54
	z = (z - (t*p)&mask54) & mask54 // single 54-bit word subtraction
	if z >= p {
		z -= p
	}
	return z
}

// Reduce54 performs Barrett reduction (Algorithm 1) on a two-word 54-bit
// input x = xhi*2^54 + xlo with x <= (p-1)^2 and p < 2^52, as the HEAX
// reduction datapath does after a 54x54-bit multiply. The arithmetic is
// carried out with the exact 128-bit Barrett routine; only the input
// framing (two 54-bit words) is hardware-specific.
func Reduce54(xhi, xlo uint64, m Modulus) uint64 {
	lo := xhi<<Word54 | (xlo & mask54)
	hi := xhi >> (64 - Word54)
	return m.ReduceWide(hi, lo)
}

// Mul54 returns the two-word 54-bit representation (hi, lo) of x*y for
// x, y < 2^54, i.e. the raw output of a 54-bit hardware multiplier.
func Mul54(x, y uint64) (hi, lo uint64) {
	h, l := bits.Mul64(x, y)
	return h<<(64-Word54) | l>>Word54, l & mask54
}
