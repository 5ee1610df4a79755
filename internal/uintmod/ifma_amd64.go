//go:build amd64

package uintmod

import "math/bits"

// detectIFMA reports whether the CPU and OS support AVX-512F + AVX-512
// IFMA with ZMM state enabled (implemented in ifma_amd64.s).
func detectIFMA() bool

func vecMulIFMA(out, x, y *uint64, n int, p, mu, shift uint64)
func vecMulPairIFMA(out0, out1, x0, x1, y *uint64, n int, p, mu, shift uint64, compact bool)
func vecMulTensorIFMA(c0, c1, c2, a0, a1, b0, b1 *uint64, n int, p, mu, shift uint64)
func vecAddIFMA(out, x, y *uint64, n int, p uint64)
func vecSubIFMA(out, x, y *uint64, n int, p uint64)
func vecNegIFMA(out, x *uint64, n int, p uint64)
func vecReduceIFMA(out, x *uint64, n int, p, mu, sub uint64)
func vecSubMulAddIFMA(out, a, r, add *uint64, n int, p, w, wShoup uint64)

// noescape: VecLinComb gathers the Shoup constants on its stack.
//
//go:noescape
func vecLinCombIFMA(out *uint64, xs *[]uint64, ws, wShoups *uint64, t, n int, p, add uint64, folds int)
func vecPermuteIFMA(out, x *uint64, blocks *uint32, lanes *[8][8]uint64, nb int)
func vecPermutePairIFMA(out0, out1, x0, x1 *uint64, blocks *uint32, lanes *[8][8]uint64, nb int, p uint64, add bool)

// noescape: callers gather the term list into a stack array.
//
//go:noescape
func vecDotPairIFMA(out0, out1 *uint64, terms *[3][]uint64, t, limit, folds, n int, p, mu, shift uint64, acc bool)

// hasIFMA is fixed at startup; the dispatch never changes afterwards.
var hasIFMA = detectIFMA()

// HasIFMA reports whether the AVX-512 IFMA row kernels are available.
func HasIFMA() bool { return hasIFMA }

// IFMAUsable reports whether the vector kernels can run for modulus p on
// rows of n coefficients: the lazy range [0, 4p) must fit a 52-bit lane
// (p < 2^50 — every Table 2 prime qualifies), p must be odd (the Barrett
// constant of the general-operand kernels needs p above 2^(bitlen-1))
// and rows must be whole 8-lane vectors.
func IFMAUsable(p uint64, n int) bool {
	return hasIFMA && bits.Len64(p) <= 50 && p&1 == 1 && n >= 8 && n%8 == 0
}

// The general-operand kernels below take fully reduced rows (every
// element < p) and return fully reduced rows, bit-identical to the scalar
// Modulus.MulMod/AddMod/SubMod/NegMod loops. All require
// IFMAUsable(p, len(out)); an output may be the same slice as an input.

// VecMul sets out[i] = x[i]·y[i] mod p.
func VecMul(out, x, y []uint64, p uint64) {
	n := len(out)
	_ = x[n-1]
	_ = y[n-1]
	mu, shift := barrett52(p)
	vecMulIFMA(&out[0], &x[0], &y[0], n, p, mu, shift)
}

// VecMulPair sets out0[i] = x0[i]·y[i] mod p and out1[i] = x1[i]·y[i]
// mod p, reading the shared operand once. y may be compact (see Lanes):
// y[i>>3] then takes the place of y[i].
func VecMulPair(out0, out1, x0, x1, y []uint64, p uint64) {
	n := len(out0)
	_ = out1[n-1]
	_ = x0[n-1]
	_ = x1[n-1]
	compact := OperandShift(y, n) != 0
	mu, shift := barrett52(p)
	vecMulPairIFMA(&out0[0], &out1[0], &x0[0], &x1[0], &y[0], n, p, mu, shift, compact)
}

// VecDotPair sets out0[i] = Σ x0[i]·y[i] mod p and out1[i] = Σ x1[i]·y[i]
// mod p over the terms (x0, x1, y) — the two components of Σ ctⱼ ⊙ ptⱼ —
// added to what out0 and out1 hold when acc is set. Every operand is
// read once and each output written once; products accumulate unreduced
// as far as p allows, so the result is the canonical residue the
// VecMulPair/VecAdd sequence gives. Each term's y may be full or compact
// (Lanes), independently of the others. The outputs must not be operands.
func VecDotPair(out0, out1 []uint64, terms [][3][]uint64, acc bool, p uint64) {
	n := len(out0)
	_ = out1[n-1]
	for i := range terms {
		_ = terms[i][0][n-1]
		_ = terms[i][1][n-1]
		OperandShift(terms[i][2], n)
	}
	mu, shift := barrett52(p)
	limit := dotPairLimit(p)
	folds := bits.Len(uint(min(limit, len(terms)) + 2))
	vecDotPairIFMA(&out0[0], &out1[0], &terms[0], len(terms), limit, folds, n, p, mu, shift, acc)
}

// VecMulTensor sets c0 = a0·b0, c1 = a0·b1 + a1·b0, c2 = a1·b1 (mod p),
// the Algorithm 5 tensor, in one pass over the four operands.
func VecMulTensor(c0, c1, c2, a0, a1, b0, b1 []uint64, p uint64) {
	n := len(c0)
	_ = c1[n-1]
	_ = c2[n-1]
	_ = a0[n-1]
	_ = a1[n-1]
	_ = b0[n-1]
	_ = b1[n-1]
	mu, shift := barrett52(p)
	vecMulTensorIFMA(&c0[0], &c1[0], &c2[0], &a0[0], &a1[0], &b0[0], &b1[0], n, p, mu, shift)
}

// VecAdd sets out[i] = (x[i] + y[i]) mod p.
func VecAdd(out, x, y []uint64, p uint64) {
	n := len(out)
	_ = x[n-1]
	_ = y[n-1]
	vecAddIFMA(&out[0], &x[0], &y[0], n, p)
}

// VecSub sets out[i] = (x[i] - y[i]) mod p.
func VecSub(out, x, y []uint64, p uint64) {
	n := len(out)
	_ = x[n-1]
	_ = y[n-1]
	vecSubIFMA(&out[0], &x[0], &y[0], n, p)
}

// VecNeg sets out[i] = -x[i] mod p.
func VecNeg(out, x []uint64, p uint64) {
	n := len(out)
	_ = x[n-1]
	vecNegIFMA(&out[0], &x[0], n, p)
}

// The constant-operand kernels below serve the RNS base conversion and
// flooring, where a row changes prime: they take one constant per row
// and, like the rest, return fully reduced rows bit-identical to the
// scalar loops they replace.

// VecReduce sets out[i] = (x[i] mod p - sub) mod p — Modulus.Reduce, then
// SubMod by a constant sub < p (0 for a plain reduction). Every x[i]
// must be below 2^52: a row of residues of a prime of at most 52 bits.
func VecReduce(out, x []uint64, sub, p uint64) {
	n := len(out)
	_ = x[n-1]
	vecReduceIFMA(&out[0], &x[0], n, p, ShoupPrecomp52(1, p), sub)
}

// VecSubMulAdd sets out[i] = ((a[i] - r[i])·w + add[i]) mod p for a
// constant w < p — the closing pass of RNS flooring (Algorithm 6 lines
// 5-6, w the dropped prime's inverse). add may be nil for no addition.
func VecSubMulAdd(out, a, r, add []uint64, w, p uint64) {
	n := len(out)
	_ = a[n-1]
	_ = r[n-1]
	var addPtr *uint64
	if add != nil {
		_ = add[n-1]
		addPtr = &add[0]
	}
	vecSubMulAddIFMA(&out[0], &a[0], &r[0], addPtr, n, p, w, ShoupPrecomp52(w, p))
}

// LinCombTerms is the most rows one VecLinComb sums.
const LinCombTerms = 8

// VecLinComb sets out[i] = (Σₜ xs[t][i]·ws[t] + add) mod p for constants
// ws[t] < p and add < p over 1 to LinCombTerms rows of values below
// 2^52 — residues of a prime of at most 52 bits, reduced or not modulo p
// — the weighed sums a chain of floors closes with. Each Shoup product
// lies in [0, 2p) for any such value (ShoupPrecomp52), so the sum stays
// below (2t+1)p and folds to a canonical residue. Every row is read once
// and out written once, element by element, so out may be one of xs.
func VecLinComb(out []uint64, xs [][]uint64, ws []uint64, add, p uint64) {
	n, t := len(out), len(xs)
	if t == 0 || t > LinCombTerms || len(ws) != t {
		panic("uintmod: VecLinComb takes 1 to LinCombTerms rows, one weight each")
	}
	var shoup [LinCombTerms]uint64
	for i, x := range xs {
		_ = x[n-1]
		shoup[i] = ShoupPrecomp52(ws[i], p)
	}
	vecLinCombIFMA(&out[0], &xs[0], &ws[0], &shoup[0], t, n, p, add, bits.Len(uint(2*t)))
}
