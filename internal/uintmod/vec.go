package uintmod

import "math/bits"

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

// The row kernels below pick their route themselves: the AVX-512 IFMA
// kernel when IFMAUsable(p, len(out)), the portable loop beside it
// otherwise. Both return canonical residues, so the routes agree bit for
// bit.
//
// The general-operand kernels take fully reduced rows (every element
// < p) and return fully reduced rows. An output may be the same slice as
// an input.

// VecMul sets out[i] = x[i]·y[i] mod p.
//
//heax:noalloc
func VecMul(out, x, y []uint64, p uint64) {
	n := len(out)
	_ = x[n-1]
	_ = y[n-1]
	if IFMAUsable(p, n) {
		mu, shift := barrett52(p)
		vecMulIFMA(&out[0], &x[0], &y[0], n, p, mu, shift)
		return
	}
	m := NewModulus(p)
	for j := range out {
		out[j] = m.MulMod(x[j], y[j])
	}
}

// VecMulPair sets out0[i] = x0[i]·y[i] mod p and out1[i] = x1[i]·y[i]
// mod p, reading the shared operand once. y may be compact (see Lanes):
// y[i>>3] then takes the place of y[i].
//
//heax:noalloc
func VecMulPair(out0, out1, x0, x1, y []uint64, p uint64) {
	n := len(out0)
	_ = out1[n-1]
	_ = x0[n-1]
	_ = x1[n-1]
	s := OperandShift(y, n)
	if IFMAUsable(p, n) {
		mu, shift := barrett52(p)
		vecMulPairIFMA(&out0[0], &out1[0], &x0[0], &x1[0], &y[0], n, p, mu, shift, s != 0)
		return
	}
	m := NewModulus(p)
	for j := range out0 {
		yj := y[j>>s]
		out0[j] = m.MulMod(x0[j], yj)
		out1[j] = m.MulMod(x1[j], yj)
	}
}

// VecDotPair sets out0[i] = Σ x0[i]·y[i] mod p and out1[i] = Σ x1[i]·y[i]
// mod p over the terms (x0, x1, y) — the two components of Σ ctⱼ ⊙ ptⱼ —
// added to what out0 and out1 hold when acc is set. Every operand is
// read once and each output written once; the vector kernel accumulates
// products unreduced as far as p allows, so the result is the canonical
// residue the VecMulPair/VecAdd sequence gives. Each term's y may be full
// or compact (Lanes), independently of the others. The outputs must not
// be operands.
//
//heax:noalloc
func VecDotPair(out0, out1 []uint64, terms [][3][]uint64, acc bool, p uint64) {
	n := len(out0)
	_ = out1[n-1]
	for i := range terms {
		_ = terms[i][0][n-1]
		_ = terms[i][1][n-1]
		OperandShift(terms[i][2], n)
	}
	if IFMAUsable(p, n) {
		mu, shift := barrett52(p)
		limit := dotPairLimit(p)
		folds := bits.Len(uint(min(limit, len(terms)) + 2))
		vecDotPairIFMA(&out0[0], &out1[0], &terms[0], len(terms), limit, folds, n, p, mu, shift, acc)
		return
	}
	m := NewModulus(p)
	for t, term := range terms {
		x0, x1, y := term[0], term[1], term[2]
		first := t == 0 && !acc
		s := OperandShift(y, n)
		for j := range out0 {
			s0, s1 := out0[j], out1[j]
			if first {
				s0, s1 = 0, 0
			}
			yj := y[j>>s]
			out0[j] = AddMod(s0, m.MulMod(x0[j], yj), p)
			out1[j] = AddMod(s1, m.MulMod(x1[j], yj), p)
		}
	}
}

// VecMulTensor sets c0 = a0·b0, c1 = a0·b1 + a1·b0, c2 = a1·b1 (mod p),
// the Algorithm 5 tensor, in one pass over the four operands.
//
//heax:noalloc
func VecMulTensor(c0, c1, c2, a0, a1, b0, b1 []uint64, p uint64) {
	n := len(c0)
	_ = c1[n-1]
	_ = c2[n-1]
	_ = a0[n-1]
	_ = a1[n-1]
	_ = b0[n-1]
	_ = b1[n-1]
	if IFMAUsable(p, n) {
		mu, shift := barrett52(p)
		vecMulTensorIFMA(&c0[0], &c1[0], &c2[0], &a0[0], &a1[0], &b0[0], &b1[0], n, p, mu, shift)
		return
	}
	m := NewModulus(p)
	for j := range c0 {
		u0, u1, v0, v1 := a0[j], a1[j], b0[j], b1[j]
		c0[j] = m.MulMod(u0, v0)
		c1[j] = AddMod(m.MulMod(u0, v1), m.MulMod(u1, v0), p)
		c2[j] = m.MulMod(u1, v1)
	}
}

// VecAdd sets out[i] = (x[i] + y[i]) mod p.
//
//heax:noalloc
func VecAdd(out, x, y []uint64, p uint64) {
	n := len(out)
	_ = x[n-1]
	_ = y[n-1]
	if IFMAUsable(p, n) {
		vecAddIFMA(&out[0], &x[0], &y[0], n, p)
		return
	}
	for j := range out {
		out[j] = AddMod(x[j], y[j], p)
	}
}

// VecSub sets out[i] = (x[i] - y[i]) mod p.
//
//heax:noalloc
func VecSub(out, x, y []uint64, p uint64) {
	n := len(out)
	_ = x[n-1]
	_ = y[n-1]
	if IFMAUsable(p, n) {
		vecSubIFMA(&out[0], &x[0], &y[0], n, p)
		return
	}
	for j := range out {
		out[j] = SubMod(x[j], y[j], p)
	}
}

// The constant-operand kernels below serve the RNS base conversion and
// flooring, where a row changes prime: they take one constant per row.

// VecSubMulAdd sets out[i] = ((a[i] - r[i])·w + add[i]) mod p for a
// constant w < p — the closing pass of RNS flooring (Algorithm 6 lines
// 5-6, w the dropped prime's inverse). add may be nil for no addition.
//
//heax:noalloc
func VecSubMulAdd(out, a, r, add []uint64, w, p uint64) {
	n := len(out)
	_ = a[n-1]
	_ = r[n-1]
	if add != nil {
		_ = add[n-1]
	}
	if IFMAUsable(p, n) {
		var addPtr *uint64
		if add != nil {
			addPtr = &add[0]
		}
		vecSubMulAddIFMA(&out[0], &a[0], &r[0], addPtr, n, p, w, ShoupPrecomp52(w, p))
		return
	}
	ws := ShoupPrecomp(w, p)
	if add != nil {
		for j := range out {
			v := SubMod(a[j], r[j], p)
			out[j] = AddMod(MulRed(v, w, ws, p), add[j], p)
		}
		return
	}
	for j := range out {
		v := SubMod(a[j], r[j], p)
		out[j] = MulRed(v, w, ws, p)
	}
}

// LinCombTerms is the most rows one pass of VecLinComb sums.
const LinCombTerms = 8

// VecLinComb sets out[i] = (Σₜ xs[t][i]·ws[t] + add) mod p for one or
// more rows of values below bound and constants ws[t], add < p — a
// reduction (one row, weight 1, add = -sub mod p), a negation (weight
// p-1), and the weighed sums a chain of floors closes with. Rows go
// LinCombTerms a pass, each pass after the first taking out back with
// weight 1. Every row is read once a pass and out written once, element
// by element, so out may be one of the first pass's rows.
//
// The vector kernel takes values below 2^52 — residues of a prime of at
// most 52 bits, reduced or not modulo p: each Shoup product then lies in
// [0, 2p) (ShoupPrecomp52), so a pass's sum stays below (2t+1)p and folds
// to a canonical residue. A wider bound takes the portable loop, whose
// 64-bit Shoup product takes any word.
//
//heax:noalloc
func VecLinComb(out []uint64, xs [][]uint64, ws []uint64, add, bound, p uint64) {
	vec := IFMAUsable(p, len(out)) && bound <= 1<<52
	t := min(len(xs), LinCombTerms)
	linComb(out, xs[:t], ws[:t], add, p, vec)
	var more [LinCombTerms][]uint64
	var moreW [LinCombTerms]uint64
	more[0], moreW[0] = out, 1
	for xs, ws = xs[t:], ws[t:]; len(xs) > 0; xs, ws = xs[t:], ws[t:] {
		t = min(len(xs), LinCombTerms-1)
		copy(more[1:], xs[:t])
		copy(moreW[1:], ws[:t])
		linComb(out, more[:t+1], moreW[:t+1], 0, p, vec)
	}
}

// linComb is one pass of VecLinComb over 1 to LinCombTerms rows, on the
// vector kernel when vec is set.
//
//heax:noalloc
func linComb(out []uint64, xs [][]uint64, ws []uint64, add, p uint64, vec bool) {
	n := len(out)
	var shoup [LinCombTerms]uint64
	if vec {
		for i, x := range xs {
			_ = x[n-1]
			shoup[i] = ShoupPrecomp52(ws[i], p)
		}
		vecLinCombIFMA(&out[0], &xs[0], &ws[0], &shoup[0], len(xs), n, p, add, bits.Len(uint(2*len(xs))))
		return
	}
	for i, x := range xs {
		_ = x[n-1]
		shoup[i] = ShoupPrecomp(ws[i], p)
	}
	for j := range out {
		s := add
		for i, x := range xs {
			s = AddMod(s, MulRed(x[j], ws[i], shoup[i], p), p)
		}
		out[j] = s
	}
}
