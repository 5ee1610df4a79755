package ntt

// This file is the production NTT hot path: Harvey-style lazy-reduction
// transforms (the technique of "Faster arithmetic for number-theoretic
// transforms", which Lattigo and SEAL both use on CPUs). The strict
// transforms in ntt.go are the oracle; these are the ones every caller
// (ring.Context, the CKKS evaluator, the benches) actually runs.
//
// Invariants, for p < 2^62 (MaxModulusBits64):
//
//   - Forward keeps every coefficient in [0, 4p). Each butterfly first
//     folds its u operand into [0, 2p), forms w·v in [0, 2p) by Shoup
//     multiplication without the final correction, and outputs u+wv and
//     u-wv+2p, both < 4p. The first stage skips the fold (inputs are
//     already < p) and the last stage emits fully reduced outputs, so no
//     separate reduction pass runs.
//   - Inverse keeps every coefficient in [0, 2p). Each butterfly outputs
//     u+v folded into [0, 2p) and w·(u-v+2p) in [0, 2p). The last stage
//     multiplies its two branches by n^{-1} and ψ^{-bitrev(1)}·n^{-1}
//     with full Shoup reductions, folding the 1/n scaling and the final
//     reduction into the stage itself.
//
// Inner loops are 8-way unrolled; the re-slicing (x := a[j:j+8:j+8])
// pins the slice length so the compiler proves the eight constant indices
// in range and drops all bounds checks.
//
// A row whose tables carry the ifma flag (AVX-512 IFMA CPU, p < 2^50,
// n >= 16 — every Table 2 row) never reaches those loops: ForwardTo and
// InverseTo hand every stage to the kernels of ifma_amd64.s, which keep
// the same ranges, two strided stages to a pass. The scalar stages are the
// only path on other hosts and for wider primes. Either route reads only
// the tables NewTables builds up front — the twiddles and the route's own
// Shoup tables — so a production row never builds the strict oracle's;
// only a scalar ring below 16 coefficients, which runs the strict
// transforms, does.

import (
	"math/bits"

	"heax/internal/uintmod"
)

// butterfly is the forward (Cooley–Tukey) lazy butterfly:
// (u, v) → (u + w·v, u − w·v) with inputs in [0, 4p), outputs in [0, 4p),
// and w·v in [0, 2p) via uncorrected Shoup multiplication.
func butterfly(u, v, w, wShoup, p, twoP uint64) (uint64, uint64) {
	if u >= twoP {
		u -= twoP
	}
	wv := uintmod.MulRedLazy(v, w, wShoup, p)
	return u + wv, u + twoP - wv
}

// butterflyFirst is butterfly without the entry fold, valid when u < 2p —
// true in the first stage, whose inputs are fully reduced.
func butterflyFirst(u, v, w, wShoup, p, twoP uint64) (uint64, uint64) {
	wv := uintmod.MulRedLazy(v, w, wShoup, p)
	return u + wv, u + twoP - wv
}

// butterflyLast is butterfly with both outputs folded all the way to
// [0, p), used in the final stage so the transform needs no closing
// reduction pass.
func butterflyLast(u, v, w, wShoup, p, twoP uint64) (uint64, uint64) {
	if u >= twoP {
		u -= twoP
	}
	wv := uintmod.MulRedLazy(v, w, wShoup, p)
	return uintmod.LazyReduce(u+wv, p, twoP), uintmod.LazyReduce(u+twoP-wv, p, twoP)
}

// invButterfly is the inverse (Gentleman–Sande) lazy butterfly:
// (u, v) → (u + v, w·(u − v)) with inputs and outputs in [0, 2p).
func invButterfly(u, v, w, wShoup, p, twoP uint64) (uint64, uint64) {
	x := u + v
	if x >= twoP {
		x -= twoP
	}
	return x, uintmod.MulRedLazy(u+twoP-v, w, wShoup, p)
}

// invButterflyFirst is invButterfly without the sum fold, valid when the
// inputs are fully reduced (u+v < 2p) — true in the first stage.
func invButterflyFirst(u, v, w, wShoup, p, twoP uint64) (uint64, uint64) {
	return u + v, uintmod.MulRedLazy(u+twoP-v, w, wShoup, p)
}

// Forward computes the in-place negacyclic NTT of a (Algorithm 3) on the
// lazy hot path. Input coefficients must be < p; the output is in
// bit-reversed order, fully reduced, and bit-identical to ForwardStrict.
func (t *Tables) Forward(a []uint64) { t.ForwardTo(a, a) }

// InputBound is the exclusive upper bound on ForwardTo's input
// coefficients: 4p where the IFMA kernels run, whose every butterfly
// takes its operands from the whole lazy range, and p elsewhere (the
// scalar first stage skips the entry fold). A congruent input below the
// bound gives the output its canonical residues would, bit for bit, since
// the transform's outputs are fully reduced.
func (t *Tables) InputBound() uint64 {
	if t.ifma {
		return 4 * t.Mod.P
	}
	return t.Mod.P
}

// ForwardTo is Forward from src into dst: src is only read (the first
// pass loads from it and stores to dst), and dst may be src itself but
// must not otherwise overlap it. Input coefficients must be below
// InputBound.
func (t *Tables) ForwardTo(dst, src []uint64) {
	if len(dst) != t.N || len(src) != t.N {
		panic("ntt: length mismatch")
	}
	n := t.N
	p := t.Mod.P
	psi := t.psiRev
	if t.ifma {
		// The log2(n)-3 stages of stride n/2 down to 8 run two to a pass;
		// an odd one out (log2 n even) is the stride 8 stage, which joins
		// strides 4, 2 and 1 in the fused tail. Only a 16-coefficient row
		// has no pass to take it out of place.
		shoup := t.psiRevShoup52
		stages := 4 - bits.TrailingZeros(uint(n))&1
		if n == 16 {
			copy(dst, src)
		}
		for m := 1; m <= n>>(stages+2); m <<= 2 {
			fwdStage4IFMA(&dst[0], &src[0], &psi[0], &shoup[0], m, n/(4*m), p)
			src = dst
		}
		fwdTailIFMA(&dst[0], &psi[0], &shoup[0], n, stages, p)
		return
	}
	a := dst
	if &dst[0] != &src[0] {
		copy(dst, src)
	}
	if n < 16 {
		// The unrolled kernels need at least 16 coefficients; tiny rings
		// (tests, toy examples) take the strict path, which is exact.
		t.ForwardStrict(a)
		return
	}
	twoP := p * 2
	psiShoup := t.psiRevShoup

	// First stage (m = 1): a single twiddle across the two array halves;
	// inputs are < p, so the entry fold is skipped.
	w, ws := psi[1], psiShoup[1]
	h := n >> 1
	for j := 0; j < h; j += 8 {
		x := a[j : j+8 : j+8]
		y := a[j+h : j+h+8 : j+h+8]
		x[0], y[0] = butterflyFirst(x[0], y[0], w, ws, p, twoP)
		x[1], y[1] = butterflyFirst(x[1], y[1], w, ws, p, twoP)
		x[2], y[2] = butterflyFirst(x[2], y[2], w, ws, p, twoP)
		x[3], y[3] = butterflyFirst(x[3], y[3], w, ws, p, twoP)
		x[4], y[4] = butterflyFirst(x[4], y[4], w, ws, p, twoP)
		x[5], y[5] = butterflyFirst(x[5], y[5], w, ws, p, twoP)
		x[6], y[6] = butterflyFirst(x[6], y[6], w, ws, p, twoP)
		x[7], y[7] = butterflyFirst(x[7], y[7], w, ws, p, twoP)
	}

	step := n >> 1
	for m := 2; m < n; m <<= 1 {
		step >>= 1
		switch {
		case step >= 8:
			for i := 0; i < m; i++ {
				j1 := 2 * i * step
				w, ws := psi[m+i], psiShoup[m+i]
				X := a[j1 : j1+step : j1+step]
				Y := a[j1+step : j1+2*step : j1+2*step]
				for j := 0; j < step; j += 8 {
					x := X[j : j+8 : j+8]
					y := Y[j : j+8 : j+8]
					x[0], y[0] = butterfly(x[0], y[0], w, ws, p, twoP)
					x[1], y[1] = butterfly(x[1], y[1], w, ws, p, twoP)
					x[2], y[2] = butterfly(x[2], y[2], w, ws, p, twoP)
					x[3], y[3] = butterfly(x[3], y[3], w, ws, p, twoP)
					x[4], y[4] = butterfly(x[4], y[4], w, ws, p, twoP)
					x[5], y[5] = butterfly(x[5], y[5], w, ws, p, twoP)
					x[6], y[6] = butterfly(x[6], y[6], w, ws, p, twoP)
					x[7], y[7] = butterfly(x[7], y[7], w, ws, p, twoP)
				}
			}
		case step == 4:
			// Two 8-coefficient groups per iteration.
			for i := 0; i < m; i += 2 {
				wv := psi[m+i : m+i+2 : m+i+2]
				wsv := psiShoup[m+i : m+i+2 : m+i+2]
				x := a[8*i : 8*i+16 : 8*i+16]
				x[0], x[4] = butterfly(x[0], x[4], wv[0], wsv[0], p, twoP)
				x[1], x[5] = butterfly(x[1], x[5], wv[0], wsv[0], p, twoP)
				x[2], x[6] = butterfly(x[2], x[6], wv[0], wsv[0], p, twoP)
				x[3], x[7] = butterfly(x[3], x[7], wv[0], wsv[0], p, twoP)
				x[8], x[12] = butterfly(x[8], x[12], wv[1], wsv[1], p, twoP)
				x[9], x[13] = butterfly(x[9], x[13], wv[1], wsv[1], p, twoP)
				x[10], x[14] = butterfly(x[10], x[14], wv[1], wsv[1], p, twoP)
				x[11], x[15] = butterfly(x[11], x[15], wv[1], wsv[1], p, twoP)
			}
		case step == 2:
			// Four 4-coefficient groups per iteration.
			for i := 0; i < m; i += 4 {
				wv := psi[m+i : m+i+4 : m+i+4]
				wsv := psiShoup[m+i : m+i+4 : m+i+4]
				x := a[4*i : 4*i+16 : 4*i+16]
				x[0], x[2] = butterfly(x[0], x[2], wv[0], wsv[0], p, twoP)
				x[1], x[3] = butterfly(x[1], x[3], wv[0], wsv[0], p, twoP)
				x[4], x[6] = butterfly(x[4], x[6], wv[1], wsv[1], p, twoP)
				x[5], x[7] = butterfly(x[5], x[7], wv[1], wsv[1], p, twoP)
				x[8], x[10] = butterfly(x[8], x[10], wv[2], wsv[2], p, twoP)
				x[9], x[11] = butterfly(x[9], x[11], wv[2], wsv[2], p, twoP)
				x[12], x[14] = butterfly(x[12], x[14], wv[3], wsv[3], p, twoP)
				x[13], x[15] = butterfly(x[13], x[15], wv[3], wsv[3], p, twoP)
			}
		default:
			// Last stage (step == 1): eight adjacent-pair groups at a
			// time, emitting fully reduced outputs.
			for i := 0; i < m; i += 8 {
				wv := psi[m+i : m+i+8 : m+i+8]
				wsv := psiShoup[m+i : m+i+8 : m+i+8]
				x := a[2*i : 2*i+16 : 2*i+16]
				x[0], x[1] = butterflyLast(x[0], x[1], wv[0], wsv[0], p, twoP)
				x[2], x[3] = butterflyLast(x[2], x[3], wv[1], wsv[1], p, twoP)
				x[4], x[5] = butterflyLast(x[4], x[5], wv[2], wsv[2], p, twoP)
				x[6], x[7] = butterflyLast(x[6], x[7], wv[3], wsv[3], p, twoP)
				x[8], x[9] = butterflyLast(x[8], x[9], wv[4], wsv[4], p, twoP)
				x[10], x[11] = butterflyLast(x[10], x[11], wv[5], wsv[5], p, twoP)
				x[12], x[13] = butterflyLast(x[12], x[13], wv[6], wsv[6], p, twoP)
				x[14], x[15] = butterflyLast(x[14], x[15], wv[7], wsv[7], p, twoP)
			}
		}
	}
}

// Inverse computes the in-place negacyclic INTT of a bit-reversed-order
// input (Algorithm 4) on the lazy hot path, returning fully reduced
// standard-order coefficients with the 1/n factor applied — bit-identical
// to InverseStrict. Input coefficients must be < p.
func (t *Tables) Inverse(a []uint64) { t.InverseTo(a, a) }

// InverseTo is Inverse from src into dst, with ForwardTo's aliasing rule:
// src is only read, and dst may be src itself.
func (t *Tables) InverseTo(dst, src []uint64) {
	if len(dst) != t.N || len(src) != t.N {
		panic("ntt: length mismatch")
	}
	n := t.N
	p := t.Mod.P
	psi := t.psiInvRev
	if t.ifma {
		// ForwardTo's schedule mirrored: strides 1, 2 and 4 fused (and
		// stride 8 when log2 n is odd, so that an even number of strided
		// stages is left), the log2(n)-4 stages up to stride n/4 two to a
		// pass, then the closing stage with its fused n^-1 twiddles.
		shoup := t.psiInvRevShoup52
		stages := 3 + bits.TrailingZeros(uint(n))&1
		invHeadIFMA(&dst[0], &src[0], &psi[0], &shoup[0], n, stages, p)
		for m := n >> (stages + 2); m >= 2; m >>= 2 {
			invStage4IFMA(&dst[0], &psi[0], &shoup[0], m, n/(4*m), p)
		}
		invLastIFMA(&dst[0], n, p, t.nInv, t.nInvShoup52, t.psi1NInv, t.psi1NInvShoup52)
		return
	}
	a := dst
	if &dst[0] != &src[0] {
		copy(dst, src)
	}
	if n < 16 {
		t.InverseStrict(a)
		return
	}
	twoP := p * 2
	psiShoup := t.psiInvRevShoup

	// First stage (step = 1): adjacent pairs, twiddles ψ^{-bitrev(h+i)};
	// inputs are < p, so the sum needs no fold.
	h := n >> 1
	for i := 0; i < h; i += 8 {
		wv := psi[h+i : h+i+8 : h+i+8]
		wsv := psiShoup[h+i : h+i+8 : h+i+8]
		x := a[2*i : 2*i+16 : 2*i+16]
		x[0], x[1] = invButterflyFirst(x[0], x[1], wv[0], wsv[0], p, twoP)
		x[2], x[3] = invButterflyFirst(x[2], x[3], wv[1], wsv[1], p, twoP)
		x[4], x[5] = invButterflyFirst(x[4], x[5], wv[2], wsv[2], p, twoP)
		x[6], x[7] = invButterflyFirst(x[6], x[7], wv[3], wsv[3], p, twoP)
		x[8], x[9] = invButterflyFirst(x[8], x[9], wv[4], wsv[4], p, twoP)
		x[10], x[11] = invButterflyFirst(x[10], x[11], wv[5], wsv[5], p, twoP)
		x[12], x[13] = invButterflyFirst(x[12], x[13], wv[6], wsv[6], p, twoP)
		x[14], x[15] = invButterflyFirst(x[14], x[15], wv[7], wsv[7], p, twoP)
	}

	step := 2
	for m := n >> 2; m >= 2; m >>= 1 {
		switch {
		case step >= 8:
			for i := 0; i < m; i++ {
				j1 := 2 * i * step
				w, ws := psi[m+i], psiShoup[m+i]
				X := a[j1 : j1+step : j1+step]
				Y := a[j1+step : j1+2*step : j1+2*step]
				for j := 0; j < step; j += 8 {
					x := X[j : j+8 : j+8]
					y := Y[j : j+8 : j+8]
					x[0], y[0] = invButterfly(x[0], y[0], w, ws, p, twoP)
					x[1], y[1] = invButterfly(x[1], y[1], w, ws, p, twoP)
					x[2], y[2] = invButterfly(x[2], y[2], w, ws, p, twoP)
					x[3], y[3] = invButterfly(x[3], y[3], w, ws, p, twoP)
					x[4], y[4] = invButterfly(x[4], y[4], w, ws, p, twoP)
					x[5], y[5] = invButterfly(x[5], y[5], w, ws, p, twoP)
					x[6], y[6] = invButterfly(x[6], y[6], w, ws, p, twoP)
					x[7], y[7] = invButterfly(x[7], y[7], w, ws, p, twoP)
				}
			}
		case step == 4:
			for i := 0; i < m; i += 2 {
				wv := psi[m+i : m+i+2 : m+i+2]
				wsv := psiShoup[m+i : m+i+2 : m+i+2]
				x := a[8*i : 8*i+16 : 8*i+16]
				x[0], x[4] = invButterfly(x[0], x[4], wv[0], wsv[0], p, twoP)
				x[1], x[5] = invButterfly(x[1], x[5], wv[0], wsv[0], p, twoP)
				x[2], x[6] = invButterfly(x[2], x[6], wv[0], wsv[0], p, twoP)
				x[3], x[7] = invButterfly(x[3], x[7], wv[0], wsv[0], p, twoP)
				x[8], x[12] = invButterfly(x[8], x[12], wv[1], wsv[1], p, twoP)
				x[9], x[13] = invButterfly(x[9], x[13], wv[1], wsv[1], p, twoP)
				x[10], x[14] = invButterfly(x[10], x[14], wv[1], wsv[1], p, twoP)
				x[11], x[15] = invButterfly(x[11], x[15], wv[1], wsv[1], p, twoP)
			}
		default: // step == 2
			for i := 0; i < m; i += 4 {
				wv := psi[m+i : m+i+4 : m+i+4]
				wsv := psiShoup[m+i : m+i+4 : m+i+4]
				x := a[4*i : 4*i+16 : 4*i+16]
				x[0], x[2] = invButterfly(x[0], x[2], wv[0], wsv[0], p, twoP)
				x[1], x[3] = invButterfly(x[1], x[3], wv[0], wsv[0], p, twoP)
				x[4], x[6] = invButterfly(x[4], x[6], wv[1], wsv[1], p, twoP)
				x[5], x[7] = invButterfly(x[5], x[7], wv[1], wsv[1], p, twoP)
				x[8], x[10] = invButterfly(x[8], x[10], wv[2], wsv[2], p, twoP)
				x[9], x[11] = invButterfly(x[9], x[11], wv[2], wsv[2], p, twoP)
				x[12], x[14] = invButterfly(x[12], x[14], wv[3], wsv[3], p, twoP)
				x[13], x[15] = invButterfly(x[13], x[15], wv[3], wsv[3], p, twoP)
			}
		}
		step <<= 1
	}

	// Last stage (m = 1): both branches carry fused twiddles — n^{-1} on
	// the sum, ψ^{-bitrev(1)}·n^{-1} on the difference — and a full Shoup
	// reduction, so the transform ends fully reduced with no extra pass.
	nInv, nInvShoup := t.nInv, t.nInvShoup
	wLast, wLastShoup := t.psi1NInv, t.psi1NInvShoup
	for j := 0; j < h; j += 8 {
		x := a[j : j+8 : j+8]
		y := a[j+h : j+h+8 : j+h+8]
		x[0], y[0] = invButterflyLast(x[0], y[0], nInv, nInvShoup, wLast, wLastShoup, p, twoP)
		x[1], y[1] = invButterflyLast(x[1], y[1], nInv, nInvShoup, wLast, wLastShoup, p, twoP)
		x[2], y[2] = invButterflyLast(x[2], y[2], nInv, nInvShoup, wLast, wLastShoup, p, twoP)
		x[3], y[3] = invButterflyLast(x[3], y[3], nInv, nInvShoup, wLast, wLastShoup, p, twoP)
		x[4], y[4] = invButterflyLast(x[4], y[4], nInv, nInvShoup, wLast, wLastShoup, p, twoP)
		x[5], y[5] = invButterflyLast(x[5], y[5], nInv, nInvShoup, wLast, wLastShoup, p, twoP)
		x[6], y[6] = invButterflyLast(x[6], y[6], nInv, nInvShoup, wLast, wLastShoup, p, twoP)
		x[7], y[7] = invButterflyLast(x[7], y[7], nInv, nInvShoup, wLast, wLastShoup, p, twoP)
	}
}

// invButterflyLast is the fused last inverse stage: (u, v) →
// (n^{-1}·(u+v), ψ^{-bitrev(1)}·n^{-1}·(u−v)), both fully reduced.
func invButterflyLast(u, v, nInv, nInvShoup, w, wShoup, p, twoP uint64) (uint64, uint64) {
	return uintmod.MulRed(u+v, nInv, nInvShoup, p),
		uintmod.MulRed(u+twoP-v, w, wShoup, p)
}
