// Package ntt implements the negacyclic number-theoretic transform of
// paper Algorithms 3 (NTT) and 4 (INTT) in the Longa–Naehrig form that
// Microsoft SEAL uses and that the HEAX NTT/INTT cores implement in
// hardware.
//
// The forward transform is a Cooley–Tukey decimation-in-time network whose
// twiddle factors are powers of a primitive 2n-th root of unity ψ stored
// in bit-reversed order; its output is in bit-reversed order. The inverse
// transform is the matching Gentleman–Sande network.
//
// Two implementations coexist:
//
//   - Forward/Inverse, and ForwardTo/InverseTo which read one row and
//     write another: the production hot path, using Harvey-style lazy
//     reduction. Forward keeps operands in [0, 4p) through every stage,
//     with the last stage emitting fully reduced outputs; Inverse keeps
//     operands in [0, 2p) and folds both the final reduction and the 1/n
//     scaling into the last stage's fused twiddles. Inner loops are 8-way
//     unrolled with re-sliced operands so the compiler drops bounds
//     checks, and the first and last stages (where the butterfly stride
//     degenerates) have specialized code paths. When the CPU and modulus
//     allow, every stage runs on AVX-512 IFMA kernels instead: the
//     strided stages two to a pass, the narrowest three or four fused in
//     one in-register pass, the first pass loading straight from the
//     source row (see lazy.go and ifma_amd64.s). Requires p < 2^62 so 4p
//     fits a word — which MaxModulusBits64 already guarantees for every
//     modulus here.
//
//   - ForwardStrict/InverseStrict: the original per-butterfly
//     strict-reduction transforms, retained verbatim as the test oracle
//     (and as the closest software mirror of the paper's per-stage
//     datapath: InverseStrict halves every stage as Algorithm 4 does).
//
// Both produce bit-identical outputs in [0, p); the property tests in this
// package and the top-level lazy_equiv_test.go assert it across all Table
// 2 parameter sets and both w=64 and w=54 moduli.
//
// NewTables builds up front only what ForwardTo and InverseTo read on the
// row's route: the two twiddle tables and their Shoup tables, 2^52-scaled
// on an IFMA row and w=64 on a scalar one — four tables of n words. The
// strict transforms' halved inverse twiddles, the w=64 forward Shoup table
// of an IFMA row and the w=54 tables of the hardware simulator are built
// together on the first call that reads them (ForwardStrict,
// InverseStrict, ForwardTwiddle, InverseTwiddle), so a production row never
// holds them; HEAX likewise keeps a single twiddle memory per prime that
// its NTT cores share (Section 4.2).
//
// Keeping operands "in NTT form" turns ring multiplication into the dyadic
// (coefficient-wise) products the MULT module computes; see Section 3.1.
package ntt

import (
	"fmt"
	"math/bits"
	"sync"

	"heax/internal/primes"
	"heax/internal/uintmod"
)

// Tables holds the per-modulus precomputed twiddle factors for ring degree
// N, in the exact layout the transforms index: entry m+i of the forward
// table is the twiddle of butterfly group i in the stage with m groups.
// Tables never change after NewTables returns except for extra, which is
// filled once, safely under concurrent first use; a Tables value may be
// copied, and the copies share extra.
type Tables struct {
	N   int
	Mod uintmod.Modulus
	// Psi is the canonical (numerically smallest) primitive 2N-th root of
	// unity mod P; PsiInv its inverse.
	Psi, PsiInv uint64

	// Built up front on every row. The inverse twiddles are the raw
	// ψ^{-bitrev(i)} powers without the per-stage ½ folding (lazy halving
	// would need exact parities); n^{-1} and ψ^{-bitrev(1)}·n^{-1} are the
	// fused twiddles of the last inverse stage (folding the 1/n scaling
	// into the stage saves a full closing pass).
	psiRev                  []uint64 // ψ^bitrev(i), forward twiddles
	psiInvRev               []uint64 // ψ^{-bitrev(i)}, inverse twiddles
	nInv, nInvShoup         uint64
	psi1NInv, psi1NInvShoup uint64

	// The route's Shoup tables, built up front for the route the row
	// takes and nil on the other: w=64 (Algorithm 2) on a scalar row,
	// 2^52-scaled on an IFMA row. ifma requires CPU support, p < 2^50
	// (every Table 2 prime) and n >= 16.
	psiRevShoup, psiInvRevShoup     []uint64
	psiRevShoup52, psiInvRevShoup52 []uint64
	nInvShoup52, psi1NInvShoup52    uint64
	ifma                            bool

	extra *extraTables // built on first use, shared by copies
}

// extraTables holds what only the strict oracle and the hardware simulator
// read, built by Tables.extras on first use.
type extraTables struct {
	once sync.Once
	// psiRevShoup is the w=64 forward Shoup table ForwardStrict reads: the
	// route's own on a scalar row, built here on an IFMA row.
	psiRevShoup []uint64
	// ψ^{-bitrev(i)} · 2^{-1}, InverseStrict's per-stage halving twiddles.
	psiInvRevHalf      []uint64
	psiInvRevHalfShoup []uint64
	// w=54 Shoup precomputations (populated when P < 2^52) so the hardware
	// simulator can run the same tables through the 54-bit datapath.
	psiRevShoup54        []uint64
	psiInvRevHalfShoup54 []uint64
}

// NewTables builds NTT tables for ring degree n (a power of two >= 2) and
// prime modulus p ≡ 1 (mod 2n).
func NewTables(p uint64, n int) (*Tables, error) {
	return newTables(p, n, uintmod.IFMAUsable(p, n) && n >= 16)
}

// newTables is NewTables with the route given: ifma must only be set where
// NewTables would set it, and clearing it on an IFMA prime builds the
// scalar route's tables instead, so a test can run both routes on one
// prime.
func newTables(p uint64, n int, ifma bool) (*Tables, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ntt: n = %d must be a power of two >= 2", n)
	}
	psi, err := primes.MinimalPrimitiveRoot2N(p, n)
	if err != nil {
		return nil, fmt.Errorf("ntt: %w", err)
	}
	m := uintmod.NewModulus(p)
	t := &Tables{
		N:     n,
		Mod:   m,
		Psi:   psi,
		ifma:  ifma,
		extra: new(extraTables),
	}
	t.PsiInv = m.InvMod(psi)
	logn := bits.Len(uint(n)) - 1

	t.psiRev = make([]uint64, n)
	t.psiInvRev = make([]uint64, n)
	pow := uint64(1)
	powInv := uint64(1)
	for i := 0; i < n; i++ {
		r := int(bitrev(uint(i), logn))
		t.psiRev[r] = pow
		t.psiInvRev[r] = powInv
		pow = m.MulMod(pow, psi)
		powInv = m.MulMod(powInv, t.PsiInv)
	}
	t.nInv = m.InvMod(uint64(n))
	t.nInvShoup = uintmod.ShoupPrecomp(t.nInv, p)
	t.psi1NInv = m.MulMod(t.psiInvRev[1], t.nInv)
	t.psi1NInvShoup = uintmod.ShoupPrecomp(t.psi1NInv, p)
	if ifma {
		t.psiRevShoup52 = shoupTable(t.psiRev, p, uintmod.ShoupPrecomp52)
		t.psiInvRevShoup52 = shoupTable(t.psiInvRev, p, uintmod.ShoupPrecomp52)
		t.nInvShoup52 = uintmod.ShoupPrecomp52(t.nInv, p)
		t.psi1NInvShoup52 = uintmod.ShoupPrecomp52(t.psi1NInv, p)
	} else {
		t.psiRevShoup = shoupTable(t.psiRev, p, uintmod.ShoupPrecomp)
		t.psiInvRevShoup = shoupTable(t.psiInvRev, p, uintmod.ShoupPrecomp)
	}
	return t, nil
}

// shoupTable returns precomp(w, p) for every twiddle w.
func shoupTable(ws []uint64, p uint64, precomp func(w, p uint64) uint64) []uint64 {
	s := make([]uint64, len(ws))
	for i, w := range ws {
		s[i] = precomp(w, p)
	}
	return s
}

// extras returns the oracle and simulator tables, building them on the
// first call; concurrent first calls wait for one build.
func (t *Tables) extras() *extraTables {
	e := t.extra
	e.once.Do(func() {
		p, m := t.Mod.P, t.Mod
		e.psiRevShoup = t.psiRevShoup
		if e.psiRevShoup == nil {
			e.psiRevShoup = shoupTable(t.psiRev, p, uintmod.ShoupPrecomp)
		}
		inv2 := m.InvMod(2)
		e.psiInvRevHalf = make([]uint64, t.N)
		for i, w := range t.psiInvRev {
			e.psiInvRevHalf[i] = m.MulMod(w, inv2)
		}
		e.psiInvRevHalfShoup = shoupTable(e.psiInvRevHalf, p, uintmod.ShoupPrecomp)
		if bits.Len64(p) <= uintmod.MaxModulusBits54 {
			e.psiRevShoup54 = shoupTable(t.psiRev, p, uintmod.ShoupPrecomp54)
			e.psiInvRevHalfShoup54 = shoupTable(e.psiInvRevHalf, p, uintmod.ShoupPrecomp54)
		}
	})
	return e
}

// bitrev reverses the low width bits of x.
func bitrev(x uint, width int) uint {
	return bits.Reverse(x) >> (bits.UintSize - width)
}

// ForwardStrict computes the in-place negacyclic NTT of a (Algorithm 3)
// with strict per-butterfly reduction: the output, in bit-reversed order,
// is ã_j = Σ_i a_i ψ^{(2i+1)·j'} where j' is the bit-reversal of j. It is
// the test oracle for the lazy Forward and is not on any hot path.
func (t *Tables) ForwardStrict(a []uint64) {
	if len(a) != t.N {
		panic("ntt: length mismatch")
	}
	// The loop reads the oracle's table through t, as it reads psiRev:
	// this transform is the benchmark's host-speed probe, and a slice held
	// in registers across the loop changes how its inner loop is compiled.
	t.extras()
	p := t.Mod.P
	step := t.N
	for m := 1; m < t.N; m <<= 1 {
		step >>= 1
		for i := 0; i < m; i++ {
			j1 := 2 * i * step
			j2 := j1 + step
			w := t.psiRev[m+i]
			ws := t.extra.psiRevShoup[m+i]
			for j := j1; j < j2; j++ {
				u := a[j]
				v := uintmod.MulRed(a[j+step], w, ws, p)
				a[j] = uintmod.AddMod(u, v, p)
				a[j+step] = uintmod.SubMod(u, v, p)
			}
		}
	}
}

// InverseStrict computes the in-place negacyclic INTT of a
// bit-reversed-order input (Algorithm 4) with strict per-butterfly
// reduction, returning coefficients in standard order with the 1/n factor
// already applied via per-stage halving. It is the test oracle for the
// lazy Inverse and is not on any hot path.
func (t *Tables) InverseStrict(a []uint64) {
	if len(a) != t.N {
		panic("ntt: length mismatch")
	}
	t.extras()
	p := t.Mod.P
	step := 1
	for m := t.N >> 1; m >= 1; m >>= 1 {
		for i := 0; i < m; i++ {
			j1 := 2 * i * step
			j2 := j1 + step
			w := t.extra.psiInvRevHalf[m+i]
			ws := t.extra.psiInvRevHalfShoup[m+i]
			for j := j1; j < j2; j++ {
				u := a[j]
				v := a[j+step]
				a[j] = uintmod.Half(uintmod.AddMod(u, v, p), p)
				a[j+step] = uintmod.MulRed(uintmod.SubMod(u, v, p), w, ws, p)
			}
		}
		step <<= 1
	}
}

// ForwardTwiddle returns the forward twiddle (value, w=64 Shoup, w=54
// Shoup) at table index idx; the hardware simulator reads twiddles through
// this accessor so that it shares the exact tables the reference transform
// uses. The w=54 precomputation is 0 when the modulus exceeds 2^52.
func (t *Tables) ForwardTwiddle(idx int) (w, shoup64, shoup54 uint64) {
	e := t.extras()
	w, shoup64 = t.psiRev[idx], e.psiRevShoup[idx]
	if e.psiRevShoup54 != nil {
		shoup54 = e.psiRevShoup54[idx]
	}
	return w, shoup64, shoup54
}

// InverseTwiddle is ForwardTwiddle for the inverse tables (ψ^{-1}·2^{-1}
// powers).
func (t *Tables) InverseTwiddle(idx int) (w, shoup64, shoup54 uint64) {
	e := t.extras()
	w, shoup64 = e.psiInvRevHalf[idx], e.psiInvRevHalfShoup[idx]
	if e.psiInvRevHalfShoup54 != nil {
		shoup54 = e.psiInvRevHalfShoup54[idx]
	}
	return w, shoup64, shoup54
}
