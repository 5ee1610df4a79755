// Package ring implements arithmetic in R_q = Z_q[X]/(X^n+1) in RNS
// representation: the polynomial-level substrate beneath the CKKS scheme
// and the HEAX modules. A Poly stores one residue polynomial per basis
// prime; a Context bundles the ring degree, the RNS basis, and one set of
// NTT tables per prime.
//
// All evaluation-path operations work level-wise (on the first level+1
// primes) exactly as the full-RNS CKKS of Section 3 requires, and
// polynomials are kept in NTT form whenever possible so multiplications
// are dyadic.
package ring

import (
	"errors"
	"fmt"
	"maps"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"heax/internal/ntt"
	"heax/internal/rns"
	"heax/internal/uintmod"
)

// Context carries everything needed for R_q arithmetic over a basis.
type Context struct {
	N     int
	LogN  int
	Basis *rns.Basis
	// Tables[i] transforms residues mod Basis.Primes[i]; every context
	// over that prime and degree holds the same *ntt.Tables (nttTables).
	Tables []*ntt.Tables

	// workers bounds the goroutines row-wise operations may fan out to
	// (the "full-RNS variants parallelize trivially" observation of
	// Section 2, applied to every row loop, not just the transforms).
	// Defaults to GOMAXPROCS; SetWorkers(1) forces serial execution.
	workers int

	// sched is the persistent worker pool behind RunRows (sched.go);
	// workers are started lazily and live for the context's lifetime.
	sched *scheduler

	// parallelThreshold is the coefficient count from which RunRows fans
	// out: parallelThresholdIFMA or parallelThresholdScalar.
	parallelThreshold int

	// pool recycles full-basis Poly buffers so evaluator hot paths
	// (key switching, rescale) allocate nothing per call. Every context of
	// one shape holds the same pool (shapePool), Fork views included.
	pool *sync.Pool

	// autos caches the NTT-domain automorphisms by Galois element; Fork
	// views share it like the buffer pool.
	autos *autoCache
}

// NewContext builds a Context for ring degree n over the given primes,
// each of which must be ≡ 1 (mod 2n).
func NewContext(n int, primeList []uint64) (*Context, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ring: n = %d must be a power of two >= 2", n)
	}
	basis, err := rns.NewBasis(primeList)
	if err != nil {
		return nil, err
	}
	ctx := &Context{
		N:       n,
		LogN:    bits.Len(uint(n)) - 1,
		Basis:   basis,
		workers: runtime.GOMAXPROCS(0),
		sched:   newScheduler(),
		pool:    shapePool(n, basis.K()),
		autos:   new(autoCache),
	}
	ctx.Tables = make([]*ntt.Tables, basis.K())
	ctx.parallelThreshold = parallelThresholdIFMA
	for i, p := range basis.Primes {
		t, err := sharedTables(p, n)
		if err != nil {
			return nil, fmt.Errorf("ring: prime %d: %w", p, err)
		}
		ctx.Tables[i] = t
		if !ctx.RowIFMA(i) {
			ctx.parallelThreshold = parallelThresholdScalar
		}
	}
	return ctx, nil
}

// shapePools holds one buffer pool per context shape {n, K}. A pooled
// polynomial is K rows of n words whatever the primes, so contexts of one
// shape share a pool: a process holding several Params of one set (a
// server and an in-process client, say) keeps one stock of idle buffers,
// and what a finished run on one context left behind serves the next run
// on any of them instead of sitting beside that run's stock until two
// garbage-collection cycles drop it (a cycle that caught both alive set
// the process's peak heap). The NTT tables are shared the same way, by
// nttTables below.
var shapePools sync.Map // [2]int{n, K} → *sync.Pool

func shapePool(n, k int) *sync.Pool {
	p, _ := shapePools.LoadOrStore([2]int{n, k}, new(sync.Pool))
	return p.(*sync.Pool)
}

// nttTables holds one *ntt.Tables per {prime, n}, so contexts over the
// same primes (a server and an in-process client, any two Params of one
// set) build each prime's twiddles once and hold one copy. Tables never
// change after construction but for the part the ntt package builds on
// first use, once, under concurrent use. Nothing leaves the map: it holds
// one entry per (prime, degree) the process has built a context over — a
// fixed parameter set's primes, plus whatever primes a ReadParams caller
// accepted from its peer.
var nttTables sync.Map // [2]uint64{p, n} → *ntt.Tables

func sharedTables(p uint64, n int) (*ntt.Tables, error) {
	key := [2]uint64{p, uint64(n)}
	if t, ok := nttTables.Load(key); ok {
		return t.(*ntt.Tables), nil
	}
	t, err := ntt.NewTables(p, n)
	if err != nil {
		return nil, err
	}
	shared, _ := nttTables.LoadOrStore(key, t)
	return shared.(*ntt.Tables), nil
}

// K returns the number of primes in the context's basis.
func (c *Context) K() int { return c.Basis.K() }

// SetWorkers caps the goroutines row-wise operations fan out to; w <= 1
// forces serial execution. The setting is not safe to change while
// operations run concurrently.
func (c *Context) SetWorkers(w int) {
	if w < 1 {
		w = 1
	}
	c.workers = w
}

// Workers returns the current worker cap.
func (c *Context) Workers() int { return c.workers }

// Fork returns a view of the context with its own worker cap. The view
// shares everything else — basis, NTT tables, the persistent worker
// pool, the Poly buffer pool and the automorphism-table cache — so an
// evaluator can bound its fan-out without affecting other users of the
// same ring (SetWorkers on the original mutates shared state;
// SetWorkers on a fork stays local to it).
func (c *Context) Fork(workers int) *Context {
	cc := *c
	cc.SetWorkers(workers)
	return &cc
}

// The parallel thresholds are the minimum total coefficient count
// (rows*N) at which fanning out to the worker pool beats running
// serially; below it the scheduling overhead dominates the row work.
// They are sized for rows that cost an NTT each (transforms, flooring,
// automorphisms), and what such a row costs depends on whether it runs
// on the IFMA kernels, so NewContext picks one for the context:
// parallelThresholdIFMA when every row does, parallelThresholdScalar
// when any row takes the scalar stages.
//
// An IFMA row of 2^12 coefficients transforms in about 7 µs, less than
// the hand-off to the pool, so no Set-A pass (two or three such rows)
// fans out: with two workers BenchmarkAPI_RotateInto/Set-A ran
// 161-171 µs fanned out (the threshold at 2^13) against 122-149 µs
// inline, 128-135 µs on one; BenchmarkAPI_MulRelinInto/Set-B, whose
// passes are 2^14 coefficients and up, ran 675-745 µs on two workers
// against 800-820 µs on one. A scalar row of that size takes about
// 45 µs, and two of them are worth handing out:
// BenchmarkKeySwitch_ScalarRows/LogN12 (two 55-bit q rows) runs
// 0.83-0.86 ms at the default workers against 0.88-1.00 ms on one.
const (
	parallelThresholdIFMA   = 1 << 14
	parallelThresholdScalar = 1 << 13
)

// dyadicThreshold is the parallel threshold of the elementwise ops (Add,
// Sub, Neg, MulCoeffs*), on any row. A vectorised row costs about a microsecond per 2^12
// coefficients, less than the hand-off to the pool: with two workers
// BenchmarkDyadic_* ran 1.1-2x slower fanned out at 2^13, 2^15 and 2^16
// coefficients and 5-30 % faster at 2^17 (a top-level Set-C polynomial).
const dyadicThreshold = 1 << 17

// GetPolyNoZero returns a rows-row polynomial drawn from the context's
// buffer pool, not zeroed: the rows hold whatever a previous user left
// behind. Only for scratch that is fully overwritten before being read —
// an accumulator qualifies when its first term is stored, as the key
// switch's is. Callers that return it with PutPoly when done make the
// surrounding operation allocation-free; callers that let it escape
// simply pay one allocation, as with NewPoly.
func (c *Context) GetPolyNoZero(rows int) *Poly {
	if rows < 1 || rows > c.K() {
		panic(fmt.Sprintf("ring: rows %d out of range [1,%d]", rows, c.K()))
	}
	v := c.pool.Get()
	if v == nil {
		p := c.NewPoly(c.K())
		p.Coeffs = p.Coeffs[:rows]
		return p
	}
	p := v.(*Poly)
	p.Coeffs = p.Coeffs[:rows]
	return p
}

// PutPoly returns a GetPolyNoZero buffer to the pool. The poly must not be
// used afterwards. Polys that were not drawn from this context's pool
// (wrong backing shape) are dropped rather than recycled.
func (c *Context) PutPoly(p *Poly) {
	if p == nil || cap(p.Coeffs) != c.K() {
		return
	}
	p.Coeffs = p.Coeffs[:cap(p.Coeffs)]
	for i := range p.Coeffs {
		if len(p.Coeffs[i]) != c.N {
			return
		}
	}
	c.pool.Put(p)
}

// Poly is an RNS polynomial: Coeffs[i][j] is coefficient j modulo prime i.
// The number of rows determines the poly's level (rows-1).
type Poly struct {
	Coeffs [][]uint64
}

// NewPoly allocates a zero polynomial with the given number of RNS rows.
func (c *Context) NewPoly(rows int) *Poly {
	if rows < 1 || rows > c.K() {
		panic(fmt.Sprintf("ring: rows %d out of range [1,%d]", rows, c.K()))
	}
	backing := make([]uint64, rows*c.N)
	p := &Poly{Coeffs: make([][]uint64, rows)}
	for i := range p.Coeffs {
		p.Coeffs[i], backing = backing[:c.N:c.N], backing[c.N:]
	}
	return p
}

// NewPolyPair allocates two zero polynomials sharing one backing array —
// result pairs (the two components of a ciphertext) in five allocations
// instead of six.
func (c *Context) NewPolyPair(rows int) (*Poly, *Poly) {
	if rows < 1 || rows > c.K() {
		panic(fmt.Sprintf("ring: rows %d out of range [1,%d]", rows, c.K()))
	}
	backing := make([]uint64, 2*rows*c.N)
	mk := func() *Poly {
		p := &Poly{Coeffs: make([][]uint64, rows)}
		for i := range p.Coeffs {
			p.Coeffs[i], backing = backing[:c.N:c.N], backing[c.N:]
		}
		return p
	}
	return mk(), mk()
}

// Rows returns the number of RNS components.
func (p *Poly) Rows() int { return len(p.Coeffs) }

// Level returns Rows()-1, the CKKS level of the polynomial.
func (p *Poly) Level() int { return len(p.Coeffs) - 1 }

// CopyOf returns a deep copy of p, allocated as one contiguous backing
// array (three allocations total, independent of the row count).
func CopyOf(p *Poly) *Poly {
	rows := len(p.Coeffs)
	n := 0
	for _, r := range p.Coeffs {
		if len(r) > n {
			n = len(r)
		}
	}
	backing := make([]uint64, rows*n)
	q := &Poly{Coeffs: make([][]uint64, rows)}
	for i := range p.Coeffs {
		q.Coeffs[i], backing = backing[:n:n], backing[n:]
		copy(q.Coeffs[i], p.Coeffs[i])
	}
	return q
}

// Resize returns a view of p truncated to rows RNS components (sharing
// storage) or panics if p has fewer.
func (p *Poly) Resize(rows int) *Poly {
	if rows > len(p.Coeffs) {
		panic("ring: cannot grow a poly with Resize")
	}
	return &Poly{Coeffs: p.Coeffs[:rows]}
}

// Equal reports deep equality.
func (p *Poly) Equal(q *Poly) bool {
	if len(p.Coeffs) != len(q.Coeffs) {
		return false
	}
	for i := range p.Coeffs {
		for j := range p.Coeffs[i] {
			if p.Coeffs[i][j] != q.Coeffs[i][j] {
				return false
			}
		}
	}
	return true
}

// NTT transforms p in place (all rows) to the evaluation domain, fanning
// rows out across the context's workers.
func (c *Context) NTT(p *Poly) {
	c.RunRows(len(p.Coeffs), func(i int) {
		c.Tables[i].Forward(p.Coeffs[i])
	})
}

// INTT transforms p in place back to the coefficient domain.
func (c *Context) INTT(p *Poly) {
	c.RunRows(len(p.Coeffs), func(i int) {
		c.Tables[i].Inverse(p.Coeffs[i])
	})
}

// rowsOf returns the common row count of the operands, panicking on
// mismatch; helpers below use it so shape errors fail loudly at the call
// site rather than corrupting data.
func rowsOf(ps ...*Poly) int {
	r := len(ps[0].Coeffs)
	for _, p := range ps[1:] {
		if len(p.Coeffs) != r {
			panic("ring: operand row mismatch")
		}
	}
	return r
}

// Add sets out = a + b.
func (c *Context) Add(a, b, out *Poly) {
	c.runDyadic(rowsOf(a, b, out), dyadicRows{a0: a.Coeffs, b0: b.Coeffs, c0: out.Coeffs},
		func(c *Context, v dyadicRows, i int) { uintmod.VecAdd(v.c0[i], v.a0[i], v.b0[i], c.Basis.Primes[i]) })
}

// Sub sets out = a - b.
func (c *Context) Sub(a, b, out *Poly) {
	c.runDyadic(rowsOf(a, b, out), dyadicRows{a0: a.Coeffs, b0: b.Coeffs, c0: out.Coeffs},
		func(c *Context, v dyadicRows, i int) { uintmod.VecSub(v.c0[i], v.a0[i], v.b0[i], c.Basis.Primes[i]) })
}

// Neg sets out = -a: a weight of p−1 on each row.
func (c *Context) Neg(a, out *Poly) {
	c.runDyadic(rowsOf(a, out), dyadicRows{a0: a.Coeffs, c0: out.Coeffs}, func(c *Context, v dyadicRows, i int) {
		p := c.Basis.Primes[i]
		ws := [1]uint64{p - 1}
		uintmod.VecLinComb(v.c0[i], v.a0[i:i+1], ws[:], 0, p, p)
	})
}

// MulCoeffs sets out = a ⊙ b (dyadic product; both operands must be in the
// same domain, normally NTT). Operands are fully reduced and so is the
// result; out may alias either operand.
func (c *Context) MulCoeffs(a, b, out *Poly) {
	c.runDyadic(rowsOf(a, b, out), dyadicRows{a0: a.Coeffs, b0: b.Coeffs, c0: out.Coeffs},
		func(c *Context, v dyadicRows, i int) { c.MulCoeffsRow(v.a0[i], v.b0[i], v.c0[i], i) })
}

// MulCoeffsRow is MulCoeffs for a single RNS row (basis index i).
//
//heax:noalloc
func (c *Context) MulCoeffsRow(a, b, out []uint64, i int) {
	uintmod.VecMul(out, a, b, c.Basis.Primes[i])
}

// MulCoeffsPair sets out0 = a0 ⊙ b and out1 = a1 ⊙ b in one row pass —
// the two components of a ciphertext times one plaintext, reading each
// plaintext row once and fanning out once. A row of b is full (N values)
// or compact (N/uintmod.Lanes, one value per aligned 8-lane block, as a
// Plan stores a block-constant plaintext); any other length panics.
func (c *Context) MulCoeffsPair(a0, a1, b, out0, out1 *Poly) {
	v := dyadicRows{a0: a0.Coeffs, a1: a1.Coeffs, b0: b.Coeffs, c0: out0.Coeffs, c1: out1.Coeffs}
	c.runDyadic(rowsOf(a0, a1, b, out0, out1), v, func(c *Context, v dyadicRows, i int) {
		uintmod.VecMulPair(v.c0[i], v.c1[i], v.a0[i], v.a1[i], v.b0[i], c.Basis.Primes[i])
	})
}

// DotTerm is one term of a ciphertext-plaintext dot product: the two
// components of a degree-1 ciphertext and the plaintext they multiply.
// Only the rows the output has are read, so a term may hold more. Y's
// rows are full or compact, as MulCoeffsPair takes them, term by term.
type DotTerm struct{ X0, X1, Y *Poly }

// DotChunk is the most terms one MulCoeffsDotPair call takes; a longer
// sum chains calls, every one after the first with acc set. It gathers
// each term's row into an array of this size on its stack, and the
// kernel then reads 3·DotChunk rows side by side: 48 streams cost the
// same per term as 24, 96 cost 1.6× (Set-A and Set-B rows, operands out
// of cache).
const DotChunk = 16

// MulCoeffsDotPair sets out0 = Σ X0ₜ ⊙ Yₜ and out1 = Σ X1ₜ ⊙ Yₜ over the
// terms — Σ ctₜ ⊙ ptₜ, each operand row read once and each output row
// written once — adding to what out0 and out1 hold when acc is set. The
// outputs must not be operands. Rows fan out by runDyadic's rule, spelled
// out here so the term list is copied to the heap only when they do and a
// caller's list can live on its stack.
func (c *Context) MulCoeffsDotPair(terms []DotTerm, acc bool, out0, out1 *Poly) {
	rows := rowsOf(out0, out1)
	if len(terms) == 0 || len(terms) > DotChunk {
		panic("ring: dot product takes 1 to DotChunk terms")
	}
	for _, t := range terms {
		if min(len(t.X0.Coeffs), len(t.X1.Coeffs), len(t.Y.Coeffs)) < rows {
			panic("ring: operand row mismatch")
		}
	}
	if !c.fansOut(rows, dyadicThreshold) {
		for i := 0; i < rows; i++ {
			c.dotPairTermsRow(terms, acc, out0.Coeffs[i], out1.Coeffs[i], i)
		}
		return
	}
	shared := make([]DotTerm, len(terms))
	copy(shared, terms)
	o0, o1 := out0.Coeffs, out1.Coeffs
	c.runRows(rows, dyadicThreshold, func(i int) { c.dotPairTermsRow(shared, acc, o0[i], o1[i], i) })
}

// dotPairTermsRow gathers row i of every term into an array on its stack
// and runs MulCoeffsDotPairRow on it.
//
//heax:noalloc
func (c *Context) dotPairTermsRow(terms []DotTerm, acc bool, out0, out1 []uint64, i int) {
	var rows [DotChunk][3][]uint64
	for t := range terms {
		rows[t][0], rows[t][1], rows[t][2] = terms[t].X0.Coeffs[i], terms[t].X1.Coeffs[i], terms[t].Y.Coeffs[i]
	}
	c.MulCoeffsDotPairRow(rows[:len(terms)], acc, out0, out1, i)
}

// MulCoeffsDotPairRow is MulCoeffsDotPair for a single RNS row (basis
// index i) over rows given directly: out0 = Σ x0ₜ ⊙ yₜ and
// out1 = Σ x1ₜ ⊙ yₜ for terms[t] = {x0ₜ, x1ₜ, yₜ}, added to what the
// outputs hold when acc is set. It is every multiply-accumulate of the
// ring's users: a sum of ciphertext-plaintext products, and with one
// term the key switch's MAC, a converted digit row y against the rows x0
// and x1 of its two key columns. The result is bit for bit MulCoeffsPair
// followed by Add, term by term.
//
//heax:noalloc
func (c *Context) MulCoeffsDotPairRow(terms [][3][]uint64, acc bool, out0, out1 []uint64, i int) {
	uintmod.VecDotPair(out0, out1, terms, acc, c.Basis.Primes[i])
}

// MulCoeffsTensor computes the degree-2 tensor product of two degree-1
// ciphertexts (Algorithm 5) in a single row pass: c0 = a0 ⊙ b0,
// c1 = a0 ⊙ b1 + a1 ⊙ b0, c2 = a1 ⊙ b1. One fan-out and one sweep over
// the four operands instead of four.
func (c *Context) MulCoeffsTensor(a0, a1, b0, b1, c0, c1, c2 *Poly) {
	v := dyadicRows{a0.Coeffs, a1.Coeffs, b0.Coeffs, b1.Coeffs, c0.Coeffs, c1.Coeffs, c2.Coeffs}
	c.runDyadic(rowsOf(a0, a1, b0, b1, c0, c1, c2), v, func(c *Context, v dyadicRows, i int) {
		uintmod.VecMulTensor(v.c0[i], v.c1[i], v.c2[i], v.a0[i], v.a1[i], v.b0[i], v.b1[i], c.Basis.Primes[i])
	})
}

// RowIFMA reports whether row i runs on the AVX-512 IFMA kernels, which
// sets the context's fan-out threshold; the kernels pick their route
// themselves.
func (c *Context) RowIFMA(i int) bool {
	return uintmod.IFMAUsable(c.Basis.Primes[i], c.N)
}

// GaloisElement returns the Galois group element used to rotate CKKS slots
// left by step positions: 5^step mod 2n (Section 3.4; the plaintext slots
// are indexed along the orbit of 5 in Z_{2n}^*).
func GaloisElement(step, n int) uint64 {
	m := uint64(2 * n)
	g := uint64(1)
	step = ((step % n) + n) % n // the orbit of 5 has order n/2; normalize
	for i := 0; i < step; i++ {
		g = g * 5 % m
	}
	return g
}

// GaloisConjugate is the Galois element of complex conjugation, 2n-1.
func GaloisConjugate(n int) uint64 { return uint64(2*n - 1) }

// Automorphism is X -> X^g on bit-reversed NTT-domain rows, held as a
// block permutation (DESIGN.md "Automorphisms as block permutations").
// Slot i of such a row is the evaluation at ψ^(2r+1) for r = brev(i), and
// X -> X^g sends r to g·r + (g−1)/2 mod n. The 3 lane bits of i (i mod 8)
// are the top 3 bits of r, and adding g·t·n/8 to the image changes only
// its top 3 bits, so the 8 slots of an aligned output block read exactly
// one aligned source block; their order within it depends only on the
// top 3 bits of the image of the block's first slot, so one element needs
// at most 8 lane shuffles. blocks[b] = src<<3 | k sends source block src
// through shuffle lanes[k] (a VPERMQ index vector) to output block b —
// the map uintmod.VecPermute runs. A row shorter than 8 is one block of
// all its lanes. Immutable once built.
type Automorphism struct {
	blocks []uint32
	lanes  [8][8]uint64
}

// newAutomorphism builds the block map of X -> X^g for rows of n = 2^logn
// slots: lb lane bits (3, or logn for a row shorter than 8) and bb block
// bits. Output slot blk·2^lb + l has r = brev(l)·2^bb + r0, r0 = brev(blk);
// the image of r0, s0 = g·r0 + (g−1)/2 mod n = lo + k·2^bb, names the
// source block brev(lo) and the shuffle k, and lane l reads source lane
// brev((k + g·brev(l)) mod 2^lb).
func newAutomorphism(g uint64, logn int) *Automorphism {
	lb := min(logn, 3) // lane bits
	bb := logn - lb    // block bits
	a := &Automorphism{blocks: make([]uint32, 1<<bb)}
	n := uint64(1) << logn
	for blk := range a.blocks {
		s0 := (g*brev(uint64(blk), bb) + (g-1)/2) & (n - 1)
		a.blocks[blk] = uint32(brev(s0&(1<<bb-1), bb))<<3 | uint32(s0>>bb)
	}
	for k := uint64(0); k < 1<<lb; k++ {
		for l := uint64(0); l < 1<<lb; l++ {
			a.lanes[k][l] = brev((k+g*brev(l, lb))&(1<<lb-1), lb)
		}
	}
	return a
}

// brev reverses the low k bits of x.
func brev(x uint64, k int) uint64 { return bits.Reverse64(x) >> (64 - k) }

// autoCache holds the block maps by Galois element: a rotation workload
// reuses a handful of elements across millions of calls. A lookup loads
// an immutable map, with no lock and no allocation; a miss builds the
// entry and publishes a copy of the map holding it.
type autoCache struct {
	mu sync.Mutex
	m  atomic.Pointer[map[uint64]*Automorphism]
}

// AutomorphismNTTTable returns X -> X^g on bit-reversed NTT-domain
// polynomials of this context, built once per Galois element and cached
// on the context (safe for concurrent use; the map is shared and
// immutable).
func (c *Context) AutomorphismNTTTable(g uint64) *Automorphism {
	if a := c.autos.get(g); a != nil {
		return a
	}
	c.autos.mu.Lock()
	defer c.autos.mu.Unlock()
	if a := c.autos.get(g); a != nil {
		return a
	}
	m := map[uint64]*Automorphism{g: newAutomorphism(g, c.LogN)}
	if old := c.autos.m.Load(); old != nil {
		maps.Copy(m, *old)
	}
	c.autos.m.Store(&m)
	return m[g]
}

func (ac *autoCache) get(g uint64) *Automorphism {
	if m := ac.m.Load(); m != nil {
		return (*m)[g]
	}
	return nil
}

// AutomorphismNTT applies a cached automorphism to an NTT-domain poly.
// out must share no row with a.
func (c *Context) AutomorphismNTT(a *Poly, t *Automorphism, out *Poly) {
	if sharesRow(a, out) {
		panic(errInPlace)
	}
	rows := rowsOf(a, out)
	j, _ := autoJobs.Get().(*autoJob)
	if j == nil {
		j = new(autoJob)
		j.row = j.permRow
	}
	j.a, j.t, j.out = a, t, out
	c.RunRows(rows, j.row)
	*j = autoJob{row: j.row}
	autoJobs.Put(j)
}

// autoJob carries one AutomorphismNTT call's operands to its row pass.
// Pooled with its method value bound once, it lets the pass run without
// a closure allocated per call.
type autoJob struct {
	a, out *Poly
	t      *Automorphism
	row    func(int)
}

func (j *autoJob) permRow(i int) {
	uintmod.VecPermute(j.out.Coeffs[i], j.a.Coeffs[i], j.t.blocks, &j.t.lanes)
}

var autoJobs sync.Pool

// AutomorphismNTTRow is one row of AutomorphismNTT, for a caller that
// runs its own row pass. out must not be a.
//
//heax:noalloc
func (c *Context) AutomorphismNTTRow(a []uint64, t *Automorphism, out []uint64) {
	if sameRow(a, out) {
		panic(errInPlace)
	}
	uintmod.VecPermute(out, a, t.blocks, &t.lanes)
}

// AutomorphismNTTPairRow permutes row i (basis prime i) of the two
// components of a ciphertext in one pass, for a caller that runs its own
// row pass; with add0 the first component is added into out0 instead of
// stored, out0 += σ(a0) — how a sum of automorphisms folds each term's
// σ(c0) into its running sum while it keeps σ(c1) for the key switch. No
// output may be an operand or the other output.
//
//heax:noalloc
func (c *Context) AutomorphismNTTPairRow(a0, a1 []uint64, t *Automorphism, out0, out1 []uint64, add0 bool, i int) {
	if sameRow(out0, a0) || sameRow(out0, a1) || sameRow(out1, a0) || sameRow(out1, a1) || sameRow(out0, out1) {
		panic(errInPlace)
	}
	uintmod.VecPermutePair(out0, out1, a0, a1, t.blocks, &t.lanes, add0, c.Basis.Primes[i])
}

// errInPlace is the panic of an automorphism handed an output that
// shares a row with an operand or with the other output: the permutation
// would read rows it had already overwritten.
var errInPlace = errors.New("ring: an NTT-domain automorphism cannot run in place")

// sharesRow reports whether a and b hold a row in common.
func sharesRow(a, b *Poly) bool {
	for _, x := range a.Coeffs {
		for _, y := range b.Coeffs {
			if sameRow(x, y) {
				return true
			}
		}
	}
	return false
}

// sameRow reports whether two rows start at the same word.
func sameRow(x, y []uint64) bool {
	return len(x) > 0 && len(y) > 0 && &x[0] == &y[0]
}

// One flooring tail divides by a dropped prime for every caller: key
// switches and hoisted rotations by the special prime, a RotateSum by it
// once for its whole sum, Rescale by the last prime and public-key
// encryption by P, the last two rounding. It is Algorithm 6 in two parts.
// The lift, a floor's only non-linear step, brings the dropped row out of
// NTT form into [0, p_last), plus ⌊p_last/2⌋ when rounding. The close is
// one row pass over the kept rows: reduce the tail into q_i (less
// ⌊p_last/2⌋ mod q_i when rounding), transform it, and
// out = (a − r)·p_last⁻¹ + add. The close is linear, so a sum of key
// switches adds its terms' lifted rows as integers (a tail sum) and its
// q rows modulo q_i, and closes once (a FloorChain's FloorTail); a floor
// is a tail sum of one term (FloorInto). Every step returns canonical
// residues, so the sum closed once is bit for bit its terms floored one
// by one.
//
// The close is linear in the multipliers and addends around it too, so a
// run of floors closes once as well (FloorChain): k divisions lift k
// dropped rows, each once, and every kept row takes one transform, not k.
//
// Row i < out0.Rows() of every operand is basis prime i; row out0.Rows()
// of a0 and a1 holds the dropped prime last. a1 and out1 may be nil, for
// one component. An add may be nil, or its out. out may be its a (an
// in-place rescale): the lift reads the dropped row before any row is
// written, and the close reads each element before writing it.

// FloorInto is out_c = ⌊a_c/p_last⌋ + add_c (⌊a_c/p_last⌉ + add_c when
// round), for one component or two sharing one row pass.
func (c *Context) FloorInto(a0, a1, add0, add1, out0, out1 *Poly, last int, round bool) {
	ch := c.FloorChain()
	ch.Add(a0, a1)
	ch.Floor(last, round)
	ch.Add(add0, add1)
	ch.Close(out0, out1)
}

// FloorDropRowsPairInto is FloorInto of a pair with no addition, for a
// rowPrimes that maps a0's rows to a basis prefix. It and its ignored
// trailing bool stay only for benchmark/layers.go, which calls it.
func (c *Context) FloorDropRowsPairInto(a0, a1, out0, out1 *Poly, rowPrimes []int, round, _ bool) {
	for i, p := range rowPrimes {
		if p != i || len(rowPrimes) != a0.Rows() {
			panic("ring: rowPrimes must map a0's rows to a basis prefix")
		}
	}
	c.FloorInto(a0, a1, nil, nil, out0, out1, len(rowPrimes)-1, round)
}

// MaxChainOps is the most operations one FloorChain holds.
const MaxChainOps = 24

// A FloorChain is a value built by a run of operations that ends in a
// division — addends (Add), multiplications by one value per row (Mul)
// and floors (Floor, or FloorTail for a dropped row lifted by the
// caller) — and closed once (Close), bit for bit what the operations one
// at a time give. FloorInto is a chain of one floor.
//
// The close holds the value as Σₐ wₐ·xₐ − NTT(Σ_f w_f·([t_f]_{q_i} − h_f))
// on every live row i: xₐ the addends, t_f the floors' lifted dropped
// rows, h_f their ⌊p_f/2⌋ when rounding, and the weights w products of
// the multipliers and the dropped primes' inverses that came after each
// joined. A multiplication scales every weight, a floor multiplies every
// weight by p_f⁻¹ and joins with weight p_f⁻¹: out = (v − [t]_{q_i} + h)·p⁻¹
// is linear once t is fixed, and t, the lift of the dropped row, is the
// only non-linear step. Lifts touch dropped rows alone, so the close
// takes them first, in order — a floor's dropped row is the value at that
// point, an inverse transform of its addends' weighed row less the
// earlier tails — and then passes once over the kept rows: the weighed
// tails summed, one forward transform, the weighed addends. Each weight is
// a residue the sequential operations compute too, so every output is
// the canonical residue they give.
//
// Each floor drops the row just past the rows kept after it, so a chain
// of floors drops the value's last rows from the bottom up. Every
// multiplier must be nonzero on every row. A chain comes from
// FloorChain and goes back with Close; it allocates nothing.
type FloorChain struct {
	c   *Context
	ops [MaxChainOps]chainOp
	n   int
	// Set by Close: the outputs, how many components there are, and the
	// pooled polynomials whose rows hold the tails it lifts.
	out   [2]*Poly
	comps int
	tails [MaxChainOps]*Poly
	// The close's two passes as func values, bound once per pooled chain.
	tailPass, keepPass func(int)
}

type chainKind uint8

const (
	chainAdd chainKind = iota
	chainMul
	chainFloor
)

// chainOp is one operation of a chain.
type chainOp struct {
	kind chainKind
	// x holds an Add's components (either may be nil) or a Mul's
	// multiplier in x[0], whose row i starts with its value modulo prime i.
	x [2]*Poly
	// A floor's prime, its row in the addends (set by Close), whether it
	// rounds, its tail by component — the caller's lifted rows, or rows
	// of the close's scratch — and the exclusive bound on their values.
	last, row int
	round     bool
	lifted    bool
	tail      [2][]uint64
	bound     uint64
}

var floorChains = sync.Pool{New: func() any {
	ch := new(FloorChain)
	ch.tailPass, ch.keepPass = ch.liftPass, ch.closeRow
	return ch
}}

// FloorChain returns an empty chain over c's rows.
func (c *Context) FloorChain() *FloorChain {
	ch := floorChains.Get().(*FloorChain)
	ch.c = c
	return ch
}

func (ch *FloorChain) push(op chainOp) {
	if ch.n == MaxChainOps {
		panic("ring: a floor chain holds at most MaxChainOps operations")
	}
	ch.ops[ch.n] = op
	ch.n++
}

// Add adds x0 and x1, NTT-form, to the value's two components; either may
// be nil for nothing. The first Add is the value itself.
func (ch *FloorChain) Add(x0, x1 *Poly) { ch.push(chainOp{kind: chainAdd, x: [2]*Poly{x0, x1}}) }

// Mul multiplies row i of the value by m's first value on row i.
func (ch *FloorChain) Mul(m *Poly) { ch.push(chainOp{kind: chainMul, x: [2]*Poly{m}}) }

// Floor divides the value by prime last, rounding when round is set, and
// drops the value's last row, which holds it: the row's own prime, or any
// prime past the kept ones — a key switch's special prime — for a floor
// right after the value.
func (ch *FloorChain) Floor(last int, round bool) {
	ch.push(chainOp{kind: chainFloor, last: last, round: round})
}

// FloorTail divides the value by prime last, whose row the caller has
// lifted: row c of tail is the integer sum of terms lifted rows of
// component c (at most TailSumTerms), carrying one ⌊p_last/2⌋ when round.
func (ch *FloorChain) FloorTail(tail *Poly, terms, last int, round bool) {
	op := chainOp{kind: chainFloor, last: last, round: round, lifted: true, bound: ch.c.tailBound(terms, last)}
	copy(op.tail[:], tail.Coeffs)
	ch.push(op)
}

// Close writes the value's kept rows, out0.Rows() of them, to out0 (and
// out1 when the value has a second component) and returns the chain to
// its pool. An output may be one of the first uintmod.LinCombTerms
// addends: each element of those is read before it is written, while a
// later one is read again by the close's next VecLinComb pass.
func (ch *FloorChain) Close(out0, out1 *Poly) {
	c := ch.c
	rows := out0.Rows()
	first := &ch.ops[0]
	switch {
	case rows < 1:
		panic("ring: a floor keeps at least one row")
	case ch.n == 0 || first.kind != chainAdd || first.x[0] == nil:
		panic("ring: a floor chain starts with the value it divides")
	case first.x[1] != nil && (out1 == nil || out1.Rows() != rows):
		panic("ring: floor output row mismatch")
	}
	ch.out, ch.comps = [2]*Poly{out0, out1}, 1
	if first.x[1] != nil {
		ch.comps = 2
	}
	// Walk back from the kept rows: each floor drops the row past those
	// kept after it, and an addend must hold every row read after it joins.
	row, read, floors := rows, rows, 0
	for o := ch.n - 1; o >= 0; o-- {
		op := &ch.ops[o]
		switch op.kind {
		case chainFloor:
			floors++
			op.row = row
			row++
			switch {
			case op.last < rows:
				panic("ring: a floor cannot drop a kept prime")
			case op.lifted:
			case op.last != op.row && o != 1:
				panic("ring: a floor by a prime not its row's comes right after the value")
			default:
				read = max(read, op.row+1)
			}
		case chainMul:
			if op.x[0].Rows() < row {
				panic("ring: a floor chain's multiplier lacks a live row")
			}
		case chainAdd:
			for _, x := range op.x[:ch.comps] {
				if x != nil && x.Rows() < read {
					panic("ring: a floor needs the dropped prime's row after the kept rows")
				}
			}
		}
	}
	if floors == 0 {
		panic("ring: a floor chain divides at least once")
	}
	// The tails the close lifts, packed into as few pooled polynomials as
	// their rows fit.
	bufs, free := 0, 0
	for o := 0; o < ch.n; o++ {
		op := &ch.ops[o]
		if op.kind != chainFloor || op.lifted {
			continue
		}
		if free < ch.comps {
			//heax:owns the chain owns it; Close returns it below
			ch.tails[bufs] = c.GetPolyNoZero(c.K())
			bufs, free = bufs+1, c.K()
		}
		buf := ch.tails[bufs-1].Coeffs
		for k := 0; k < ch.comps; k++ {
			op.tail[k] = buf[len(buf)-free]
			free--
		}
		op.bound = c.Basis.Primes[op.last]
	}
	if bufs > 0 {
		c.RunRows(ch.comps, ch.tailPass)
	}
	c.RunRows(rows, ch.keepPass)
	for _, buf := range ch.tails[:bufs] {
		c.PutPoly(buf)
	}
	*ch = FloorChain{tailPass: ch.tailPass, keepPass: ch.keepPass}
	floorChains.Put(ch)
}

// weights sets w[o], for every Add and floor o before upto, to the factor
// modulo prime i its addend or its tail carries in the value at that
// point, and returns Σ w_f·⌊p_f/2⌋ over the rounding floors among them.
//
//heax:noalloc
func (ch *FloorChain) weights(i, upto int, w *[MaxChainOps]uint64) (offset uint64) {
	b := ch.c.Basis
	m := b.Mods[i]
	for o := 0; o < upto; o++ {
		op := &ch.ops[o]
		var f uint64
		switch op.kind {
		case chainAdd:
			w[o] = 1
			continue
		case chainMul:
			f = m.Reduce(op.x[0].Coeffs[i][0])
		case chainFloor:
			f, _ = b.InvCross(op.last, i)
		}
		for prev := 0; prev < o; prev++ {
			if ch.ops[prev].kind != chainMul {
				w[prev] = m.MulMod(w[prev], f)
			}
		}
		w[o] = f
	}
	for o := 0; o < upto; o++ {
		if op := &ch.ops[o]; op.kind == chainFloor && op.round {
			offset = uintmod.AddMod(offset, m.MulMod(w[o], m.Reduce(b.Primes[op.last]>>1)), b.Primes[i])
		}
	}
	return offset
}

// liftPass lifts the dropped rows of component k that the close lifts
// itself, in order. Floor f's lift is its dropped row d, of prime q, of
// the value at that point, out of NTT form: INTT_q(Σₐ wₐ·xₐ) −
// Σ_e w_e·[t_e]_q + offset over the earlier addends and floors, plus
// ⌊p_q/2⌋ when it rounds.
func (ch *FloorChain) liftPass(k int) {
	c := ch.c
	var w, ws [MaxChainOps]uint64
	var xs [MaxChainOps][]uint64
	for f := 0; f < ch.n; f++ {
		op := &ch.ops[f]
		if op.kind != chainFloor || op.lifted {
			continue
		}
		d, q, t := op.row, op.last, op.tail[k]
		p := c.Basis.Primes[q]
		offset := ch.weights(q, f, &w)
		if op.round {
			offset = uintmod.AddMod(offset, p>>1, p)
		}
		// The weighed addends' row d, inverse-transformed into t: straight
		// from the value when nothing came before this floor.
		if f == 1 {
			c.Tables[q].InverseTo(t, ch.ops[0].x[k].Coeffs[d])
		} else {
			n := 0
			for a := 0; a < f; a++ {
				if op := &ch.ops[a]; op.kind == chainAdd && op.x[k] != nil {
					xs[n], ws[n] = op.x[k].Coeffs[d], w[a]
					n++
				}
			}
			uintmod.VecLinComb(t, xs[:n], ws[:n], 0, p, p)
			c.Tables[q].Inverse(t)
		}
		// Less the earlier tails, weighed, plus the offset.
		xs[0], ws[0] = t, 1
		n, bound := 1, p
		for e := 0; e < f; e++ {
			if prev := &ch.ops[e]; prev.kind == chainFloor {
				xs[n], ws[n] = prev.tail[k], uintmod.NegMod(w[e], p)
				bound = max(bound, prev.bound)
				n++
			}
		}
		if n > 1 || offset != 0 {
			uintmod.VecLinComb(t, xs[:n], ws[:n], offset, bound, p)
		}
	}
}

// closeRow closes kept row i of each component:
// out = Σₐ wₐ·xₐ − NTT_i(Σ_f w_f·[t_f]_{p_i} − offset). A single floor
// right after the value, with at most one unweighed addend after that —
// every floor of FloorInto and a RotateSum's close — is Algorithm 6
// lines 3-6 as they stand: one reduction fused into the transform and one
// closing pass, out = (x_0 − r)·w_0 + add.
//
//heax:noalloc
func (ch *FloorChain) closeRow(i int) {
	c := ch.c
	p := c.Basis.Primes[i]
	var w, ws [MaxChainOps]uint64
	var xs [MaxChainOps][]uint64
	offset := ch.weights(i, ch.n, &w)
	scratch := c.GetPolyNoZero(1)
	defer c.PutPoly(scratch)
	r := scratch.Coeffs[0]
	// The fast shape, one floor right after the value and then at most
	// one addend: w_1 = w_0, the addend's weight is 1 and the offset is
	// the floor's own ⌊p/2⌋.
	fast := ch.ops[1].kind == chainFloor
	adds := 0
	for o := 2; o < ch.n; o++ {
		if op := &ch.ops[o]; op.kind != chainAdd {
			fast = false
		} else if op.x[0] != nil || op.x[1] != nil {
			adds++
		}
	}
	fast = fast && adds <= 1
	for k := 0; k < ch.comps; k++ {
		out := ch.out[k].Coeffs[i]
		if fast {
			f := &ch.ops[1]
			var sub uint64
			if f.round {
				sub = c.Basis.Mods[i].Reduce(c.Basis.Primes[f.last] >> 1)
			}
			c.reduceNTTRow(r, f.tail[k], f.bound, i, sub)
			var add []uint64
			for o := 2; o < ch.n; o++ {
				if x := ch.ops[o].x[k]; x != nil {
					add = x.Coeffs[i]
				}
			}
			uintmod.VecSubMulAdd(out, ch.ops[0].x[k].Coeffs[i], r, add, w[0], p)
			continue
		}
		n, bound := 0, p
		for f := 1; f < ch.n; f++ {
			if op := &ch.ops[f]; op.kind == chainFloor {
				xs[n], ws[n] = op.tail[k], w[f]
				bound = max(bound, op.bound)
				n++
			}
		}
		uintmod.VecLinComb(r, xs[:n], ws[:n], uintmod.NegMod(offset, p), bound, p)
		c.Tables[i].Forward(r)
		n = 0
		for a := 0; a < ch.n; a++ {
			if op := &ch.ops[a]; op.kind == chainAdd && op.x[k] != nil {
				xs[n], ws[n] = op.x[k].Coeffs[i], w[a]
				n++
			}
		}
		xs[n], ws[n] = r, p-1
		uintmod.VecLinComb(out, xs[:n+1], ws[:n+1], 0, p, p)
	}
}

// ReduceNTTRow moves a coefficient-form row from one basis prime to
// another: dst = NTT_to([src]_to − sub), where src holds residues modulo
// prime from and sub < p_to is a constant (0 for a plain conversion; the
// rounding shift ⌊p/2⌋ mod p_to when flooring rounds). It is the base
// conversion of key switching (Algorithm 7 lines 6-7) and of RNS flooring
// (Algorithm 6 lines 3-4). src is only read.
//
// With no shift to subtract, a source prime no larger than the
// transform's input bound needs no reduction at all: the transform reads
// src where it lies and its fully reduced outputs are those of the
// canonical residues. On an IFMA row that bound is 4·p_to, so primes of
// about one size never reduce; on a scalar row it is p_to itself.
// Otherwise the reduction is a one-row VecLinComb of weight 1 and
// addend −sub, which takes the IFMA route when the target row does and
// the source residues fit its 52-bit lanes — a wider source prime takes
// the portable loop even into an IFMA target — bit-identical either way.
//
//heax:noalloc
func (c *Context) ReduceNTTRow(dst, src []uint64, from, to int, sub uint64) {
	c.reduceNTTRow(dst, src, c.Basis.Primes[from], to, sub)
}

// reduceNTTRow is ReduceNTTRow for a source row of any values below
// bound, residues of one prime or sums of them.
//
//heax:noalloc
func (c *Context) reduceNTTRow(dst, src []uint64, bound uint64, to int, sub uint64) {
	t := c.Tables[to]
	src = src[:len(dst)]
	if sub == 0 && bound <= t.InputBound() {
		t.ForwardTo(dst, src)
		return
	}
	p := c.Basis.Primes[to]
	var xs [1][]uint64
	var ws [1]uint64
	xs[0], ws[0] = src, 1
	uintmod.VecLinComb(dst, xs[:], ws[:], uintmod.NegMod(sub, p), bound, p)
	t.Forward(dst)
}

// TailSumTerms is how many lifted rows of prime last one tail sum may
// add up: as many as a 64-bit word holds. A RotateSum holds at most this
// many key-switched terms, so its tail sum never overflows. Its reduction
// picks the IFMA or the scalar route by the bound of the sum it holds.
func (c *Context) TailSumTerms(last int) int {
	return int((^uint64(0) - 1) / (c.Basis.Primes[last] - 1))
}

// tailBound is the exclusive upper bound on a tail sum of terms lifted
// rows of prime last.
func (c *Context) tailBound(terms, last int) uint64 {
	return uint64(terms)*(c.Basis.Primes[last]-1) + 1
}
