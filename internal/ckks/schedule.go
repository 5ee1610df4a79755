package ckks

// This file is the CPU realization of HEAX's key-switch datapath
// (Section 5, Fig. 6-8). The hardware streams three kinds of work
// through FIFOs:
//
//   INTT0   — per-digit inverse transform of the input polynomial,
//   NTT0+DyadMult — per (digit, targetPrime) base-conversion + key MAC,
//   INTT1/NTT1/MS — the modulus-switching tail.
//
// On a CPU the same work is bandwidth-bound, so it runs as three
// row-parallel passes on the ring context's RunRows, with a join where
// the board has a FIFO: the level+1 digit INTTs (each transformed out of
// the input row into scratch; nothing is copied first), then the level+2
// accumulator rows, then the flooring tail (ring.Context.FloorInto).
// Each accumulator row belongs to one participant, which takes the
// digits one at a time — base-convert to its prime into one scratch row
// and transform (ring.Context.ReduceNTTRow, the conversion the flooring
// tail shares; between primes of about one size it is the transform
// alone, reading the digit where it lies), MAC while the row is
// cache-hot — and keeps its acc0/acc1 row resident across all digits.
// The accumulators come from the pool unzeroed: digit 0 stores its
// products, the rest add. Rows are disjoint, so nothing is locked, and
// with one worker RunRows simply runs the same rows inline.
//
// A hoisted rotation (RotateHoistedInto) caches the converted digits once
// and runs only the MAC pass per step: each accumulator row permutes the
// digit rows it reads by the step's automorphism first. In the NTT
// domain that permutation moves aligned 8-lane blocks through at most 8
// lane shuffles (ring.Automorphism), one VPERMQ per vector, so a
// permuted digit row costs about what copying it would.
//
// The MAC is the ring's dot-pair row (MulCoeffsDotPairRow) with one
// term: the converted digit row read once against both key columns,
// fully reduced in and out, no per-key constants, so the key rows it
// streams — the one operand that never fits in cache — are read once and
// held once. A row's MACs add deterministic product terms modulo p, so
// the result does not depend on which participant runs which row;
// schedule_test.go and hwsim's independent Algorithm 7 model pin it bit
// for bit at every level and worker count.

import "heax/internal/ring"

// ksJob carries the state of one key-switch MAC phase (or hoisted
// decomposition). Jobs are pooled on the evaluator; all polynomial
// scratch comes from the ring context's buffer pool.
type ksJob struct {
	ev  *Evaluator
	ctx *ring.Context

	// Inputs. Exactly one of c (direct path) or hd (hoisted MAC path) is
	// set, or c and out (decomposition path).
	c    *ring.Poly
	hd   *HoistedDecomposition
	out  *HoistedDecomposition
	auto *ring.Automorphism // optional, applied to the hoisted digits

	digits     [][2]*ring.Poly
	acc0, acc1 *ring.Poly
	intt       *ring.Poly // per-digit INTT outputs, level+1 rows
	level      int
	// addQ: the q rows of acc0/acc1 (0..level) already hold a sum the
	// MAC adds to, as a sum of rotations sharing one tail has them; the
	// special row is always stored afresh.
	addQ bool

	// The row passes as func values, bound once per pooled job: a method
	// value made at the RunRows call would allocate on every key switch.
	inttRow, macRow, hoistedRow, decompRow func(int)
}

func (ev *Evaluator) getJob(level int) *ksJob {
	j, _ := ev.jobs.Get().(*ksJob)
	if j == nil {
		j = &ksJob{}
		j.inttRow, j.macRow = j.runINTTRow, j.runMACRow
		j.hoistedRow, j.decompRow = j.runHoistedRow, j.runDecompRow
	}
	j.ev = ev
	j.ctx = ev.ctx
	j.level = level
	return j
}

func (ev *Evaluator) putJob(j *ksJob) {
	j.c, j.hd, j.out, j.auto = nil, nil, nil, nil
	j.digits = nil
	j.acc0, j.acc1, j.intt = nil, nil, nil
	j.addQ = false
	ev.jobs.Put(j)
}

// prime is the basis index of accumulator row jj: the q primes, then the
// special prime in row level+1.
func (j *ksJob) prime(jj int) int {
	if jj > j.level {
		return j.ev.params.SpecialRow()
	}
	return jj
}

// runINTTRow is INTT0 for digit i: the coefficient form of input row i,
// transformed straight out of the input polynomial into the job's scratch.
func (j *ksJob) runINTTRow(i int) {
	j.ctx.Tables[i].InverseTo(j.intt.Coeffs[i], j.c.Coeffs[i])
}

// mac adds digit i's two key products into accumulator row jj from the
// already-converted (NTT-form, mod target prime) row b: one pass over b
// against both key columns, a one-term dot product. The accumulators
// arrive unzeroed, so digit 0 stores its products instead: 0 + x mod p is
// x, bit for bit what adding into a cleared row gave. With addQ the q rows
// arrive holding a sum, and digit 0 adds to them like the rest.
func (j *ksJob) mac(i, jj, basisIdx int, b []uint64) {
	d := j.digits[i]
	term := [1][3][]uint64{{d[0].Coeffs[basisIdx], d[1].Coeffs[basisIdx], b}}
	acc := i > 0 || (j.addQ && jj <= j.level)
	j.ctx.MulCoeffsDotPairRow(term[:], acc, j.acc0.Coeffs[jj], j.acc1.Coeffs[jj], basisIdx)
}

// runMACRow fills accumulator row jj: lines 5-10 (conversion) and
// 11-12/16-17 (the two MACs) of Algorithm 7 for every digit.
func (j *ksJob) runMACRow(jj int) {
	ctx := j.ctx
	basisIdx := j.prime(jj)
	buf := ctx.GetPolyNoZero(1)
	defer ctx.PutPoly(buf)
	conv := buf.Coeffs[0]
	for i := 0; i <= j.level; i++ {
		// Line 9: the digit's own prime reuses the NTT-form input.
		b := j.c.Coeffs[i]
		if i != basisIdx {
			ctx.ReduceNTTRow(conv, j.intt.Coeffs[i], i, basisIdx, 0)
			b = conv
		}
		j.mac(i, jj, basisIdx, b)
	}
}

// runHoistedRow is runMACRow over a cached decomposition: the digits
// are already converted, so a row only permutes them (when the rotation
// supplies an automorphism: one block-permutation pass per digit row, at
// the cost of a row copy) and MACs.
func (j *ksJob) runHoistedRow(jj int) {
	ctx := j.ctx
	basisIdx := j.prime(jj)
	var perm []uint64
	if j.auto != nil {
		buf := ctx.GetPolyNoZero(1)
		defer ctx.PutPoly(buf)
		perm = buf.Coeffs[0]
	}
	for i := 0; i <= j.level; i++ {
		b := j.hd.digits[i].Coeffs[jj]
		if perm != nil {
			ctx.AutomorphismNTTRow(b, j.auto, perm)
			b = perm
		}
		j.mac(i, jj, basisIdx, b)
	}
}

// runDecompRow is runMACRow's counterpart for the hoisted decomposition
// (lines 3-10 of Algorithm 7): it converts every digit to target row jj
// straight into the cached digit polynomials.
func (j *ksJob) runDecompRow(jj int) {
	basisIdx := j.prime(jj)
	for i := 0; i <= j.level; i++ {
		row := j.out.digits[i].Coeffs[jj]
		if i == basisIdx {
			copy(row, j.c.Coeffs[i])
		} else {
			j.ctx.ReduceNTTRow(row, j.intt.Coeffs[i], i, basisIdx, 0)
		}
	}
}

// keySwitchMAC runs the multiply-accumulate phase of Algorithm 7 over
// either a direct input polynomial c or a cached hoisted decomposition
// hd, into the accumulators acc0/acc1, every row of which it overwrites —
// except that with addQ it adds into the q rows (0..level) and overwrites
// only the special row.
func (ev *Evaluator) keySwitchMAC(c *ring.Poly, hd *HoistedDecomposition, auto *ring.Automorphism,
	digits [][2]*ring.Poly, acc0, acc1 *ring.Poly, level int, addQ bool) {
	ctx := ev.ctx
	j := ev.getJob(level)
	j.c, j.hd, j.auto, j.addQ = c, hd, auto, addQ
	j.digits = digits
	j.acc0, j.acc1 = acc0, acc1
	if hd != nil {
		ctx.RunRows(level+2, j.hoistedRow)
	} else {
		//heax:owns the job owns it; PutPoly(j.intt) runs before putJob below
		j.intt = ctx.GetPolyNoZero(level + 1)
		ctx.RunRows(level+1, j.inttRow)
		ctx.RunRows(level+2, j.macRow)
		ctx.PutPoly(j.intt)
	}
	ev.putJob(j)
}

// decompose fills hd with the per-digit conversions of c (lines 3-10 of
// Algorithm 7 for every digit).
func (ev *Evaluator) decompose(c *ring.Poly, hd *HoistedDecomposition, level int) {
	ctx := ev.ctx
	j := ev.getJob(level)
	j.c, j.out = c, hd
	//heax:owns the job owns it; PutPoly(j.intt) runs before putJob below
	j.intt = ctx.GetPolyNoZero(level + 1)
	ctx.RunRows(level+1, j.inttRow)
	ctx.RunRows(level+2, j.decompRow)
	ctx.PutPoly(j.intt)
	ev.putJob(j)
}
