package ckks

// This file is the one kernel that runs a Galois operation outside a
// hoisted batch: Σₜ σₜ(xₜ), each σₜ a rotation, the conjugation or none
// and each xₜ a ciphertext or a sum of plaintext products — a rotation is
// one term, an InnerSum round two, a BSGS giant step many. Run one at a
// time, every automorphism ends in its own flooring tail (HEAX's KeySwitch
// module, Fig. 6–8, divides by the special prime once per operation).
// Here the terms share one: a term's key-switch MAC keeps adding into one
// accumulator pair's q rows, only its special-prime row is
// inverse-transformed on its own and added as integers into a tail sum,
// and one closing pass over the q rows reduces the tail sum, transforms
// it and divides by the special prime (ring.FloorChain.FloorTail). A sum
// holds at most ring.TailSumTerms key-switched terms, so the tail sum
// fits a 64-bit word (Compile splits a wider one). That
// lift of the special row is the only non-linear step of a floor, so the
// result is bit for bit what the operations one at a time give.

import (
	"fmt"

	"heax/internal/ring"
)

// RotateSumInto computes Σₜ σₜ(xₜ) into out in one pass with one
// flooring tail: term t is the ciphertext-plaintext dot product
// Σ cts[i] ⊙ pts[i] over i in [ends[t−1], ends[t]) (ends[−1] = 0), or the
// ciphertext cts[i] itself when that range is the single i and pts[i] is
// nil, and σₜ is the automorphism of keys[t] followed by its key switch,
// or nothing for a nil key. It is bit-identical to MulPlainInto and
// AddInto over a term's products (or the bare ciphertext), then the term's
// automorphism and key switch with a flooring tail of its own, and AddInto
// term by term in order; like them it checks every degree, level and
// scale before writing out: terms are degree-1 at one level, every
// factor's scale is close to its term's first and every term's to the
// first term's, whose scale the result takes; at most ring.TailSumTerms
// of the special prime terms have a key. out must not share storage with
// any operand. A sum of plaintext products alone is one unrotated term:
// its dot product, written straight into out.
func (ev *Evaluator) RotateSumInto(cts []*Ciphertext, pts []*Plaintext, ends []int, keys []*GaloisKey, out *Ciphertext) error {
	return ev.RotateSumChainInto(cts, pts, ends, keys, nil, out)
}

// RotateSumChainInto is RotateSumInto followed by stages, if any
// (chain.go): the sum lands in pooled scratch, and the stages close with
// its key switches' floor.
func (ev *Evaluator) RotateSumChainInto(cts []*Ciphertext, pts []*Plaintext, ends []int, keys []*GaloisKey, stages []Stage, out *Ciphertext) error {
	s := ev.getRotSum()
	defer ev.putRotSum(s)
	level, scale, err := s.bind(cts, pts, ends, keys, out)
	if err != nil {
		return err
	}
	if len(stages) > 0 {
		if level, scale, err = ev.chainResult(level, scale, stages); err != nil {
			return err
		}
	}
	if err := ev.prepareInto(out, 1, level, scale); err != nil {
		return err
	}
	s.stages = stages
	s.run(out)
	return nil
}

// galoisInto computes σ(ct) into out, σ the automorphism of key and its
// key switch — a rotation or a conjugation as a sum of one term — or, with
// self, ct + σ(ct), an InnerSum round as a sum of two. out may share
// storage with ct: the sum then lands in pooled scratch and is copied
// over.
func (ev *Evaluator) galoisInto(ct *Ciphertext, key *GaloisKey, self bool, out *Ciphertext) error {
	cts, pts, ends, keys := []*Ciphertext{ct, ct}, []*Plaintext{nil, nil}, []int{1, 2}, []*GaloisKey{nil, key}
	if !self {
		cts, pts, ends, keys = cts[1:], pts[1:], ends[:1], keys[1:]
	}
	dst := out
	if overlaps(out, ct) {
		c0 := ev.ctx.GetPolyNoZero(ct.Level + 1)
		c1 := ev.ctx.GetPolyNoZero(ct.Level + 1)
		defer ev.ctx.PutPoly(c0)
		defer ev.ctx.PutPoly(c1)
		dst = &Ciphertext{Polys: []*ring.Poly{c0, c1}}
	}
	if err := ev.RotateSumInto(cts, pts, ends, keys, dst); err != nil || dst == out {
		return err
	}
	return ev.CopyInto(dst, out)
}

// rotSum is one RotateSumInto call, pooled on the evaluator: the terms,
// the accumulators they sum into, and per-term scratch. Its polynomials
// come from the ring pool as a term first needs them and go back when
// the call closes.
type rotSum struct {
	ev  *Evaluator
	ctx *ring.Context

	// The terms, fixed while the call runs (the caller's lists, copied):
	// keys[t] is term t's Galois key, nil for an unrotated term.
	cts   []*Ciphertext
	pts   []*Plaintext
	ends  []int
	keys  []*GaloisKey
	level int
	// stages follow the sum (RotateSumChainInto), which then lands in
	// pooled polynomials rather than out's.
	stages []Stage

	// q0, q1: the sum of the unrotated terms and of every σ(c0), in Q.
	// inQ[c] is set once component c holds a sum: its first term stores
	// rather than adds, so nothing is zeroed first.
	q0, q1 *ring.Poly
	inQ    [2]bool
	// acc0, acc1: the key-switch accumulators, level+2 rows; their q rows
	// hold the sum of every term's MAC since keyed was set, their special
	// row only the last term's. tail holds the two components' tail sums:
	// the integer sum of the inverse-transformed special rows of tails
	// terms.
	acc0, acc1, tail *ring.Poly
	keyed            bool
	tails            int
	// Per-term scratch: a dot product, σ(c1), and views of a bare term.
	dot0, dot1, c1g *ring.Poly
	x0, x1          ring.Poly
	// The term permRow permutes.
	src0, src1 *ring.Poly
	auto       *ring.Automorphism

	permRow func(int)
}

func (ev *Evaluator) getRotSum() *rotSum {
	s, _ := ev.sums.Get().(*rotSum)
	if s == nil {
		s = &rotSum{}
		s.permRow = s.runPermRow
	}
	s.ev, s.ctx = ev, ev.ctx
	return s
}

// putRotSum drops the call's references, keeping only its lists'
// storage, and pools s.
func (ev *Evaluator) putRotSum(s *rotSum) {
	clear(s.cts)
	clear(s.pts)
	clear(s.keys)
	*s = rotSum{cts: s.cts[:0], pts: s.pts[:0], ends: s.ends[:0], keys: s.keys[:0], permRow: s.permRow}
	ev.sums.Put(s)
}

// bind checks the terms and copies them into s — so a caller's lists may
// live on its stack — writing nothing else, and returns the result's
// level and scale.
func (s *rotSum) bind(cts []*Ciphertext, pts []*Plaintext, ends []int, keys []*GaloisKey, out *Ciphertext) (int, float64, error) {
	if len(ends) == 0 || len(ends) != len(keys) || len(pts) != len(cts) || ends[len(ends)-1] != len(cts) {
		return 0, 0, fmt.Errorf("ckks: RotateSum of %d terms (%d keys) over %d ciphertexts and %d plaintexts",
			len(ends), len(keys), len(cts), len(pts))
	}
	if out == nil {
		return 0, 0, fmt.Errorf("ckks: nil output ciphertext: %w", ErrLevelMismatch)
	}
	keyed := 0
	for _, key := range keys {
		if key != nil {
			keyed++
		}
	}
	if most := s.ctx.TailSumTerms(s.ev.params.SpecialRow()); keyed > most {
		return 0, 0, fmt.Errorf("ckks: RotateSum of %d rotated terms, more than one tail sum holds (%d)", keyed, most)
	}
	var level int
	var scale float64
	lo := 0
	for t, hi := range ends {
		if hi <= lo {
			return 0, 0, fmt.Errorf("ckks: RotateSum term %d spans operands [%d, %d)", t, lo, hi)
		}
		var tLevel int
		var tScale float64
		for i := lo; i < hi; i++ {
			ct := cts[i]
			if ct.Degree() != 1 {
				return 0, 0, fmt.Errorf("ckks: RotateSum requires degree-1 terms (operand %d has degree %d): %w", i, ct.Degree(), ErrDegreeMismatch)
			}
			if hi-lo > 1 && pts[i] == nil {
				return 0, 0, fmt.Errorf("ckks: RotateSum term %d has no plaintext for operand %d", t, i)
			}
			l, sc := ct.Level, ct.Scale
			if pts[i] != nil {
				l, sc = min(ct.Level, pts[i].Level()), ct.Scale*pts[i].Scale
			}
			if i == lo {
				tLevel, tScale = l, sc
			}
			if l != tLevel {
				return 0, 0, fmt.Errorf("ckks: RotateSum term %d: operand %d at level %d, the term's first at level %d: %w", t, i, l, tLevel, ErrLevelMismatch)
			}
			if !scalesClose(tScale, sc) {
				return 0, 0, fmt.Errorf("ckks: cannot add scales %g and %g: %w", tScale, sc, ErrScaleMismatch)
			}
			if overlaps(out, ct) {
				return 0, 0, fmt.Errorf("ckks: RotateSum output shares storage with operand %d: %w", i, ErrLevelMismatch)
			}
		}
		if t == 0 {
			level, scale = tLevel, tScale
		}
		if tLevel != level {
			return 0, 0, fmt.Errorf("ckks: RotateSum term %d at level %d, term 0 at level %d: %w", t, tLevel, level, ErrLevelMismatch)
		}
		if !scalesClose(scale, tScale) {
			return 0, 0, fmt.Errorf("ckks: cannot add scales %g and %g: %w", scale, tScale, ErrScaleMismatch)
		}
		lo = hi
	}
	s.cts, s.pts = append(s.cts[:0], cts...), append(s.pts[:0], pts...)
	s.ends, s.keys = append(s.ends[:0], ends...), append(s.keys[:0], keys...)
	s.level = level
	return level, scale, nil
}

// run computes the bound sum into out, prepared at its level and scale,
// its terms in order on the caller.
func (s *rotSum) run(out *Ciphertext) {
	if len(s.stages) == 0 {
		s.q0, s.q1 = out.Polys[0], out.Polys[1]
	} else {
		s.shape(&s.q0, s.level+1)
		s.shape(&s.q1, s.level+1)
	}
	for t := range s.ends {
		s.term(t)
	}
	// out = (acc − NTT([tail]))·P⁻¹ + the Q sum, for both components, with
	// no addition where the Q sum has nothing; then the stages. With no
	// stages the Q sum is out's own, so the close adds it in place.
	add := [2]*ring.Poly{s.q0, s.q1}
	for c := range add {
		if !s.inQ[c] {
			add[c] = nil
		}
	}
	if s.keyed || len(s.stages) > 0 {
		ch := s.ctx.FloorChain()
		if s.keyed {
			ch.Add(s.acc0, s.acc1)
			ch.FloorTail(s.tail, s.tails, s.ev.params.SpecialRow(), false)
		}
		ch.Add(add[0], add[1])
		pushStages(ch, s.level, s.stages)
		ch.Close(out.Polys[0], out.Polys[1])
	}
	if len(s.stages) == 0 {
		s.q0, s.q1 = nil, nil // out's
	}
	for _, q := range [...]*ring.Poly{s.acc0, s.acc1, s.tail, s.q0, s.q1, s.dot0, s.dot1, s.c1g} {
		s.ctx.PutPoly(q)
	}
}

// shape gives *q rows rows from the ring pool the first time the call
// needs it; the call's level is fixed, so later terms reuse it as it is.
func (s *rotSum) shape(q **ring.Poly, rows int) {
	if *q == nil {
		//heax:owns the call owns its polynomials; run returns them
		*q = s.ctx.GetPolyNoZero(rows)
	}
}

// term adds term t into the sum: an unrotated one into the Q sum, a
// rotated one through the permutation, the MAC and the tail sum.
func (s *rotSum) term(t int) {
	ctx, level := s.ctx, s.level
	lo, hi := 0, s.ends[t]
	if t > 0 {
		lo = s.ends[t-1]
	}
	key := s.keys[t]
	src0, src1 := s.cts[lo].Polys[0], s.cts[lo].Polys[1]
	switch {
	case s.pts[lo] != nil && key == nil:
		if s.inQ[0] != s.inQ[1] { // only σ(c0)s so far
			for _, row := range s.q1.Coeffs {
				clear(row)
			}
		}
		s.dot(lo, hi, s.inQ[0], s.q0, s.q1)
		s.inQ = [2]bool{true, true}
		return
	case s.pts[lo] != nil:
		s.shape(&s.dot0, level+1)
		s.shape(&s.dot1, level+1)
		s.dot(lo, hi, false, s.dot0, s.dot1)
		src0, src1 = s.dot0, s.dot1
	case key == nil:
		s.x0.Coeffs, s.x1.Coeffs = src0.Coeffs[:level+1], src1.Coeffs[:level+1]
		s.addQ(0, &s.x0)
		s.addQ(1, &s.x1)
		return
	}
	if !s.keyed { // the first rotated term
		s.shape(&s.acc0, level+2)
		s.shape(&s.acc1, level+2)
		s.shape(&s.tail, 2)
	}
	s.shape(&s.c1g, level+1)
	// q0 += σ(c0) and c1g = σ(c1), then c1g's key switch, whose q rows
	// add to the accumulators'.
	s.src0, s.src1, s.auto = src0, src1, ctx.AutomorphismNTTTable(key.GaloisElt)
	ctx.RunRows(level+1, s.permRow)
	s.inQ[0] = true
	s.ev.keySwitchMAC(s.c1g, nil, nil, key.Digits, s.acc0, s.acc1, level, s.keyed)
	s.keyed = true
	last := s.ev.params.SpecialRow()
	inv := ctx.Tables[last]
	for c, acc := range [2]*ring.Poly{s.acc0, s.acc1} {
		row, tail := acc.Coeffs[level+1], s.tail.Coeffs[c]
		if s.tails == 0 {
			inv.InverseTo(tail, row)
			continue
		}
		inv.Inverse(row)
		for j, v := range row {
			tail[j] += v
		}
	}
	s.tails++
}

// dot computes the term's plaintext products over operands [lo, hi)
// into o0, o1, adding to them when acc is set.
func (s *rotSum) dot(lo, hi int, acc bool, o0, o1 *ring.Poly) {
	var terms [ring.DotChunk]ring.DotTerm
	for b := lo; b < hi; b += len(terms) {
		n := min(hi-b, len(terms))
		for i := 0; i < n; i++ {
			terms[i] = ring.DotTerm{X0: s.cts[b+i].Polys[0], X1: s.cts[b+i].Polys[1], Y: s.pts[b+i].Value}
		}
		s.ctx.MulCoeffsDotPair(terms[:n], acc || b > lo, o0, o1)
	}
}

// runPermRow is row i of a rotated term's permutation: q0 (+)= σ(c0),
// c1g = σ(c1), in one pass of the block-permutation kernel (the add to
// the running sum fused into it), so a term's σ costs what copying its
// two rows would.
func (s *rotSum) runPermRow(i int) {
	s.ctx.AutomorphismNTTPairRow(s.src0.Coeffs[i], s.src1.Coeffs[i], s.auto, s.q0.Coeffs[i], s.c1g.Coeffs[i], s.inQ[0], i)
}

// addQ adds x into component c of the Q sum, or copies it there first.
func (s *rotSum) addQ(c int, x *ring.Poly) {
	q := [2]*ring.Poly{s.q0, s.q1}[c]
	if s.inQ[c] {
		s.ctx.Add(q, x, q)
	} else {
		copyRows(q, x, s.level+1)
	}
	s.inQ[c] = true
}
