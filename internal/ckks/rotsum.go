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
//
// The terms are dealt from one atomic counter. The caller offers the sum
// to the ring pool once; an idle worker that takes the offer while terms
// are left draws its own accumulators and claims terms beside the caller,
// and the caller, out of terms, waits only for the helpers that joined
// (serving rows meanwhile) and adds their sums into its own before the
// close. A busy pool costs parallelism, never a wait.

import (
	"fmt"
	"sync"
	"sync/atomic"

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

// rotSum is one RotateSumInto call, pooled on the evaluator. A pool
// worker may answer its offer long after the call returned, even while
// the struct serves a later call: Help joins only while open is set,
// under mu, so a late helper either returns at once or joins that call.
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
	// stages follow the sum (RotateSumChainInto), which then lands in the
	// lead part's own polynomials rather than out's.
	stages []Stage
	next   atomic.Int64 // the last term claimed

	mu sync.Mutex
	// open: a helper arriving now may still join. active counts the
	// helpers that joined and have not handed in their part; wake is
	// sent to once, when the last of them does after open was cleared.
	open   bool
	active int
	done   []*sumPart
	wake   chan struct{}

	lead *sumPart // the caller's part, which closes the sum into out
}

// sumPart is one participant's share of a sum: its accumulators and its
// running sum in Q. Its polynomials come from the ring pool as it first
// needs them and go back in putPart.
type sumPart struct {
	s *rotSum
	tailAcc
	// q0, q1: the sum of the unrotated terms and of every σ(c0), in Q —
	// out's components for the caller, the part's own for a helper, drawn
	// when it claims its first term (busy). inQ[c] is set once component
	// c holds a sum: its first term stores rather than adds, so nothing
	// is zeroed first.
	q0, q1 *ring.Poly
	inQ    [2]bool
	busy   bool
	// Per-term scratch: a dot product, σ(c1), and views of a bare term.
	dot0, dot1, c1g *ring.Poly
	x0, x1          ring.Poly
	// The term permRow permutes.
	src0, src1 *ring.Poly
	auto       *ring.Automorphism

	permRow func(int)
}

// tailAcc is what a part's rotated terms have accumulated.
type tailAcc struct {
	// acc0, acc1: the key-switch accumulators, level+2 rows; their q rows
	// (viewed by accQ) hold the sum of every term's MAC since keyed was
	// set, their special row only the last term's.
	acc0, acc1 *ring.Poly
	accQ       [2]ring.Poly
	keyed      bool
	// tail holds the two components' tail sums: the integer sum of the
	// inverse-transformed special rows of the part's tails terms.
	tail  *ring.Poly
	tails int
}

func (ev *Evaluator) getRotSum() *rotSum {
	s, _ := ev.sums.Get().(*rotSum)
	if s == nil {
		s = &rotSum{wake: make(chan struct{}, 1)}
	}
	s.ev, s.ctx = ev, ev.ctx
	return s
}

func (ev *Evaluator) putRotSum(s *rotSum) {
	clear(s.cts)
	clear(s.pts)
	clear(s.keys)
	s.lead, s.stages = nil, nil
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

// run computes the bound sum into out, prepared at its level and scale.
func (s *rotSum) run(out *Ciphertext) {
	lead := s.ev.getPart()
	lead.s, lead.busy = s, true
	if len(s.stages) == 0 {
		lead.q0, lead.q1 = out.Polys[0], out.Polys[1]
	} else {
		lead.shape(&lead.q0, s.level+1)
		lead.shape(&lead.q1, s.level+1)
	}
	s.lead = lead
	s.mu.Lock()
	s.next.Store(-1)
	s.open = true
	s.mu.Unlock()
	switch {
	case len(s.ends) < 2:
	case s.ev.sumOffer != nil:
		s.ev.sumOffer(s)
	default:
		s.ev.Offer(s)
	}
	lead.work()
	s.mu.Lock()
	s.open = false
	for s.active > 0 {
		s.mu.Unlock()
		s.ev.HelpUntil(s.wake)
		s.mu.Lock()
	}
	s.mu.Unlock()
	for _, h := range s.done {
		lead.merge(h)
		s.ev.putPart(h)
	}
	clear(s.done)
	s.done = s.done[:0]
	// out = (acc − NTT([tail]))·P⁻¹ + the Q sum, for both components, with
	// no addition where the Q sum has nothing; then the stages. With no
	// stages the Q sum is out's own, so the close adds it in place.
	add := [2]*ring.Poly{lead.q0, lead.q1}
	for c := range add {
		if !lead.inQ[c] {
			add[c] = nil
		}
	}
	if lead.keyed || len(s.stages) > 0 {
		ch := s.ctx.FloorChain()
		if lead.keyed {
			ch.Add(lead.acc0, lead.acc1)
			ch.FloorTail(lead.tail, lead.tails, s.ev.params.SpecialRow(), false)
		}
		ch.Add(add[0], add[1])
		pushStages(ch, s.level, s.stages)
		ch.Close(out.Polys[0], out.Polys[1])
	}
	if len(s.stages) == 0 {
		lead.q0, lead.q1 = nil, nil // out's
	}
	s.ev.putPart(lead)
}

// Help is a pool worker answering the sum's offer: a participant while
// terms are left, nothing if it comes too late.
func (s *rotSum) Help() {
	s.mu.Lock()
	if !s.open || int(s.next.Load())+1 >= len(s.ends) {
		s.mu.Unlock()
		return
	}
	s.active++
	s.mu.Unlock()
	p := s.ev.getPart()
	p.s = s
	p.work()
	s.mu.Lock()
	if p.busy {
		s.done = append(s.done, p)
	} else {
		s.ev.putPart(p) // every term went to others
	}
	if s.active--; s.active == 0 && !s.open {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
	s.mu.Unlock()
}

func (ev *Evaluator) getPart() *sumPart {
	p, _ := ev.parts.Get().(*sumPart)
	if p == nil {
		p = &sumPart{}
		p.permRow = p.runPermRow
	}
	return p
}

// putPart returns a part's polynomials to the ring pool and the part to
// the evaluator's.
func (ev *Evaluator) putPart(p *sumPart) {
	for _, q := range [...]*ring.Poly{p.acc0, p.acc1, p.tail, p.q0, p.q1, p.dot0, p.dot1, p.c1g} {
		ev.ctx.PutPoly(q)
	}
	*p = sumPart{permRow: p.permRow}
	ev.parts.Put(p)
}

// shape gives *q rows rows from the ring pool the first time the part
// needs it; the call's level is fixed, so later terms reuse it as it is.
func (p *sumPart) shape(q **ring.Poly, rows int) {
	if *q == nil {
		//heax:owns the part owns its polynomials; putPart returns them
		*q = p.s.ctx.GetPolyNoZero(rows)
	}
}

// work claims terms until none is left.
func (p *sumPart) work() {
	s := p.s
	for {
		t := int(s.next.Add(1))
		if t >= len(s.ends) {
			return
		}
		if !p.busy { // a helper's first term
			p.busy = true
			p.shape(&p.q0, s.level+1)
			p.shape(&p.q1, s.level+1)
		}
		p.term(t)
	}
}

// term adds term t into the part: an unrotated one into the Q sum, a
// rotated one through the permutation, the MAC and the tail sum.
func (p *sumPart) term(t int) {
	s := p.s
	ctx, level := s.ctx, s.level
	lo, hi := 0, s.ends[t]
	if t > 0 {
		lo = s.ends[t-1]
	}
	key := s.keys[t]
	src0, src1 := s.cts[lo].Polys[0], s.cts[lo].Polys[1]
	switch {
	case s.pts[lo] != nil && key == nil:
		if p.inQ[0] != p.inQ[1] { // only σ(c0)s so far
			for _, row := range p.q1.Coeffs {
				clear(row)
			}
		}
		p.dot(lo, hi, p.inQ[0], p.q0, p.q1)
		p.inQ = [2]bool{true, true}
		return
	case s.pts[lo] != nil:
		p.shape(&p.dot0, level+1)
		p.shape(&p.dot1, level+1)
		p.dot(lo, hi, false, p.dot0, p.dot1)
		src0, src1 = p.dot0, p.dot1
	case key == nil:
		p.x0.Coeffs, p.x1.Coeffs = src0.Coeffs[:level+1], src1.Coeffs[:level+1]
		p.addQ(0, &p.x0)
		p.addQ(1, &p.x1)
		return
	}
	if !p.keyed { // the part's first rotated term
		p.shape(&p.acc0, level+2)
		p.shape(&p.acc1, level+2)
		p.shape(&p.tail, 2)
		p.accQ[0].Coeffs, p.accQ[1].Coeffs = p.acc0.Coeffs[:level+1], p.acc1.Coeffs[:level+1]
	}
	p.shape(&p.c1g, level+1)
	// q0 += σ(c0) and c1g = σ(c1), then c1g's key switch, whose q rows
	// add to the part's.
	p.src0, p.src1, p.auto = src0, src1, ctx.AutomorphismNTTTable(key.GaloisElt)
	ctx.RunRows(level+1, p.permRow)
	p.inQ[0] = true
	s.ev.keySwitchMAC(p.c1g, nil, nil, key.Digits, p.acc0, p.acc1, level, p.keyed)
	p.keyed = true
	last := s.ev.params.SpecialRow()
	inv := ctx.Tables[last]
	for c, acc := range [2]*ring.Poly{p.acc0, p.acc1} {
		row, tail := acc.Coeffs[level+1], p.tail.Coeffs[c]
		if p.tails == 0 {
			inv.InverseTo(tail, row)
			continue
		}
		inv.Inverse(row)
		for j, v := range row {
			tail[j] += v
		}
	}
	p.tails++
}

// dot computes the term's plaintext products over operands [lo, hi)
// into o0, o1, adding to them when acc is set.
func (p *sumPart) dot(lo, hi int, acc bool, o0, o1 *ring.Poly) {
	s := p.s
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
func (p *sumPart) runPermRow(i int) {
	p.s.ctx.AutomorphismNTTPairRow(p.src0.Coeffs[i], p.src1.Coeffs[i], p.auto, p.q0.Coeffs[i], p.c1g.Coeffs[i], p.inQ[0], i)
}

// addQ adds x into component c of the Q sum, or copies it there first.
func (p *sumPart) addQ(c int, x *ring.Poly) {
	q := [2]*ring.Poly{p.q0, p.q1}[c]
	if p.inQ[c] {
		p.s.ctx.Add(q, x, q)
	} else {
		copyRows(q, x, p.s.level+1)
	}
	p.inQ[c] = true
}

// merge adds a helper's part into p. Every step is an addition modulo a
// prime, or of integers whose sum holds no more terms than the call, so
// the result does not depend on which participant ran which term.
func (p *sumPart) merge(h *sumPart) {
	ctx := p.s.ctx
	for c, q := range [2]*ring.Poly{h.q0, h.q1} {
		if h.inQ[c] {
			p.addQ(c, q)
		}
	}
	switch {
	case !h.keyed:
		return
	case !p.keyed:
		p.tailAcc, h.tailAcc = h.tailAcc, p.tailAcc
		return
	}
	ctx.Add(&p.accQ[0], &h.accQ[0], &p.accQ[0])
	ctx.Add(&p.accQ[1], &h.accQ[1], &p.accQ[1])
	for c := 0; c < 2; c++ {
		tail := p.tail.Coeffs[c]
		for j, v := range h.tail.Coeffs[c] {
			tail[j] += v
		}
	}
	p.tails += h.tails
}
