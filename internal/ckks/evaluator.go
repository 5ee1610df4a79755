package ckks

import (
	"fmt"
	"math"
	"sync"

	"heax/internal/ring"
)

// Evaluator implements the server-side homomorphic operations of
// Section 3 — exactly the set HEAX accelerates. All operands stay in RNS
// and NTT form throughout, as in SEAL. An Evaluator is safe for
// concurrent use: its precomputed state is read-only after construction,
// per-call state lives in pooled job structs (schedule.go), and all
// operations share the ring context's persistent worker pool.
//
// Every operation has exactly one implementation, its *Into kernel,
// which lands the result in a caller-owned ciphertext on pooled scratch.
// The allocating form of an operation hands that kernel a fresh empty
// ciphertext and returns it.
type Evaluator struct {
	params *Params
	// ctx is the evaluator's view of the parameter ring. By default it
	// is params.RingQP itself; SetWorkers swaps in a Fork with a local
	// worker cap so one evaluator's bound never leaks into others built
	// on the same Params.
	ctx *ring.Context

	// jobs pools the per-call key-switch state (schedule.go), sums the
	// state of a RotateSumInto call (rotsum.go).
	jobs, sums sync.Pool
}

// NewEvaluator builds an evaluator for params.
func NewEvaluator(params *Params) *Evaluator {
	return &Evaluator{params: params, ctx: params.RingQP}
}

// SetWorkers caps the goroutines this evaluator's row-wise operations
// fan out to, without touching the shared ring context: the evaluator
// switches to a Fork of params.RingQP carrying the cap locally. Not
// safe to call while operations run concurrently on this evaluator.
func (ev *Evaluator) SetWorkers(n int) {
	ev.ctx = ev.params.RingQP.Fork(n)
}

// Workers returns the evaluator's current worker cap.
func (ev *Evaluator) Workers() int { return ev.ctx.Workers() }

// Offer and HelpUntil are the ring pool's (ring.Context.Offer,
// HelpUntil) under this evaluator's worker cap, so whatever schedules
// whole operations above the evaluator borrows the workers its kernels
// fan their rows out to, and SetWorkers bounds both with one number.
func (ev *Evaluator) Offer(h interface{ Help() }) bool { return ev.ctx.Offer(h) }
func (ev *Evaluator) HelpUntil(wake <-chan struct{})   { ev.ctx.HelpUntil(wake) }

// scalesClose reports whether two scales are equal up to floating-point
// noise; CKKS addition on mismatched scales silently corrupts results
// (Section 3.3), so we refuse it.
func scalesClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// ScalesClose exports scalesClose to the circuit compiler, which must
// refuse at compile time exactly the additions the runtime would.
func ScalesClose(a, b float64) bool { return scalesClose(a, b) }

// alignLevels returns views of the operands truncated to a common level.
func (ev *Evaluator) alignLevels(a, b *Ciphertext) (*Ciphertext, *Ciphertext) {
	if a.Level == b.Level {
		return a, b
	}
	level := min(a.Level, b.Level)
	return AtLevel(a, level), AtLevel(b, level)
}

// levelView is a ciphertext read below its level, held in one
// allocation when it has at most three components.
type levelView struct {
	ct    Ciphertext
	polys [3]*ring.Poly
	rows  [3]ring.Poly
}

// AtLevel returns ct as read at level: ct itself when it is at or below
// level (or nil), else a view of the first level+1 rows of each of its
// components, which shares ct's rows and is only ever read. It is the one
// way a ciphertext is read below its level, by the evaluator's kernels
// and by a plan's steps alike.
func AtLevel(ct *Ciphertext, level int) *Ciphertext {
	if ct == nil || ct.Level <= level {
		return ct
	}
	v := &levelView{}
	polys, rows := v.polys[:], v.rows[:]
	if n := len(ct.Polys); n > len(rows) {
		polys, rows = make([]*ring.Poly, n), make([]ring.Poly, n)
	}
	for i, p := range ct.Polys {
		rows[i].Coeffs = p.Coeffs[:level+1]
		polys[i] = &rows[i]
	}
	v.ct = Ciphertext{Polys: polys[:len(ct.Polys)], Scale: ct.Scale, Level: level}
	return &v.ct
}

// Each *Into method lands its result in a caller-owned ciphertext
// instead of allocating a fresh one, reusing the ring context's pooled
// scratch for all intermediates. A serving loop that round-robins over a
// fixed set of NewCiphertext outputs therefore runs at zero steady-state
// allocations — the software analogue of the HEAX memory map (Section
// 5.1), where results stay in preallocated device buffers instead of
// materializing new ones per operation.
//
// Output ciphertexts may alias an input when the shapes match: every
// operation fully consumes its inputs (into pooled scratch or per-
// element reads) before the output rows are written.

// NewCiphertext allocates a degree-`degree` ciphertext at `level` with
// the given scale. Components are backed at the parameter set's full
// level so the same ciphertext can be reused as an *Into output at any
// level at or below its current one (and back up again).
func NewCiphertext(params *Params, degree, level int, scale float64) (*Ciphertext, error) {
	if degree < 1 || degree > 2 {
		return nil, fmt.Errorf("ckks: ciphertext degree %d out of range [1,2]: %w", degree, ErrDegreeMismatch)
	}
	if level < 0 || level > params.MaxLevel() {
		return nil, fmt.Errorf("ckks: level %d out of range [0,%d]: %w", level, params.MaxLevel(), ErrLevelMismatch)
	}
	ct := &Ciphertext{Scale: scale, Level: level}
	for i := 0; i <= degree; i++ {
		p := params.RingQP.NewPoly(params.K())
		p.Coeffs = p.Coeffs[:level+1]
		ct.Polys = append(ct.Polys, p)
	}
	return ct, nil
}

// prepareInto reshapes out in place to hold a degree-`degree` result at
// `level` with scale `scale`, reusing the components' backing storage.
// Components that cannot hold level+1 rows yield ErrLevelMismatch;
// missing components are allocated (pre-shaped outputs stay
// allocation-free).
func (ev *Evaluator) prepareInto(out *Ciphertext, degree, level int, scale float64) error {
	if out == nil {
		return fmt.Errorf("ckks: nil output ciphertext: %w", ErrLevelMismatch)
	}
	ctx := ev.ctx
	rows := level + 1
	if len(out.Polys) > degree+1 {
		out.Polys = out.Polys[:degree+1]
	}
	for len(out.Polys) < degree+1 {
		out.Polys = append(out.Polys, ctx.NewPoly(rows))
	}
	for i, p := range out.Polys {
		if p == nil {
			out.Polys[i] = ctx.NewPoly(rows)
			continue
		}
		if cap(p.Coeffs) < rows {
			return fmt.Errorf("ckks: output component %d backs %d rows, result needs %d: %w",
				i, cap(p.Coeffs), rows, ErrLevelMismatch)
		}
		was := len(p.Coeffs)
		p.Coeffs = p.Coeffs[:rows]
		for j := was; j < rows; j++ {
			if len(p.Coeffs[j]) != ctx.N {
				return fmt.Errorf("ckks: output component %d row %d not backed by this ring: %w",
					i, j, ErrLevelMismatch)
			}
		}
	}
	out.Scale, out.Level = scale, level
	return nil
}

// fresh closes every allocating operation form: it returns the
// ciphertext the *Into kernel just filled, or nil when the kernel
// refused. The kernel is handed an empty Ciphertext, so prepareInto
// allocates each component at exactly the result's level and the result
// shares no backing row with an input.
func fresh(out *Ciphertext, err error) (*Ciphertext, error) {
	if err != nil {
		return nil, err
	}
	return out, nil
}

// overlaps reports whether two ciphertexts share storage: a row of one
// starts where a row of the other does, as it does for one polynomial, a
// view of it or rows sliced out of it at any offset (a row that starts
// inside another row is not looked for). The kernels that read an operand
// after writing part of their output refuse an output that overlaps it.
// A nil ciphertext overlaps nothing.
func overlaps(a, b *Ciphertext) bool {
	if a == nil || b == nil {
		return false
	}
	for _, p := range a.Polys {
		for _, q := range b.Polys {
			if p == nil || q == nil {
				continue
			}
			for _, x := range p.Coeffs {
				for _, y := range q.Coeffs {
					if cap(x) > 0 && cap(y) > 0 && &x[:1][0] == &y[:1][0] {
						return true
					}
				}
			}
		}
	}
	return false
}

// copyRows copies the first rows rows of src into dst unless they are
// the same polynomial (an output aliasing its input).
func copyRows(dst, src *ring.Poly, rows int) {
	if dst == src {
		return
	}
	for r := 0; r < rows; r++ {
		copy(dst.Coeffs[r], src.Coeffs[r])
	}
}

// Add returns ct0 + ct1 (CKKS.Add). Operands may have different degrees;
// levels are aligned by dropping rows of the fresher operand.
func (ev *Evaluator) Add(ct0, ct1 *Ciphertext) (*Ciphertext, error) {
	out := &Ciphertext{}
	return fresh(out, ev.AddInto(ct0, ct1, out))
}

// AddInto computes ct0 + ct1 into out (CKKS.Add, in place). Operands may
// have different degrees and levels exactly as Add allows; out may alias
// either operand when shapes already match.
func (ev *Evaluator) AddInto(ct0, ct1, out *Ciphertext) error {
	if !scalesClose(ct0.Scale, ct1.Scale) {
		return fmt.Errorf("ckks: cannot add scales %g and %g: %w", ct0.Scale, ct1.Scale, ErrScaleMismatch)
	}
	a, b := ev.alignLevels(ct0, ct1)
	if len(a.Polys) < len(b.Polys) {
		a, b = b, a
	}
	if err := ev.prepareInto(out, a.Degree(), a.Level, a.Scale); err != nil {
		return err
	}
	ctx := ev.ctx
	rows := a.Level + 1
	for i, p := range a.Polys {
		if p.Rows() != rows {
			p = p.Resize(rows)
		}
		if i < len(b.Polys) {
			q := b.Polys[i]
			if q.Rows() != rows {
				q = q.Resize(rows)
			}
			ctx.Add(p, q, out.Polys[i])
			continue
		}
		copyRows(out.Polys[i], p, rows)
	}
	return nil
}

// Sub returns ct0 - ct1.
func (ev *Evaluator) Sub(ct0, ct1 *Ciphertext) (*Ciphertext, error) {
	out := &Ciphertext{}
	return fresh(out, ev.SubInto(ct0, ct1, out))
}

// SubInto computes ct0 - ct1 into out (degrees and levels reconciled as
// Add allows); out may alias either operand.
func (ev *Evaluator) SubInto(ct0, ct1, out *Ciphertext) error {
	if !scalesClose(ct0.Scale, ct1.Scale) {
		return fmt.Errorf("ckks: cannot subtract scales %g and %g: %w", ct0.Scale, ct1.Scale, ErrScaleMismatch)
	}
	a, b := ev.alignLevels(ct0, ct1)
	degree := max(a.Degree(), b.Degree())
	if err := ev.prepareInto(out, degree, a.Level, a.Scale); err != nil {
		return err
	}
	ctx := ev.ctx
	rows := a.Level + 1
	for i := range out.Polys {
		var p, q *ring.Poly
		if i < len(a.Polys) {
			if p = a.Polys[i]; p.Rows() != rows {
				p = p.Resize(rows)
			}
		}
		if i < len(b.Polys) {
			if q = b.Polys[i]; q.Rows() != rows {
				q = q.Resize(rows)
			}
		}
		switch {
		case p != nil && q != nil:
			ctx.Sub(p, q, out.Polys[i])
		case p != nil:
			copyRows(out.Polys[i], a.Polys[i], rows)
		default:
			ctx.Neg(q, out.Polys[i])
		}
	}
	return nil
}

// AddPlain returns ct + pt.
func (ev *Evaluator) AddPlain(ct *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	out := &Ciphertext{}
	return fresh(out, ev.AddPlainInto(ct, pt, out))
}

// AddPlainInto computes ct + pt into out; out may alias ct.
func (ev *Evaluator) AddPlainInto(ct *Ciphertext, pt *Plaintext, out *Ciphertext) error {
	if !scalesClose(ct.Scale, pt.Scale) {
		return fmt.Errorf("ckks: cannot add plaintext scale %g to ciphertext scale %g: %w", pt.Scale, ct.Scale, ErrScaleMismatch)
	}
	level := min(ct.Level, pt.Level())
	in := AtLevel(ct, level)
	ptv := pt.Value.Resize(level + 1)
	if err := ev.prepareInto(out, in.Degree(), level, ct.Scale); err != nil {
		return err
	}
	ev.ctx.Add(in.Polys[0], ptv, out.Polys[0])
	for i := 1; i < len(in.Polys); i++ {
		copyRows(out.Polys[i], in.Polys[i], level+1)
	}
	return nil
}

// MulPlain returns ct ⊙ pt (ciphertext-plaintext multiplication, the C-P
// mode of the MULT module). The result scale is the product of scales.
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	out := &Ciphertext{}
	return fresh(out, ev.MulPlainInto(ct, pt, out))
}

// MulPlainInto computes ct ⊙ pt into out; out may alias ct. For a
// degree-1 ct, pt's rows may be compact, one value per 8-lane block
// (ring.MulCoeffsPair), as a Plan stores its block-constant multipliers.
func (ev *Evaluator) MulPlainInto(ct *Ciphertext, pt *Plaintext, out *Ciphertext) error {
	level := min(ct.Level, pt.Level())
	in := AtLevel(ct, level)
	ptv := pt.Value.Resize(level + 1)
	if err := ev.prepareInto(out, in.Degree(), level, ct.Scale*pt.Scale); err != nil {
		return err
	}
	// Both components in one row pass (a ciphertext has two or three).
	ctx := ev.ctx
	ctx.MulCoeffsPair(in.Polys[0], in.Polys[1], ptv, out.Polys[0], out.Polys[1])
	for i := 2; i < len(in.Polys); i++ {
		ctx.MulCoeffs(in.Polys[i], ptv, out.Polys[i])
	}
	return nil
}

// Mul returns the degree-2 product of two degree-1 ciphertexts
// (Algorithm 5): (a0⊙b0, a0⊙b1 + a1⊙b0, a1⊙b1).
func (ev *Evaluator) Mul(ct0, ct1 *Ciphertext) (*Ciphertext, error) {
	if ct0.Degree() != 1 || ct1.Degree() != 1 {
		return nil, fmt.Errorf("ckks: Mul requires degree-1 operands (got %d and %d): %w",
			ct0.Degree(), ct1.Degree(), ErrDegreeMismatch)
	}
	a, b := ev.alignLevels(ct0, ct1)
	ctx := ev.ctx
	rows := a.Level + 1
	c0 := ctx.NewPoly(rows)
	c1 := ctx.NewPoly(rows)
	c2 := ctx.NewPoly(rows)
	ctx.MulCoeffsTensor(a.Polys[0], a.Polys[1], b.Polys[0], b.Polys[1], c0, c1, c2)
	return &Ciphertext{
		Polys: []*ring.Poly{c0, c1, c2},
		Scale: a.Scale * b.Scale,
		Level: a.Level,
	}, nil
}

// KeySwitchPoly runs Algorithm 7 on a single NTT-form polynomial c at
// level c.Level(), returning the pair (c0', c1') such that
// c0' + c1'·s ≈ c·s'. It is exported because the HEAX KeySwitch module
// implements exactly this computation and the hardware-vs-software tests
// compare against it.
//
// This is the hot path of Table 8, run as three row-parallel passes
// (schedule.go): the per-digit INTTs, then one pass over the
// accumulator rows — each row base-converts every digit to its prime
// and MACs it in, owning its row outright — then the flooring tail. The
// MAC is the ring's fully reduced multiply-add row against the key
// polynomials as they are, all scratch comes from the ring's buffer
// pool, and the result is bit-identical at every worker count.
func (ev *Evaluator) KeySwitchPoly(c *ring.Poly, swk *SwitchingKey) (*ring.Poly, *ring.Poly) {
	return ev.keySwitchAdd(c, swk, nil, nil)
}

// keySwitchAdd is keySwitchAddInto landing in a freshly allocated output
// pair — the allocating shim behind the three operations that have no
// *Into form (Relinearize, SwitchKeys, KeySwitchPoly).
func (ev *Evaluator) keySwitchAdd(c *ring.Poly, swk *SwitchingKey, add0, add1 *ring.Poly) (*ring.Poly, *ring.Poly) {
	out0, out1 := ev.ctx.NewPolyPair(c.Level() + 1)
	ev.keySwitchAddInto(c, nil, nil, swk, add0, add1, nil, out0, out1)
	return out0, out1
}

// keySwitchAddInto runs Algorithm 7 and lands (add0 + ks0, add1 + ks1),
// then the stages if any (chain.go), in the caller-provided output
// polynomials (each with level+1 rows less one per rescale among the
// stages, which close with the key switch's floor; either add operand
// may be nil, and may have more rows) — the
// key-switch back end of relinearization, re-keying, KeySwitchPoly, the
// fused MulRelin and every step of a hoisted rotation (other rotations
// run through RotateSumInto). It switches either the polynomial c or,
// for a hoisted step, the cached decomposition hd with each digit
// permuted by auto (nil for none). The flooring tail and the final
// additions write straight into the outputs, with no intermediate result
// polys, no input copies and no separate addition sweep.
func (ev *Evaluator) keySwitchAddInto(c *ring.Poly, hd *HoistedDecomposition, auto *ring.Automorphism, swk *SwitchingKey, add0, add1 *ring.Poly, stages []Stage, out0, out1 *ring.Poly) {
	ctx := ev.ctx
	level := out0.Rows() - 1
	for _, st := range stages {
		if st.Kind == StageRescale {
			level++
		}
	}
	// Accumulators over (q_0..q_level, P); row level+1 is the special
	// prime. Unzeroed: the MAC's first digit stores into every row.
	acc0 := ctx.GetPolyNoZero(level + 2)
	acc1 := ctx.GetPolyNoZero(level + 2)
	defer ctx.PutPoly(acc0)
	defer ctx.PutPoly(acc1)
	ev.keySwitchMAC(c, hd, auto, swk.Digits, acc0, acc1, level, false)
	// Line 19: modulus switching — divide by the special prime. It starts
	// once every accumulator row is complete, as the hardware's does (the
	// bank-set handoff of Fig. 8).
	ch := ctx.FloorChain()
	ch.Add(acc0, acc1)
	ch.Floor(ev.params.SpecialRow(), false)
	ch.Add(add0, add1)
	pushStages(ch, level, stages)
	ch.Close(out0, out1)
}

// Relinearize transforms a degree-2 ciphertext back to degree 1 using the
// relinearization key (CKKS.Relin).
func (ev *Evaluator) Relinearize(ct *Ciphertext, rlk *RelinearizationKey) (*Ciphertext, error) {
	if ct.Degree() != 2 {
		return nil, fmt.Errorf("ckks: Relinearize requires a degree-2 ciphertext (got %d): %w", ct.Degree(), ErrDegreeMismatch)
	}
	out0, out1 := ev.keySwitchAdd(ct.Polys[2], &rlk.SwitchingKey, ct.Polys[0], ct.Polys[1])
	return &Ciphertext{Polys: []*ring.Poly{out0, out1}, Scale: ct.Scale, Level: ct.Level}, nil
}

// SwitchKeys re-encrypts a degree-1 ciphertext under a different secret
// key using a key generated by GenSwitchingKey(oldKey, newKey): the
// result decrypts under the new key.
func (ev *Evaluator) SwitchKeys(ct *Ciphertext, swk *SwitchingKey) (*Ciphertext, error) {
	if ct.Degree() != 1 {
		return nil, fmt.Errorf("ckks: SwitchKeys requires a degree-1 ciphertext (got %d): %w", ct.Degree(), ErrDegreeMismatch)
	}
	c0, c1 := ev.keySwitchAdd(ct.Polys[1], swk, ct.Polys[0], nil)
	return &Ciphertext{Polys: []*ring.Poly{c0, c1}, Scale: ct.Scale, Level: ct.Level}, nil
}

// MulRelin is Mul followed by Relinearize — the paper's "MULT+ReLin"
// composite operation of Table 8.
func (ev *Evaluator) MulRelin(ct0, ct1 *Ciphertext, rlk *RelinearizationKey) (*Ciphertext, error) {
	out := &Ciphertext{}
	return fresh(out, ev.MulRelinInto(ct0, ct1, rlk, out))
}

// MulRelinInto computes the relinearized product of two degree-1
// ciphertexts into out — the fused MULT+ReLin hot path of Table 8 with
// the result landing in caller-owned storage: the degree-2 tensor lives
// in pooled scratch and the key-switch flooring tail (plus the final
// additions) writes straight into out's two components.
func (ev *Evaluator) MulRelinInto(ct0, ct1 *Ciphertext, rlk *RelinearizationKey, out *Ciphertext) error {
	return ev.mulRelinInto(ct0, ct1, rlk, nil, out)
}

// mulRelinInto is MulRelinInto followed by stages, if any (chain.go).
func (ev *Evaluator) mulRelinInto(ct0, ct1 *Ciphertext, rlk *RelinearizationKey, stages []Stage, out *Ciphertext) error {
	if ct0.Degree() != 1 || ct1.Degree() != 1 {
		return fmt.Errorf("ckks: MulRelin requires degree-1 operands (got %d and %d): %w",
			ct0.Degree(), ct1.Degree(), ErrDegreeMismatch)
	}
	a, b := ev.alignLevels(ct0, ct1)
	level, scale := a.Level, a.Scale*b.Scale
	if len(stages) > 0 {
		var err error
		if level, scale, err = ev.chainResult(level, scale, stages); err != nil {
			return err
		}
	}
	if err := ev.prepareInto(out, 1, level, scale); err != nil {
		return err
	}
	ctx := ev.ctx
	rows := a.Level + 1
	// Algorithm 5 on pooled scratch: c2 is consumed by the key switch,
	// c0/c1 are folded into the outputs by keySwitchAddInto.
	c0 := ctx.GetPolyNoZero(rows)
	c1 := ctx.GetPolyNoZero(rows)
	c2 := ctx.GetPolyNoZero(rows)
	defer ctx.PutPoly(c0)
	defer ctx.PutPoly(c1)
	defer ctx.PutPoly(c2)
	ctx.MulCoeffsTensor(a.Polys[0], a.Polys[1], b.Polys[0], b.Polys[1], c0, c1, c2)
	ev.keySwitchAddInto(c2, nil, nil, &rlk.SwitchingKey, c0, c1, stages, out.Polys[0], out.Polys[1])
	return nil
}

// Rescale divides the ciphertext by its current last prime and drops one
// level (CKKS.Rescale, built on Algorithm 6 with rounding).
func (ev *Evaluator) Rescale(ct *Ciphertext) (*Ciphertext, error) {
	out := &Ciphertext{}
	return fresh(out, ev.RescaleInto(ct, out))
}

// RescaleInto divides ct by its current last prime into out, dropping
// one level (CKKS.Rescale in place). Components are floored in pairs so
// each pair shares one row pass, then a degree-2 ciphertext's odd one
// alone. out may be ct itself (or share its components) for a true
// in-place rescale: the flooring reads each row element before writing
// it.
func (ev *Evaluator) RescaleInto(ct, out *Ciphertext) error {
	if ct.Level == 0 {
		return fmt.Errorf("ckks: cannot rescale below level 0: %w", ErrLevelMismatch)
	}
	// Capture the input component views before prepareInto reshapes out:
	// when out aliases ct, reshaping truncates the shared row slices, so
	// aliased inputs are re-extended over the same backing rows.
	ins := ct.Polys
	inRows := ct.Level + 1
	aliased := out == ct
	if !aliased && out != nil {
		for _, p := range out.Polys {
			for _, q := range ct.Polys {
				if p != nil && p == q {
					aliased = true
				}
			}
		}
	}
	if aliased {
		ins = make([]*ring.Poly, len(ct.Polys))
		for i, p := range ct.Polys {
			ins[i] = &ring.Poly{Coeffs: p.Coeffs[:inRows]}
		}
	}
	pLast := ev.params.Q[inRows-1]
	if err := ev.prepareInto(out, len(ins)-1, inRows-2, ct.Scale/float64(pLast)); err != nil {
		return err
	}
	ctx, last := ev.ctx, inRows-1
	for i := 0; i+1 < len(ins); i += 2 {
		ctx.FloorInto(ins[i], ins[i+1], nil, nil, out.Polys[i], out.Polys[i+1], last, true)
	}
	if len(ins)%2 == 1 {
		odd := len(ins) - 1
		ctx.FloorInto(ins[odd], nil, nil, nil, out.Polys[odd], nil, last, true)
	}
	return nil
}

// rotationKeyFor normalizes step into [0, Slots()) and fetches the
// matching Galois key. A nil key with nil error means the normalized
// step is 0 — the identity permutation, which needs no key.
func (ev *Evaluator) rotationKeyFor(gks *GaloisKeySet, step int) (*GaloisKey, error) {
	norm := ev.params.NormalizeRotation(step)
	if norm == 0 {
		return nil, nil
	}
	return gks.rotationKey(norm)
}

// RotateLeft rotates message slots left by step positions using the
// matching Galois key: slot i of the result holds slot i+step of the
// input. Steps are normalized modulo the slot count, so step and
// step−Slots() use the same key; a step that normalizes to 0 returns a
// copy of the input.
func (ev *Evaluator) RotateLeft(ct *Ciphertext, step int, gks *GaloisKeySet) (*Ciphertext, error) {
	out := &Ciphertext{}
	return fresh(out, ev.RotateLeftInto(ct, step, gks, out))
}

// RotateLeftInto is RotateLeft landing in out: a RotateSum of one term.
// A step that normalizes to 0 copies ct into out.
func (ev *Evaluator) RotateLeftInto(ct *Ciphertext, step int, gks *GaloisKeySet, out *Ciphertext) error {
	key, err := ev.rotationKeyFor(gks, step)
	if err != nil {
		return err
	}
	if key == nil {
		return ev.CopyInto(ct, out)
	}
	return ev.galoisInto(ct, key, false, out)
}

// RotateRight is RotateLeft with a negated step.
func (ev *Evaluator) RotateRight(ct *Ciphertext, step int, gks *GaloisKeySet) (*Ciphertext, error) {
	return ev.RotateLeft(ct, -step, gks)
}

// ConjugateSlots applies complex conjugation to every slot.
func (ev *Evaluator) ConjugateSlots(ct *Ciphertext, gks *GaloisKeySet) (*Ciphertext, error) {
	out := &Ciphertext{}
	return fresh(out, ev.ConjugateSlotsInto(ct, gks, out))
}

// ConjugateSlotsInto applies complex conjugation to every slot, into out:
// a RotateSum of one term under the conjugation key.
func (ev *Evaluator) ConjugateSlotsInto(ct *Ciphertext, gks *GaloisKeySet, out *Ciphertext) error {
	if gks == nil || gks.Conjugate == nil {
		return fmt.Errorf("ckks: no conjugation key provided: %w", ErrKeyMissing)
	}
	return ev.galoisInto(ct, gks.Conjugate, false, out)
}

// InnerSum replaces every slot of ct with the sum of the n2 slots
// starting at it (stride 1), computed with log2(n2) rotations. n2 must be
// a power of two; the required Galois keys are steps n2/2, n2/4, ..., 1.
func (ev *Evaluator) InnerSum(ct *Ciphertext, n2 int, gks *GaloisKeySet) (*Ciphertext, error) {
	out := &Ciphertext{}
	return fresh(out, ev.InnerSumInto(ct, n2, gks, out))
}

// InnerSumInto is InnerSum landing in out; out may alias ct. Each round
// is a RotateSum of two terms, x + rot(x, span), landing alternately in
// pooled scratch and in out so that the last lands in out.
func (ev *Evaluator) InnerSumInto(ct *Ciphertext, n2 int, gks *GaloisKeySet, out *Ciphertext) error {
	if n2 < 1 || n2&(n2-1) != 0 {
		return fmt.Errorf("ckks: InnerSum width %d must be a power of two", n2)
	}
	// Resolve every span key before writing anything: out may alias ct,
	// and a missing key discovered mid-accumulation would leave the
	// caller's ciphertext partially overwritten. An int n2 has fewer than
	// 64 halvings.
	var keys [64]*GaloisKey
	rounds := 0
	for span := n2 >> 1; span >= 1; span, rounds = span>>1, rounds+1 {
		var err error
		if keys[rounds], err = ev.rotationKeyFor(gks, span); err != nil {
			return err
		}
	}
	if rounds == 0 {
		return ev.CopyInto(ct, out)
	}
	c0 := ev.ctx.GetPolyNoZero(ct.Level + 1)
	c1 := ev.ctx.GetPolyNoZero(ct.Level + 1)
	defer ev.ctx.PutPoly(c0)
	defer ev.ctx.PutPoly(c1)
	tmp := &Ciphertext{Polys: []*ring.Poly{c0, c1}}
	cur := ct
	for r, key := range keys[:rounds] {
		dst := tmp
		if (rounds-r)%2 == 1 {
			dst = out
		}
		if err := ev.galoisInto(cur, key, true, dst); err != nil {
			return err
		}
		cur = dst
	}
	return nil
}

// CopyInto deep-copies ct into out's backing storage (a no-op when they
// already share components).
func (ev *Evaluator) CopyInto(ct, out *Ciphertext) error {
	if err := ev.prepareInto(out, ct.Degree(), ct.Level, ct.Scale); err != nil {
		return err
	}
	for i, p := range ct.Polys {
		copyRows(out.Polys[i], p, ct.Level+1)
	}
	return nil
}

// DropLevel truncates a ciphertext to the given level without scaling
// (useful to align operands before addition).
func (ev *Evaluator) DropLevel(ct *Ciphertext, level int) (*Ciphertext, error) {
	if level < 0 || level > ct.Level {
		return nil, fmt.Errorf("ckks: cannot drop from level %d to %d: %w", ct.Level, level, ErrLevelMismatch)
	}
	out := &Ciphertext{}
	return fresh(out, ev.CopyInto(AtLevel(ct, level), out))
}
