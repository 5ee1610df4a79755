package ckks

// A chain is a producer — a relinearized product, a sum of rotations, or
// a ciphertext as it is — followed by single-use stages that end in a
// Rescale: multiplications by constants, additions of plaintexts and
// further rescales. Run one at a time, each division by a prime ends in
// its own flooring tail (HEAX's MS stage, Algorithm 6), which transforms
// every kept row forward once; a compiled circuit runs two or three back
// to back on values no other step reads — a key switch's division by P, a
// lift, a Rescale, a constant, another Rescale. The *ChainInto kernels
// hand the whole run to one ring.FloorChain, which lifts each dropped row
// once, as the steps would, and transforms every kept row once, and is
// bit for bit the producer's *Into kernel followed by MulPlainInto,
// AddPlainInto and RescaleInto stage by stage: every stage is linear
// modulo each prime once the lifts are fixed.

import (
	"fmt"

	"heax/internal/ring"
)

// StageKind names what a Stage does.
type StageKind uint8

const (
	// StageMulPlain multiplies by a plaintext holding one value per row
	// (a constant, as EncodeConst encodes one), as MulPlainInto does.
	StageMulPlain StageKind = iota
	// StageAddPlain adds a plaintext, as AddPlainInto does.
	StageAddPlain
	// StageRescale divides by the last prime, as RescaleInto does.
	StageRescale
)

// Stage is one operation of a chain after its producer; Pt is nil for a
// rescale.
type Stage struct {
	Kind StageKind
	Pt   *Plaintext
}

// chainResult checks stages on a value at level and scale as the stages'
// own kernels would, one after another, and returns the level and scale
// the last leaves, computed as they compute them. A chain ends in a
// rescale and cannot drop a row otherwise, so each plaintext must reach
// its operand's level.
func (ev *Evaluator) chainResult(level int, scale float64, stages []Stage) (int, float64, error) {
	if len(stages) == 0 || stages[len(stages)-1].Kind != StageRescale {
		return 0, 0, fmt.Errorf("ckks: a chain of %d stages does not end in a rescale", len(stages))
	}
	for _, st := range stages {
		switch st.Kind {
		case StageMulPlain, StageAddPlain:
			if st.Pt == nil || st.Pt.Level() < level {
				return 0, 0, fmt.Errorf("ckks: a chain's plaintext does not reach its operand's level %d: %w", level, ErrLevelMismatch)
			}
			if st.Kind == StageMulPlain {
				scale *= st.Pt.Scale
			} else if !scalesClose(scale, st.Pt.Scale) {
				return 0, 0, fmt.Errorf("ckks: cannot add plaintext scale %g to ciphertext scale %g: %w", st.Pt.Scale, scale, ErrScaleMismatch)
			}
		case StageRescale:
			if level == 0 {
				return 0, 0, fmt.Errorf("ckks: cannot rescale below level 0: %w", ErrLevelMismatch)
			}
			scale /= float64(ev.params.Q[level])
			level--
		default:
			return 0, 0, fmt.Errorf("ckks: unknown chain stage %d", st.Kind)
		}
	}
	return level, scale, nil
}

// pushStages appends stages to ch, whose value is at level.
func pushStages(ch *ring.FloorChain, level int, stages []Stage) {
	for _, st := range stages {
		switch st.Kind {
		case StageMulPlain:
			ch.Mul(st.Pt.Value)
		case StageAddPlain:
			ch.Add(st.Pt.Value, nil)
		case StageRescale:
			ch.Floor(level, true)
			level--
		}
	}
}

// RescaleChainInto runs stages on the degree-1 ct into out: a chain with
// no producer, bit for bit MulPlainInto, AddPlainInto and RescaleInto one
// stage at a time. out must not share storage with ct.
func (ev *Evaluator) RescaleChainInto(ct *Ciphertext, stages []Stage, out *Ciphertext) error {
	if ct.Degree() != 1 {
		return fmt.Errorf("ckks: a chain runs on a degree-1 ciphertext (got %d): %w", ct.Degree(), ErrDegreeMismatch)
	}
	if overlaps(out, ct) {
		return fmt.Errorf("ckks: chain output shares storage with its operand: %w", ErrLevelMismatch)
	}
	level, scale, err := ev.chainResult(ct.Level, ct.Scale, stages)
	if err != nil {
		return err
	}
	if err := ev.prepareInto(out, 1, level, scale); err != nil {
		return err
	}
	ch := ev.ctx.FloorChain()
	ch.Add(ct.Polys[0], ct.Polys[1])
	pushStages(ch, ct.Level, stages)
	ch.Close(out.Polys[0], out.Polys[1])
	return nil
}

// MulRelinChainInto is MulRelinInto followed by stages, closed with the
// key switch's floor; with no stages it is MulRelinInto. out must not
// share storage with an operand.
func (ev *Evaluator) MulRelinChainInto(ct0, ct1 *Ciphertext, rlk *RelinearizationKey, stages []Stage, out *Ciphertext) error {
	if overlaps(out, ct0) || overlaps(out, ct1) {
		return fmt.Errorf("ckks: chain output shares storage with an operand: %w", ErrLevelMismatch)
	}
	return ev.mulRelinInto(ct0, ct1, rlk, stages, out)
}
