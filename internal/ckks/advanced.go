package ckks

import (
	"fmt"
	"math"

	"heax/internal/ring"
)

// This file holds hoisted rotations (decompose once, rotate many — the
// optimization HEAX's shared-NTT-module design invites) and the noise
// and precision measurement utilities.

// HoistedDecomposition caches the expensive half of Algorithm 7 — the
// per-digit INTT and cross-modulus NTTs of c1 — so that many rotations of
// the same ciphertext pay it once (Halevi–Shoup hoisting). The Galois
// automorphism commutes with RNS decomposition (it is a signed
// coefficient permutation), so each rotation only permutes the cached
// digits in the NTT domain and runs the dyadic/flooring tail.
type HoistedDecomposition struct {
	level int
	// digits[i] has level+2 rows: rows 0..level are NTT_{p_j}([a]_{p_j}),
	// row level+1 is the special-prime row.
	digits []*ring.Poly
}

// RotateHoisted rotates one ciphertext by many steps, sharing a single
// decomposition across all of them. The result map is keyed by step.
func (ev *Evaluator) RotateHoisted(ct *Ciphertext, steps []int, gks *GaloisKeySet) (map[int]*Ciphertext, error) {
	outs := make([]*Ciphertext, len(steps))
	for i := range outs {
		outs[i] = &Ciphertext{}
	}
	if err := ev.RotateHoistedInto(ct, steps, gks, outs); err != nil {
		return nil, err
	}
	out := make(map[int]*Ciphertext, len(steps))
	for i, step := range steps {
		out[step] = outs[i]
	}
	return out, nil
}

// RotateHoistedInto rotates ct by each steps[i] into outs[i] through
// RotateHoistedKeysInto, each step resolved to its key as RotateLeftInto
// resolves one (normalized; a step of 0 copies ct). A missing key is
// refused before anything is written.
func (ev *Evaluator) RotateHoistedInto(ct *Ciphertext, steps []int, gks *GaloisKeySet, outs []*Ciphertext) error {
	keys := make([]*GaloisKey, len(steps))
	for i, step := range steps {
		key, err := ev.rotationKeyFor(gks, step)
		if err != nil {
			return err
		}
		keys[i] = key
	}
	return ev.RotateHoistedKeysInto(ct, keys, outs)
}

// RotateHoistedKeysInto applies the automorphism of each keys[i] and its
// key switch to ct into outs[i] (a nil key copies ct), sharing one
// decomposition across all of them, with the cached digits and every
// other intermediate drawn from pooled scratch — the multi-rotation
// execution path compiled plans batch same-source rotations onto, their
// keys bound at Compile. Outputs must be distinct and must not share
// storage with ct (every step reads ct after the first output is
// written); one that does is refused before anything is written.
func (ev *Evaluator) RotateHoistedKeysInto(ct *Ciphertext, keys []*GaloisKey, outs []*Ciphertext) error {
	if len(keys) != len(outs) {
		return fmt.Errorf("ckks: %d rotation keys for %d outputs", len(keys), len(outs))
	}
	if ct.Degree() != 1 {
		return fmt.Errorf("ckks: rotation requires a degree-1 ciphertext (got %d): %w", ct.Degree(), ErrDegreeMismatch)
	}
	for i, out := range outs {
		if out == nil {
			return fmt.Errorf("ckks: nil output ciphertext %d: %w", i, ErrLevelMismatch)
		}
		if overlaps(out, ct) {
			return fmt.Errorf("ckks: RotateHoistedInto output %d shares storage with the input: %w", i, ErrLevelMismatch)
		}
		for k := range outs[:i] {
			if overlaps(out, outs[k]) {
				return fmt.Errorf("ckks: RotateHoistedInto outputs %d and %d share storage: %w", k, i, ErrLevelMismatch)
			}
		}
	}
	ctx := ev.ctx
	level := ct.Level
	hd := &HoistedDecomposition{level: level, digits: make([]*ring.Poly, level+1)}
	// One deferred loop rather than a defer per digit, which would
	// allocate a defer record each.
	defer func() {
		for i := range hd.digits {
			ctx.PutPoly(hd.digits[i])
		}
	}()
	for i := range hd.digits {
		hd.digits[i] = ctx.GetPolyNoZero(level + 2) // decompose writes every row
	}
	ev.decompose(ct.Polys[1], hd, level)
	c0g := ctx.GetPolyNoZero(level + 1)
	defer ctx.PutPoly(c0g)
	for i, key := range keys {
		if key == nil {
			if err := ev.CopyInto(ct, outs[i]); err != nil {
				return err
			}
			continue
		}
		if err := ev.prepareInto(outs[i], 1, level, ct.Scale); err != nil {
			return err
		}
		auto := ctx.AutomorphismNTTTable(key.GaloisElt)
		ctx.AutomorphismNTT(ct.Polys[0], auto, c0g)
		ev.keySwitchAddInto(nil, hd, auto, &key.SwitchingKey, c0g, nil, nil, outs[i].Polys[0], outs[i].Polys[1])
	}
	return nil
}

// MeasureNoise returns log2 of the infinity norm of the decryption error
// ct − pt (in scaled units): the empirical noise a parameter designer
// compares against the modulus budget. Requires the true plaintext.
func MeasureNoise(params *Params, dec *Decryptor, ct *Ciphertext, pt *Plaintext) (float64, error) {
	got, err := dec.Decrypt(ct)
	if err != nil {
		return 0, err
	}
	ctx := params.RingQP
	rows := got.Value.Rows()
	diff := ctx.NewPoly(rows)
	ctx.Sub(got.Value, pt.Value.Resize(rows), diff)
	ctx.INTT(diff)
	norm := ctx.InfNormSigned(diff)
	if norm == 0 {
		return math.Inf(-1), nil
	}
	return math.Log2(norm), nil
}

// PrecisionStats summarizes slot-wise error between a decrypted result
// and its expected values — the noise-measurement utility a CKKS
// application uses to validate parameter choices.
type PrecisionStats struct {
	MaxErr  float64
	MeanErr float64
	// MinLogPrec is the worst-case -log2(err), i.e. bits of precision.
	MinLogPrec float64
}

// Precision compares decoded values against expectations.
func Precision(got, want []complex128) PrecisionStats {
	var stats PrecisionStats
	stats.MinLogPrec = math.Inf(1)
	var sum float64
	for i := range want {
		re := real(got[i]) - real(want[i])
		im := imag(got[i]) - imag(want[i])
		e := math.Hypot(re, im)
		sum += e
		if e > stats.MaxErr {
			stats.MaxErr = e
		}
	}
	stats.MeanErr = sum / float64(len(want))
	if stats.MaxErr > 0 {
		stats.MinLogPrec = -math.Log2(stats.MaxErr)
	}
	return stats
}
