package heax

import (
	"fmt"

	"heax/internal/ckks"
)

// EvaluationKeySet bundles the evaluation keys an Evaluator is bound to
// at construction: the relinearization key and the Galois (rotation/
// conjugation) keys. Either field may be nil; operations that need a
// missing key fail with an error wrapping ErrKeyMissing.
type EvaluationKeySet struct {
	Relin  *RelinearizationKey
	Galois *GaloisKeySet
}

// GenEvaluationKeys derives a complete EvaluationKeySet from a secret
// key: the relinearization key plus Galois keys for the given rotation
// steps (and the conjugation key when conjugate is set).
func GenEvaluationKeys(kg *KeyGenerator, sk *SecretKey, steps []int, conjugate bool) *EvaluationKeySet {
	evk := &EvaluationKeySet{Relin: kg.GenRelinearizationKey(sk)}
	if len(steps) > 0 || conjugate {
		evk.Galois = kg.GenGaloisKeySet(sk, steps, conjugate)
	}
	return evk
}

// EvaluatorOption configures an Evaluator at construction.
type EvaluatorOption func(*Evaluator)

// WithWorkers caps the goroutines row-wise work fans out to for this
// evaluator's operations (defaults to GOMAXPROCS; 1 forces serial
// execution). The cap is scoped to this evaluator — it rides on a
// private view of the parameter set's ring context, so other
// evaluators built on the same Params keep their own caps.
func WithWorkers(n int) EvaluatorOption {
	return func(e *Evaluator) { e.inner.SetWorkers(n) }
}

// Evaluator runs the server-side homomorphic operations — exactly the
// set HEAX accelerates — against evaluation keys bound at construction.
// It is safe for concurrent use: precomputed state is read-only after
// construction and per-call state lives in pooled scratch.
type Evaluator struct {
	params *Params
	keys   *EvaluationKeySet
	inner  *ckks.Evaluator
}

// NewEvaluator builds an evaluator for params bound to evk. evk may be
// nil for an evaluator restricted to key-free operations (Add, Mul,
// MulPlain, Rescale, DropLevel).
func NewEvaluator(params *Params, evk *EvaluationKeySet, opts ...EvaluatorOption) *Evaluator {
	if evk == nil {
		evk = &EvaluationKeySet{}
	}
	e := &Evaluator{params: params, keys: evk, inner: ckks.NewEvaluator(params)}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Params returns the parameter set the evaluator is built on.
func (e *Evaluator) Params() *Params { return e.params }

// Keys returns the bound evaluation key set.
func (e *Evaluator) Keys() *EvaluationKeySet { return e.keys }

// Workers returns the evaluator's effective worker cap (GOMAXPROCS by
// default, or the WithWorkers value).
func (e *Evaluator) Workers() int { return e.inner.Workers() }

func (e *Evaluator) relin() (*RelinearizationKey, error) {
	if e.keys.Relin == nil {
		return nil, fmt.Errorf("heax: evaluator has no relinearization key bound: %w", ErrKeyMissing)
	}
	return e.keys.Relin, nil
}

// Add returns ct0 + ct1.
func (e *Evaluator) Add(ct0, ct1 *Ciphertext) (*Ciphertext, error) { return e.inner.Add(ct0, ct1) }

// Sub returns ct0 - ct1.
func (e *Evaluator) Sub(ct0, ct1 *Ciphertext) (*Ciphertext, error) { return e.inner.Sub(ct0, ct1) }

// AddPlain returns ct + pt.
func (e *Evaluator) AddPlain(ct *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	return e.inner.AddPlain(ct, pt)
}

// MulPlain returns ct ⊙ pt (the C-P mode of the HEAX MULT module).
func (e *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	return e.inner.MulPlain(ct, pt)
}

// Mul returns the degree-2 product of two degree-1 ciphertexts
// (Algorithm 5). Relinearize with Relinearize, or use MulRelin for the
// fused composite.
func (e *Evaluator) Mul(ct0, ct1 *Ciphertext) (*Ciphertext, error) { return e.inner.Mul(ct0, ct1) }

// Relinearize transforms a degree-2 ciphertext back to degree 1 using
// the bound relinearization key.
func (e *Evaluator) Relinearize(ct *Ciphertext) (*Ciphertext, error) {
	rlk, err := e.relin()
	if err != nil {
		return nil, err
	}
	return e.inner.Relinearize(ct, rlk)
}

// MulRelin is Mul followed by Relinearize — the paper's MULT+ReLin
// composite of Table 8 — fused end-to-end on pooled scratch.
func (e *Evaluator) MulRelin(ct0, ct1 *Ciphertext) (*Ciphertext, error) {
	rlk, err := e.relin()
	if err != nil {
		return nil, err
	}
	return e.inner.MulRelin(ct0, ct1, rlk)
}

// Rescale divides the ciphertext by its current last prime and drops one
// level (Algorithm 6 with rounding).
func (e *Evaluator) Rescale(ct *Ciphertext) (*Ciphertext, error) { return e.inner.Rescale(ct) }

// DropLevel truncates a ciphertext to the given level without scaling.
func (e *Evaluator) DropLevel(ct *Ciphertext, level int) (*Ciphertext, error) {
	return e.inner.DropLevel(ct, level)
}

// RotateLeft rotates message slots left by step positions using the
// bound Galois keys.
func (e *Evaluator) RotateLeft(ct *Ciphertext, step int) (*Ciphertext, error) {
	return e.inner.RotateLeft(ct, step, e.keys.Galois)
}

// RotateRight is RotateLeft with a negated step.
func (e *Evaluator) RotateRight(ct *Ciphertext, step int) (*Ciphertext, error) {
	return e.inner.RotateRight(ct, step, e.keys.Galois)
}

// ConjugateSlots applies complex conjugation to every slot.
func (e *Evaluator) ConjugateSlots(ct *Ciphertext) (*Ciphertext, error) {
	return e.inner.ConjugateSlots(ct, e.keys.Galois)
}

// InnerSum replaces every slot of ct with the sum of n2 consecutive
// slots, using log2(n2) rotations with the bound Galois keys.
func (e *Evaluator) InnerSum(ct *Ciphertext, n2 int) (*Ciphertext, error) {
	return e.inner.InnerSum(ct, n2, e.keys.Galois)
}

// SwitchKeys re-encrypts a degree-1 ciphertext under a different secret
// key. The switching key is an explicit argument — re-keying targets a
// key outside the bound evaluation set by definition.
func (e *Evaluator) SwitchKeys(ct *Ciphertext, swk *SwitchingKey) (*Ciphertext, error) {
	return e.inner.SwitchKeys(ct, swk)
}

// KeySwitchPoly runs Algorithm 7 — the computation the HEAX KeySwitch
// module implements — on a single NTT-form polynomial, returning the
// pair (c0', c1') with c0' + c1'·s ≈ c·s'. Exported so hardware-vs-
// software comparisons can target exactly this kernel.
func (e *Evaluator) KeySwitchPoly(c *Poly, swk *SwitchingKey) (*Poly, *Poly) {
	return e.inner.KeySwitchPoly(c, swk)
}

// In-place variants: results land in a caller-owned ciphertext (see
// NewCiphertext), and all intermediates come from pooled scratch, so a
// steady-state serving loop allocates nothing. Outputs may alias an
// input when the shapes already match.

// AddInto computes ct0 + ct1 into out.
func (e *Evaluator) AddInto(ct0, ct1, out *Ciphertext) error { return e.inner.AddInto(ct0, ct1, out) }

// SubInto computes ct0 - ct1 into out.
func (e *Evaluator) SubInto(ct0, ct1, out *Ciphertext) error { return e.inner.SubInto(ct0, ct1, out) }

// MulPlainInto computes ct ⊙ pt into out.
func (e *Evaluator) MulPlainInto(ct *Ciphertext, pt *Plaintext, out *Ciphertext) error {
	return e.inner.MulPlainInto(ct, pt, out)
}

// AddPlainInto computes ct + pt into out.
func (e *Evaluator) AddPlainInto(ct *Ciphertext, pt *Plaintext, out *Ciphertext) error {
	return e.inner.AddPlainInto(ct, pt, out)
}

// MulRelinInto computes the relinearized product of ct0 and ct1 into
// out using the bound relinearization key.
func (e *Evaluator) MulRelinInto(ct0, ct1, out *Ciphertext) error {
	rlk, err := e.relin()
	if err != nil {
		return err
	}
	return e.inner.MulRelinInto(ct0, ct1, rlk, out)
}

// RescaleInto rescales ct into out, dropping one level.
func (e *Evaluator) RescaleInto(ct, out *Ciphertext) error { return e.inner.RescaleInto(ct, out) }

// RotateInto rotates message slots left by step positions into out
// using the bound Galois keys.
func (e *Evaluator) RotateInto(ct *Ciphertext, step int, out *Ciphertext) error {
	return e.inner.RotateLeftInto(ct, step, e.keys.Galois, out)
}

// ConjugateSlotsInto applies complex conjugation to every slot, into
// out, using the bound conjugation key.
func (e *Evaluator) ConjugateSlotsInto(ct, out *Ciphertext) error {
	return e.inner.ConjugateSlotsInto(ct, e.keys.Galois, out)
}

// InnerSumInto replaces every slot of ct with the sum of n2 consecutive
// slots, into out, with the per-round rotations on pooled scratch.
func (e *Evaluator) InnerSumInto(ct *Ciphertext, n2 int, out *Ciphertext) error {
	return e.inner.InnerSumInto(ct, n2, e.keys.Galois, out)
}

// RotateHoisted rotates ct by every step in steps, paying the expensive
// decomposition half of the key switch once for the whole batch
// (Halevi–Shoup hoisting). The result map is keyed by step.
func (e *Evaluator) RotateHoisted(ct *Ciphertext, steps []int) (map[int]*Ciphertext, error) {
	return e.inner.RotateHoisted(ct, steps, e.keys.Galois)
}

// RotateHoistedInto is RotateHoisted landing in caller-owned outputs,
// outs[i] receiving the rotation by steps[i]. Outputs must be distinct
// and must not share storage with the input; one that does is refused
// with ErrLevelMismatch before anything is written.
func (e *Evaluator) RotateHoistedInto(ct *Ciphertext, steps []int, outs []*Ciphertext) error {
	return e.inner.RotateHoistedInto(ct, steps, e.keys.Galois, outs)
}
