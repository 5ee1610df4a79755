package ckks

import "errors"

// Sentinel errors for the conditions an evaluator can refuse an
// operation on. Every error an Evaluator returns wraps exactly one of
// these, so callers branch with errors.Is instead of matching message
// strings; the public heax package re-exports them unchanged.
var (
	// ErrScaleMismatch: addition (ciphertext or plaintext) on operands
	// whose scales differ beyond floating-point noise — CKKS addition on
	// mismatched scales silently corrupts results (Section 3.3).
	ErrScaleMismatch = errors.New("scale mismatch")

	// ErrLevelMismatch: a level-shape violation — rescaling at level 0,
	// dropping to an out-of-range level, or an *Into output ciphertext
	// whose components cannot hold the result's level or share storage
	// with an operand the kernel must not overwrite.
	ErrLevelMismatch = errors.New("level mismatch")

	// ErrDegreeMismatch: an operand's ciphertext degree is not what the
	// operation requires (Mul and MulRelin need degree-1 inputs,
	// Relinearize a degree-2 input, rotations degree-1).
	ErrDegreeMismatch = errors.New("ciphertext degree mismatch")

	// ErrKeyMissing: the evaluation key the operation needs (relineari-
	// zation key, the Galois key for a rotation step, the conjugation
	// key) was not provided.
	ErrKeyMissing = errors.New("evaluation key missing")

	// ErrCorrupt: a serialized blob failed structural validation
	// (bad magic/version, out-of-range residues, implausible shapes).
	ErrCorrupt = errors.New("corrupt serialized object")
)
