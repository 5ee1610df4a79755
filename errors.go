package heax

import (
	"errors"

	"heax/internal/ckks"
)

// Sentinel errors. Every error the evaluation and serialization APIs
// return wraps exactly one of these; branch with errors.Is rather than
// matching message strings.
var (
	// ErrScaleMismatch: addition on operands whose scales differ beyond
	// floating-point noise (CKKS addition on mismatched scales silently
	// corrupts results).
	ErrScaleMismatch = ckks.ErrScaleMismatch
	// ErrLevelMismatch: a level-shape violation — rescaling at level 0,
	// dropping to an out-of-range level, or an *Into output whose
	// components cannot hold the result's level or share storage with an
	// operand the operation must not overwrite.
	ErrLevelMismatch = ckks.ErrLevelMismatch
	// ErrDegreeMismatch: an operand's ciphertext degree is not what the
	// operation requires.
	ErrDegreeMismatch = ckks.ErrDegreeMismatch
	// ErrKeyMissing: the bound EvaluationKeySet lacks the key the
	// operation needs (relinearization key, Galois key for a step, or
	// conjugation key).
	ErrKeyMissing = ckks.ErrKeyMissing
	// ErrCorrupt: a serialized blob failed structural validation.
	ErrCorrupt = ckks.ErrCorrupt
	// ErrInternal: an invariant the library owns was violated — most
	// notably a kernel panic recovered by the plan executor. The
	// operation that hit it fails with this typed error; concurrent
	// runs and the process keep going (crash-only serving depends on a
	// panic poisoning one request, not the daemon).
	ErrInternal = errors.New("heax: internal error")
	// ErrUnencodable: a nonzero plaintext payload (MulConst, AddConst,
	// MulPlain, ...) whose every coefficient rounds to zero at the scale
	// inference assigned — e.g. a constant below the ladder scale's
	// precision. Encoding it would silently turn the operation into
	// ⊙0 / +0, so Compile rejects the circuit instead.
	ErrUnencodable = errors.New("heax: plaintext payload not representable at the assigned scale")
	// ErrInvalidCircuit: the circuit handed to Compile is structurally
	// unusable — a misused builder call (a Node of another circuit, an
	// empty name, a bad width or Bound), no outputs, or a payload shape
	// the parameters cannot encode (a periodic payload that does not
	// divide the slot count, more plaintext values than slots).
	ErrInvalidCircuit = errors.New("heax: invalid circuit")
	// ErrUnknownOutput: the requested output name is not one the plan
	// (or run result) defines.
	ErrUnknownOutput = errors.New("heax: unknown output")
	// ErrInputMissing: a Run call did not bind every input the compiled
	// circuit declares.
	ErrInputMissing = errors.New("heax: plan input missing")
	// ErrDependency marks a plan step that never ran because the step
	// producing one of its inputs failed; the cause is joined into the
	// error chain, so errors.Is also matches the root sentinel.
	ErrDependency = errors.New("dependent operation failed")
)
