package heax

import "heax/internal/ckks"

// ChainStage is one single-use step a plan fuses after a step's own
// operation (fuseChains): a multiplication by a constant, a plaintext
// addition, or a rescale with no plaintext.
type ChainStage = ckks.Stage

// The kinds of ChainStage.
const (
	ChainMulPlain = ckks.StageMulPlain
	ChainAddPlain = ckks.StageAddPlain
	ChainRescale  = ckks.StageRescale
)

// MulRelinChainInto and RescaleChainInto run the kernels behind a plan's
// fused chains on e: after a relinearized product, and from a plain value.
func MulRelinChainInto(e *Evaluator, ct0, ct1 *Ciphertext, stages []ChainStage, out *Ciphertext) error {
	return e.inner.MulRelinChainInto(ct0, ct1, e.keys.Relin, stages, out)
}

func RescaleChainInto(e *Evaluator, ct *Ciphertext, stages []ChainStage, out *Ciphertext) error {
	return e.inner.RescaleChainInto(ct, stages, out)
}

// RotateSumChainInto is RotateSumInto followed by stages.
func RotateSumChainInto(e *Evaluator, cts []*Ciphertext, pts []*Plaintext, ends []int, keys []*GaloisKey, stages []ChainStage, out *Ciphertext) error {
	return e.inner.RotateSumChainInto(cts, pts, ends, keys, stages, out)
}
