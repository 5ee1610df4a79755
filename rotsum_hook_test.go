package heax

// RotateSumInto runs the kernel behind a plan's RotateSum step on e: term
// t is Σ cts[i] ⊙ pts[i] over i in [ends[t−1], ends[t]), or the bare
// cts[i] when pts[i] is nil, under the automorphism of keys[t] (nil:
// none).
func RotateSumInto(e *Evaluator, cts []*Ciphertext, pts []*Plaintext, ends []int, keys []*GaloisKey, out *Ciphertext) error {
	return e.inner.RotateSumInto(cts, pts, ends, keys, out)
}
