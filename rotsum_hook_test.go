package heax

// RotateSumInto runs the kernel behind a plan's RotateSum step on e with
// its bound Galois keys: term t is Σ cts[i] ⊙ pts[i] over i in
// [ends[t−1], ends[t]), or the bare cts[i] when pts[i] is nil, rotated by
// steps[t].
func RotateSumInto(e *Evaluator, cts []*Ciphertext, pts []*Plaintext, ends, steps []int, out *Ciphertext) error {
	return e.inner.RotateSumInto(cts, pts, ends, steps, e.keys.Galois, out)
}
