package ntt

// Forward and Inverse are the only transforms. A stage-major sweep that
// shared each stage's twiddles across several rows (the software copy of
// HEAX's shared twiddle BRAMs, Section 4.2) was tried and dropped: never
// reached on IFMA rows, 1.45-1.6x slower than the per-row transform on
// scalar ones (DESIGN.md, "Tried and dropped"). The two names below stay
// only because benchmark/layers.go, which a PR may not edit, calls them.

// BatchRows returns 1: rows are transformed one at a time.
func (t *Tables) BatchRows() int { return 1 }

// ForwardBatch calls Forward on each row.
func (t *Tables) ForwardBatch(rows ...[]uint64) {
	for _, a := range rows {
		t.Forward(a)
	}
}
