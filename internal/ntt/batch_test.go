package ntt

import (
	"math/rand"
	"slices"
	"testing"

	"heax/internal/primes"
)

// The ForwardBatch shim must equal Forward row by row, on a prime the
// IFMA kernels take and on one only the scalar path can.
func TestBatchMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 4096
	for _, bitsize := range []int{49, 55} {
		ps, err := primes.NTTPrimes(bitsize, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := NewTables(ps[0], n)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]uint64, 3)
		want := make([][]uint64, len(rows))
		for r := range rows {
			rows[r] = make([]uint64, n)
			for j := range rows[r] {
				rows[r][j] = rng.Uint64() % tb.Mod.P
			}
			want[r] = slices.Clone(rows[r])
			tb.Forward(want[r])
		}
		tb.ForwardBatch(rows...)
		for r := range rows {
			if !slices.Equal(rows[r], want[r]) {
				t.Fatalf("bits=%d: ForwardBatch row %d differs from Forward", bitsize, r)
			}
		}
	}
}
