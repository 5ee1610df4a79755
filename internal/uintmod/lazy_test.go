package uintmod

import (
	"math/rand"
	"testing"
)

func TestLazyReduceHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10000; i++ {
		p := rng.Uint64()>>3 | 3 // < 2^61, odd
		x := rng.Uint64() % (4 * p)
		m := NewModulus(p)
		if got := LazyReduce(x, p, 2*p); got != m.Reduce(x) {
			t.Fatalf("LazyReduce(%d) mod %d = %d, want %d", x, p, got, m.Reduce(x))
		}
	}
}

func FuzzMulRedLazy(f *testing.F) {
	f.Add(uint64(12345), uint64(678), uint64(1)<<40+9)
	f.Add(^uint64(0), uint64(1), uint64(1)<<61+85)
	f.Fuzz(func(t *testing.T, x, yRaw, pRaw uint64) {
		p := (pRaw >> 2) | 3 // odd, in [3, 2^62)
		y := yRaw % p
		ys := ShoupPrecomp(y, p)
		m := NewModulus(p)
		z := MulRedLazy(x, y, ys, p)
		if z >= 2*p {
			t.Fatalf("MulRedLazy(%d, %d) mod %d = %d escaped [0, 2p)", x, y, p, z)
		}
		if m.Reduce(z) != m.MulMod(m.Reduce(x), y) {
			t.Fatalf("MulRedLazy(%d, %d) mod %d incongruent", x, y, p)
		}
		// The strict variant must agree and be fully reduced for the same
		// (unreduced) x.
		zs := MulRed(x, y, ys, p)
		if zs >= p || zs != m.Reduce(z) {
			t.Fatalf("MulRed(%d, %d) mod %d = %d disagrees with lazy %d", x, y, p, zs, z)
		}
	})
}

// FuzzReduceWide pits the single-correction Barrett reduction against
// big-integer-free reference arithmetic across the full 128-bit range.
func FuzzReduceWide(f *testing.F) {
	f.Add(^uint64(0), ^uint64(0), ^uint64(0))
	f.Add(uint64(0), uint64(5), uint64(97))
	f.Fuzz(func(t *testing.T, hi, lo, pRaw uint64) {
		p := (pRaw >> 2) | 3
		m := NewModulus(p)
		got := m.ReduceWide(hi, lo)
		if got >= p {
			t.Fatalf("ReduceWide(%d, %d) mod %d = %d not reduced", hi, lo, p, got)
		}
		// Reference: reduce hi*2^64 + lo by splitting hi*2^64 into
		// (hi mod p) * (2^64 mod p).
		r64 := m.Reduce(^uint64(0)) // 2^64 - 1 mod p
		r64 = AddMod(r64, 1%p, p)   // 2^64 mod p
		want := AddMod(m.MulMod(m.Reduce(hi), r64), m.Reduce(lo), p)
		if got != want {
			t.Fatalf("ReduceWide(%d, %d) mod %d = %d, want %d", hi, lo, p, got, want)
		}
	})
}
