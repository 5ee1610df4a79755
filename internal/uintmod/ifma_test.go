package uintmod

import (
	"math/bits"
	"math/rand"
	"testing"
)

// ifmaPrime is a 49-bit NTT-friendly-sized prime for kernel tests.
const ifmaPrime = uint64(1<<49) - 69

func TestShoupPrecomp52(t *testing.T) {
	p := ifmaPrime
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		y := rng.Uint64() % p
		x := rng.Uint64() % (4 * p)
		ys := ShoupPrecomp52(y, p)
		if ys>>52 != 0 && y != 0 {
			// y' = floor(y*2^52/p) < 2^52 since y < p
			t.Fatalf("ShoupPrecomp52(%d) = %d exceeds 52 bits", y, ys)
		}
		// Emulate the kernel arithmetic in scalar code.
		tq := mulHi52(x, ys)
		z := (mulLo52(x, y) - mulLo52(tq, p)) & ((1 << 52) - 1)
		if z >= 2*p {
			t.Fatalf("lazy product %d escaped [0, 2p)", z)
		}
		m := NewModulus(p)
		if m.Reduce(z) != m.MulMod(m.Reduce(x), y) {
			t.Fatalf("w52 Shoup product incongruent for x=%d y=%d", x, y)
		}
	}
}

func mulHi52(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi<<12 | lo>>52
}

func mulLo52(a, b uint64) uint64 { return (a * b) & ((1 << 52) - 1) }
