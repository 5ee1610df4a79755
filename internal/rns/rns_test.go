package rns

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"heax/internal/primes"
)

func testBasis(t testing.TB, bits, n, k int) *Basis {
	t.Helper()
	ps, err := primes.NTTPrimes(bits, n, k)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBasis(ps)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBasisErrors(t *testing.T) {
	if _, err := NewBasis(nil); err == nil {
		t.Error("empty basis should fail")
	}
	if _, err := NewBasis([]uint64{97, 97}); err == nil {
		t.Error("duplicate primes should fail")
	}
	if _, err := NewBasis([]uint64{1 << 63}); err == nil {
		t.Error("oversized prime should fail")
	}
	// 0x3030303030303030 = 0x30303030 · 0x100000001: no CRT inverse.
	if _, err := NewBasis([]uint64{0x30303030, 0x3030303030303030}); err == nil {
		t.Error("moduli sharing a factor should fail")
	}
}

func TestComposeDecomposeRoundTrip(t *testing.T) {
	b := testBasis(t, 40, 4096, 4)
	rng := rand.New(rand.NewSource(1))
	q := b.Q()
	for i := 0; i < 200; i++ {
		x := new(big.Int).Rand(rng, q)
		res := b.decompose(x)
		got := b.Compose(res)
		if got.Cmp(x) != 0 {
			t.Fatalf("roundtrip failed: %v != %v", got, x)
		}
	}
}

func TestComposeCentered(t *testing.T) {
	b := testBasis(t, 30, 64, 3)
	for _, x := range []int64{0, 1, -1, 12345, -12345, 1 << 40, -(1 << 40)} {
		res := b.decomposeSigned(big.NewInt(x))
		got := b.ComposeCentered(res)
		if got.Int64() != x {
			t.Fatalf("centered compose of %d = %v", x, got)
		}
	}
}

// CRT ring homomorphism: compose(a)*compose(b) mod q == compose(a .* b).
func TestQuickCRTHomomorphism(t *testing.T) {
	b := testBasis(t, 40, 4096, 3)
	q := b.Q()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := new(big.Int).Rand(rng, q)
		y := new(big.Int).Rand(rng, q)
		rx, ry := b.decompose(x), b.decompose(y)
		prod := make([]uint64, b.K())
		for i := range prod {
			prod[i] = b.Mods[i].MulMod(rx[i], ry[i])
		}
		want := new(big.Int).Mul(x, y)
		want.Mod(want, q)
		return b.Compose(prod).Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSubBasisAndLevels(t *testing.T) {
	b := testBasis(t, 40, 4096, 4)
	sub, err := b.Sub(2)
	if err != nil {
		t.Fatal(err)
	}
	if sub.K() != 2 {
		t.Fatalf("sub basis has %d primes", sub.K())
	}
	if sub.Q().Cmp(b.QAtLevel(1)) != 0 {
		t.Fatal("QAtLevel(1) != Sub(2).Q()")
	}
	if _, err := b.Sub(0); err == nil {
		t.Error("Sub(0) should fail")
	}
	if _, err := b.Sub(5); err == nil {
		t.Error("Sub(5) should fail")
	}
}

// Gadget identity (Section 3.4): a = <g, g^{-1}(a)> mod q_level where
// g^{-1}(a) = ([a]_{p_0}, ..., [a]_{p_level}).
func TestGadgetIdentity(t *testing.T) {
	b := testBasis(t, 40, 4096, 4)
	for level := 0; level < 4; level++ {
		g := b.gadgetVector(level)
		q := b.QAtLevel(level)
		rng := rand.New(rand.NewSource(int64(level)))
		for rep := 0; rep < 20; rep++ {
			a := new(big.Int).Rand(rng, q)
			acc := new(big.Int)
			for i := 0; i <= level; i++ {
				digit := new(big.Int).Mod(a, new(big.Int).SetUint64(b.Primes[i]))
				acc.Add(acc, digit.Mul(digit, g[i]))
			}
			acc.Mod(acc, q)
			if acc.Cmp(a) != 0 {
				t.Fatalf("level %d: gadget identity failed", level)
			}
		}
	}
}

func BenchmarkCompose8(b *testing.B) {
	ba := testBasis(b, 48, 16384, 8)
	rng := rand.New(rand.NewSource(2))
	x := new(big.Int).Rand(rng, ba.Q())
	res := ba.decompose(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ba.Compose(res)
	}
}

// decompose maps a non-negative big integer to its residues.
func (b *Basis) decompose(x *big.Int) []uint64 {
	out := make([]uint64, len(b.Primes))
	tmp := new(big.Int)
	for i, p := range b.Primes {
		out[i] = tmp.Mod(x, new(big.Int).SetUint64(p)).Uint64()
	}
	return out
}

// decomposeSigned maps a possibly negative big integer to residues of its
// value mod q.
func (b *Basis) decomposeSigned(x *big.Int) []uint64 {
	if x.Sign() >= 0 {
		return b.decompose(x)
	}
	t := new(big.Int).Mod(x, b.q) // Go's Mod is Euclidean: result in [0, q)
	return b.decompose(t)
}

// gadgetVector returns the RNS gadget vector of Section 3.4 for the first
// (level+1) primes: g_i = π_i · [π_i^{-1}]_{p_i} over q_level, as big
// integers, for checking the gadget identity a = <g, g^{-1}(a)>
// (mod q_level).
func (b *Basis) gadgetVector(level int) []*big.Int {
	q := b.QAtLevel(level)
	out := make([]*big.Int, level+1)
	for i := 0; i <= level; i++ {
		pi := new(big.Int).Div(q, new(big.Int).SetUint64(b.Primes[i]))
		rem := new(big.Int).Mod(pi, new(big.Int).SetUint64(b.Primes[i])).Uint64()
		inv := b.Mods[i].InvMod(rem)
		g := new(big.Int).Mul(pi, new(big.Int).SetUint64(inv))
		out[i] = g.Mod(g, q)
	}
	return out
}
