package ntt

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"heax/internal/primes"
	"heax/internal/uintmod"
)

// newTestTables builds tables for a fresh NTT prime of the given size.
func newTestTables(t testing.TB, bitSize, n int) *Tables {
	t.Helper()
	ps, err := primes.NTTPrimes(bitSize, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewTables(ps[0], n)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func randomPoly(rng *rand.Rand, n int, p uint64) []uint64 {
	a := make([]uint64, n)
	for i := range a {
		a[i] = rng.Uint64() % p
	}
	return a
}

func TestNewTablesErrors(t *testing.T) {
	if _, err := NewTables(97, 100); err == nil {
		t.Error("non-power-of-two n should fail")
	}
	if _, err := NewTables(97, 4096); err == nil {
		t.Error("p not 1 mod 2n should fail")
	}
}

func TestBitrevPermuteInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomPoly(rng, 64, 1<<30)
	b := append([]uint64(nil), a...)
	bitrevPermute(b)
	bitrevPermute(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("bitrev permute is not an involution")
		}
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{4, 16, 256, 4096} {
		tb := newTestTables(t, 30, n)
		a := randomPoly(rng, n, tb.Mod.P)
		got := append([]uint64(nil), a...)
		tb.Forward(got)
		tb.Inverse(got)
		for i := range a {
			if got[i] != a[i] {
				t.Fatalf("n=%d: INTT(NTT(a)) != a at %d: %d != %d", n, i, got[i], a[i])
			}
		}
	}
}

func TestRoundTripLargeModuli(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, bits := range []int{36, 44, 52, 60} {
		n := 1 << 12
		tb := newTestTables(t, bits, n)
		a := randomPoly(rng, n, tb.Mod.P)
		got := append([]uint64(nil), a...)
		tb.Forward(got)
		tb.Inverse(got)
		for i := range a {
			if got[i] != a[i] {
				t.Fatalf("bits=%d: roundtrip mismatch at %d", bits, i)
			}
		}
	}
}

// The transform must turn negacyclic convolution into dyadic products.
func TestConvolutionTheorem(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{8, 64, 256} {
		tb := newTestTables(t, 30, n)
		p := tb.Mod.P
		a := randomPoly(rng, n, p)
		b := randomPoly(rng, n, p)
		want := negacyclicConvolution(a, b, p)

		ah := append([]uint64(nil), a...)
		bh := append([]uint64(nil), b...)
		tb.Forward(ah)
		tb.Forward(bh)
		ch := make([]uint64, n)
		for i := range ch {
			ch[i] = tb.Mod.MulMod(ah[i], bh[i])
		}
		tb.Inverse(ch)
		for i := range want {
			if ch[i] != want[i] {
				t.Fatalf("n=%d: convolution mismatch at %d: %d != %d", n, i, ch[i], want[i])
			}
		}
	}
}

// Forward must evaluate the polynomial at odd powers of psi: the NTT of
// the monomial X is the vector of psi^{2i+1} values (in bit-reversed
// positions), and the NTT of a constant is that constant everywhere.
func TestForwardEvaluatesAtOddRoots(t *testing.T) {
	n := 16
	tb := newTestTables(t, 30, n)
	p := tb.Mod.P

	constant := make([]uint64, n)
	constant[0] = 7
	tb.Forward(constant)
	for i, v := range constant {
		if v != 7 {
			t.Fatalf("NTT(const)[%d] = %d, want 7", i, v)
		}
	}

	x := make([]uint64, n)
	x[1] = 1
	tb.Forward(x)
	// x[j] must equal psi^{2*bitrev(j)+1}.
	seen := map[uint64]bool{}
	for _, v := range x {
		seen[v] = true
	}
	m := uintmod.NewModulus(p)
	for i := 0; i < n; i++ {
		want := m.PowMod(tb.Psi, uint64(2*i+1))
		if !seen[want] {
			t.Fatalf("psi^{%d} missing from NTT(X)", 2*i+1)
		}
	}
}

// Linearity: NTT(a + c*b) = NTT(a) + c*NTT(b).
func TestQuickLinearity(t *testing.T) {
	n := 64
	tb := newTestTables(t, 30, n)
	p := tb.Mod.P
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64, cRaw uint64) bool {
		r := rand.New(rand.NewSource(seed))
		c := cRaw % p
		cs := uintmod.ShoupPrecomp(c, p)
		a := randomPoly(r, n, p)
		b := randomPoly(r, n, p)
		lhs := make([]uint64, n)
		for i := range lhs {
			lhs[i] = uintmod.AddMod(a[i], uintmod.MulRed(b[i], c, cs, p), p)
		}
		tb.Forward(lhs)
		tb.Forward(a)
		tb.Forward(b)
		for i := range lhs {
			want := uintmod.AddMod(a[i], uintmod.MulRed(b[i], c, cs, p), p)
			if lhs[i] != want {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Negacyclic shift property: multiplying by X rotates coefficients with a
// sign flip at the wrap, i.e. NTT-domain multiply by NTT(X) equals shift.
func TestShiftProperty(t *testing.T) {
	n := 32
	tb := newTestTables(t, 30, n)
	p := tb.Mod.P
	rng := rand.New(rand.NewSource(6))
	a := randomPoly(rng, n, p)

	want := make([]uint64, n)
	want[0] = uintmod.NegMod(a[n-1], p)
	copy(want[1:], a[:n-1])

	x := make([]uint64, n)
	x[1] = 1
	ah := append([]uint64(nil), a...)
	tb.Forward(ah)
	tb.Forward(x)
	for i := range ah {
		ah[i] = tb.Mod.MulMod(ah[i], x[i])
	}
	tb.Inverse(ah)
	for i := range want {
		if ah[i] != want[i] {
			t.Fatalf("shift mismatch at %d", i)
		}
	}
}

func TestTwiddleAccessors(t *testing.T) {
	n := 16
	tb := newTestTables(t, 40, n) // < 2^52, so w54 tables exist
	for i := 0; i < n; i++ {
		w, s64, s54 := tb.ForwardTwiddle(i)
		if s64 != uintmod.ShoupPrecomp(w, tb.Mod.P) {
			t.Fatalf("forward shoup64 mismatch at %d", i)
		}
		if s54 != uintmod.ShoupPrecomp54(w, tb.Mod.P) {
			t.Fatalf("forward shoup54 mismatch at %d", i)
		}
		wi, si64, si54 := tb.InverseTwiddle(i)
		if si64 != uintmod.ShoupPrecomp(wi, tb.Mod.P) {
			t.Fatalf("inverse shoup64 mismatch at %d", i)
		}
		if si54 != uintmod.ShoupPrecomp54(wi, tb.Mod.P) {
			t.Fatalf("inverse shoup54 mismatch at %d", i)
		}
	}
	big := newTestTables(t, 60, n) // > 2^52: w54 precomp must be absent (0)
	_, _, s54 := big.ForwardTwiddle(1)
	if s54 != 0 {
		t.Fatal("expected no w54 precomputation for 60-bit modulus")
	}
}

// benchShapes are Table 2's three (prime width, ring degree) pairs — the
// rows every workload transforms, all on the IFMA kernels where the CPU
// has them — and one 52-bit lane, which only the scalar lazy stages take.
var benchShapes = []struct {
	name    string
	bits, n int
}{
	{"SetA_36bit_4096", 36, 1 << 12},
	{"SetB_43bit_8192", 43, 1 << 13},
	{"SetC_49bit_16384", 49, 1 << 14},
	{"Scalar_52bit_16384", 52, 1 << 14},
}

func BenchmarkForward(b *testing.B) { benchTransform(b, (*Tables).Forward) }
func BenchmarkInverse(b *testing.B) { benchTransform(b, (*Tables).Inverse) }

func benchTransform(b *testing.B, transform func(*Tables, []uint64)) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			tb := newTestTables(b, sh.bits, sh.n)
			a := randomPoly(rand.New(rand.NewSource(7)), sh.n, tb.Mod.P)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				transform(tb, a)
			}
		})
	}
}

// bitrevPermute permutes a in place by bit reversal of indices. The
// transforms themselves never need this: bit-reversed order cancels
// between NTT and INTT.
func bitrevPermute(a []uint64) {
	n := len(a)
	logn := bits.Len(uint(n)) - 1
	for i := 0; i < n; i++ {
		j := int(bitrev(uint(i), logn))
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
}

// negacyclicConvolution computes c = a·b in Z_p[X]/(X^n+1) by the O(n^2)
// schoolbook formula from Section 3.1, an oracle independent of the
// transforms.
func negacyclicConvolution(a, b []uint64, p uint64) []uint64 {
	n := len(a)
	m := uintmod.NewModulus(p)
	c := make([]uint64, n)
	for j := 0; j < n; j++ {
		var acc uint64
		for i := 0; i <= j; i++ {
			acc = uintmod.AddMod(acc, m.MulMod(a[i], b[j-i]), p)
		}
		for i := j + 1; i < n; i++ {
			acc = uintmod.SubMod(acc, m.MulMod(a[i], b[j-i+n]), p)
		}
		c[j] = acc
	}
	return c
}
