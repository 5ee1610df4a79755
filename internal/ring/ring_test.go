package ring

import (
	"fmt"
	"math/big"
	"strings"
	"testing"

	"heax/internal/primes"
)

func testContext(t testing.TB, n, k, bits int) *Context {
	t.Helper()
	ps, err := primes.NTTPrimes(bits, n, k)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(n, ps)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func TestNewContextErrors(t *testing.T) {
	if _, err := NewContext(100, []uint64{97}); err == nil {
		t.Error("non-power-of-two n should fail")
	}
	if _, err := NewContext(64, []uint64{97}); err == nil {
		t.Error("prime not 1 mod 2n should fail")
	}
	if _, err := NewContext(64, nil); err == nil {
		t.Error("empty basis should fail")
	}
}

func TestPolyLifecycle(t *testing.T) {
	ctx := testContext(t, 64, 3, 30)
	p := ctx.NewPoly(3)
	if p.Rows() != 3 || p.Level() != 2 {
		t.Fatalf("rows=%d level=%d", p.Rows(), p.Level())
	}
	setCoeffInt64(ctx, p, 5, -7)
	q := CopyOf(p)
	if !p.Equal(q) {
		t.Fatal("copy not equal")
	}
	q.Coeffs[0][5] = 1
	if p.Equal(q) {
		t.Fatal("mutating copy affected original")
	}
	v := p.Resize(2)
	if v.Rows() != 2 {
		t.Fatal("resize failed")
	}
	if &v.Coeffs[0][0] != &p.Coeffs[0][0] {
		t.Fatal("resize should share storage")
	}
}

func TestAddSubNeg(t *testing.T) {
	ctx := testContext(t, 64, 2, 30)
	s := NewSampler(ctx, 1)
	a, b := uniform(s, 2), uniform(s, 2)
	sum := ctx.NewPoly(2)
	ctx.Add(a, b, sum)
	diff := ctx.NewPoly(2)
	ctx.Sub(sum, b, diff)
	if !diff.Equal(a) {
		t.Fatal("(a+b)-b != a")
	}
	neg := ctx.NewPoly(2)
	ctx.Neg(a, neg)
	zero := ctx.NewPoly(2)
	ctx.Add(a, neg, zero)
	for i := range zero.Coeffs {
		for _, v := range zero.Coeffs[i] {
			if v != 0 {
				t.Fatal("a + (-a) != 0")
			}
		}
	}
}

// NTT-domain dyadic product must equal the negacyclic product of the
// underlying integer polynomials, checked through CRT composition.
func TestMulCoeffsMatchesBigPoly(t *testing.T) {
	n := 16
	ctx := testContext(t, n, 3, 30)
	s := NewSampler(ctx, 2)
	a, b := uniform(s, 3), uniform(s, 3)

	// Reference: big-int negacyclic convolution mod q.
	q := ctx.Basis.Q()
	abig := composeAll(ctx, a)
	bbig := composeAll(ctx, b)
	want := make([]*big.Int, n)
	for j := range want {
		want[j] = new(big.Int)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			t := new(big.Int).Mul(abig[i], bbig[j])
			if i+j < n {
				want[i+j].Add(want[i+j], t)
			} else {
				want[i+j-n].Sub(want[i+j-n], t)
			}
		}
	}
	for j := range want {
		want[j].Mod(want[j], q)
	}

	ctx.NTT(a)
	ctx.NTT(b)
	prod := ctx.NewPoly(3)
	ctx.MulCoeffs(a, b, prod)
	ctx.INTT(prod)
	got := composeAll(ctx, prod)
	for j := range want {
		if got[j].Cmp(want[j]) != 0 {
			t.Fatalf("coefficient %d: got %v want %v", j, got[j], want[j])
		}
	}
}

// composeAll composes every coefficient of p from its residues over the
// first p.Rows() primes, in [0, q), by the CRT formula of Section 2 in
// math/big: x = Σ r_i · π_i · [π_i^{-1}]_{p_i} (mod q).
func composeAll(ctx *Context, p *Poly) []*big.Int {
	q := ctx.Basis.QAtLevel(p.Rows() - 1)
	punc := make([]*big.Int, p.Rows())
	inv := make([]uint64, p.Rows())
	for i := range punc {
		pi := new(big.Int).SetUint64(ctx.Basis.Primes[i])
		punc[i] = new(big.Int).Div(q, pi)
		inv[i] = ctx.Basis.Mods[i].InvMod(new(big.Int).Mod(punc[i], pi).Uint64())
	}
	out := make([]*big.Int, ctx.N)
	term := new(big.Int)
	for j := range out {
		acc := new(big.Int)
		for i, row := range p.Coeffs {
			term.SetUint64(ctx.Basis.Mods[i].MulMod(row[j], inv[i]))
			acc.Add(acc, term.Mul(term, punc[i]))
		}
		out[j] = acc.Mod(acc, q)
	}
	return out
}

func TestAutomorphismCoeffDomain(t *testing.T) {
	n := 16
	ctx := testContext(t, n, 1, 30)
	p := ctx.Basis.Primes[0]
	a := ctx.NewPoly(1)
	// a = X
	a.Coeffs[0][1] = 1
	out := ctx.NewPoly(1)
	// X -> X^3: expect coefficient 1 at position 3.
	automorphismCoeff(ctx, a, 3, out)
	if out.Coeffs[0][3] != 1 {
		t.Fatal("X under g=3 should be X^3")
	}
	// a = X^(n-1); X^{(n-1)*3} = X^{3n-3} = X^{2n + (n-3)} = +X^{n-3}
	// since X^{2n} = 1 and X^n = -1: 3n-3 = 2n + (n-3) -> sign +.
	b := ctx.NewPoly(1)
	b.Coeffs[0][n-1] = 1
	automorphismCoeff(ctx, b, 3, out)
	if out.Coeffs[0][n-3] != 1 {
		t.Fatalf("X^{n-1} under g=3: got row %v", out.Coeffs[0])
	}
	// Composition: applying g then its inverse is identity.
	s := NewSampler(ctx, 5)
	r := uniform(s, 1)
	tmp := ctx.NewPoly(1)
	automorphismCoeff(ctx, r, 5, tmp)
	// inverse of 5 mod 2n
	gInv := new(big.Int).ModInverse(big.NewInt(5), big.NewInt(int64(2*n))).Uint64()
	back := ctx.NewPoly(1)
	automorphismCoeff(ctx, tmp, gInv, back)
	if !back.Equal(r) {
		t.Fatal("automorphism inverse failed")
	}
	_ = p
}

// The NTT-domain permutation must agree with INTT -> automorphism -> NTT.
func TestAutomorphismNTTMatchesCoeffDomain(t *testing.T) {
	n := 64
	ctx := testContext(t, n, 2, 30)
	s := NewSampler(ctx, 6)
	for _, g := range []uint64{3, 5, 25, GaloisElement(1, n), GaloisElement(3, n), GaloisConjugate(n)} {
		a := uniform(s, 2)

		viaCoeff := CopyOf(a)
		out1 := ctx.NewPoly(2)
		automorphismCoeff(ctx, viaCoeff, g, out1)
		ctx.NTT(out1)

		viaNTT := CopyOf(a)
		ctx.NTT(viaNTT)
		out2 := ctx.NewPoly(2)
		ctx.AutomorphismNTT(viaNTT, ctx.AutomorphismNTTTable(g), out2)

		if !out1.Equal(out2) {
			t.Fatalf("g=%d: NTT-domain automorphism mismatch", g)
		}
	}
}

func TestGaloisElement(t *testing.T) {
	n := 16
	if g := GaloisElement(0, n); g != 1 {
		t.Fatalf("step 0 should give identity, got %d", g)
	}
	if g := GaloisElement(1, n); g != 5 {
		t.Fatalf("step 1 should give 5, got %d", g)
	}
	if g := GaloisElement(2, n); g != 25 {
		t.Fatalf("step 2 should give 25, got %d", g)
	}
	// Negative steps wrap within the orbit.
	gNeg := GaloisElement(-1, n)
	if gNeg*5%uint64(2*n) != 1 {
		// 5^(n-1) * 5 = 5^n; orbit of 5 mod 2n has order n/2, so
		// 5^(n/2) = 1 mod 2n -> g(-1)*g(1) = 5^(n) = (5^{n/2})^2 = 1.
		t.Fatalf("GaloisElement(-1)=%d is not inverse of 5 mod %d", gNeg, 2*n)
	}
	if g := GaloisConjugate(n); g != uint64(2*n-1) {
		t.Fatal("conjugate element wrong")
	}
}

func signedOf(v, p uint64) int64 {
	if v > p/2 {
		return -int64(p - v)
	}
	return int64(v)
}

// Flooring: compose, divide with floor/round in big-int, compare.
func TestFloorMatchesBigInt(t *testing.T) {
	n := 16
	ctx := testContext(t, n, 3, 30)
	s := NewSampler(ctx, 8)
	for _, round := range []bool{false, true} {
		a := uniform(s, 3)
		want := composeAll(ctx, a) // values in [0, q)
		pLast := new(big.Int).SetUint64(ctx.Basis.Primes[2])

		ntt := CopyOf(a)
		ctx.NTT(ntt)
		got := ctx.NewPoly(2)
		ctx.FloorInto(ntt, nil, nil, nil, got, nil, 2, round)
		ctx.INTT(got)
		gotBig := composeAll(ctx, got)

		q2 := ctx.Basis.QAtLevel(1)
		for j := 0; j < n; j++ {
			w := new(big.Int).Set(want[j])
			if round {
				w.Add(w, new(big.Int).Rsh(pLast, 1))
			}
			w.Div(w, pLast)
			w.Mod(w, q2)
			if gotBig[j].Cmp(w) != 0 {
				t.Fatalf("round=%v coeff %d: got %v want %v", round, j, gotBig[j], w)
			}
		}
	}
}

// A one-row polynomial has no row both to keep and to drop.
func TestFloorPanicsOnSingleRow(t *testing.T) {
	ctx := testContext(t, 16, 2, 30)
	for _, keep := range []int{0, 1} {
		func() {
			defer func() {
				if r := recover(); !strings.Contains(fmt.Sprint(r), "floor") {
					t.Errorf("keeping %d rows: panicked with %v, want a floor's shape panic", keep, r)
				}
			}()
			ctx.FloorInto(ctx.NewPoly(1), nil, nil, nil, &Poly{Coeffs: make([][]uint64, keep)}, nil, 0, false)
		}()
	}
}

func TestInfNormSigned(t *testing.T) {
	ctx := testContext(t, 16, 2, 30)
	p := ctx.NewPoly(2)
	setCoeffInt64(ctx, p, 3, -1000)
	setCoeffInt64(ctx, p, 7, 999)
	if got := ctx.InfNormSigned(p); got != 1000 {
		t.Fatalf("InfNormSigned = %f, want 1000", got)
	}
}

func BenchmarkMulCoeffs(b *testing.B) {
	ctx := testContext(b, 1<<13, 4, 44)
	s := NewSampler(ctx, 9)
	x, y := uniform(s, 4), uniform(s, 4)
	out := ctx.NewPoly(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.MulCoeffs(x, y, out)
	}
}

func BenchmarkNTTFullBasis(b *testing.B) {
	ctx := testContext(b, 1<<13, 4, 44)
	s := NewSampler(ctx, 10)
	x := uniform(s, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.NTT(x)
	}
}

// setCoeffInt64 sets coefficient j of every row of p from the signed
// word v.
func setCoeffInt64(c *Context, p *Poly, j int, v int64) {
	for i := range p.Coeffs {
		p.Coeffs[i][j] = c.Basis.ReduceInt64(v, i)
	}
}
