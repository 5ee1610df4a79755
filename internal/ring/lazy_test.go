package ring

import (
	"math/rand"
	"testing"

	"heax/internal/uintmod"
)

func randPoly(ctx *Context, rows int, rng *rand.Rand) *Poly {
	p := ctx.NewPoly(rows)
	for i := 0; i < rows; i++ {
		for j := range p.Coeffs[i] {
			p.Coeffs[i][j] = rng.Uint64() % ctx.Basis.Primes[i]
		}
	}
	return p
}

func TestMulCoeffsLazyMatchesMulCoeffs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	// 45-bit primes take the IFMA path where available; 55-bit pin the
	// scalar Shoup path.
	for _, bits := range []int{45, 55} {
		ctx := testContext(t, 64, 3, bits)
		a := randPoly(ctx, 3, rng)
		b := randPoly(ctx, 3, rng)
		bShoup := ctx.ShoupPoly(b)
		want := ctx.NewPoly(3)
		ctx.MulCoeffs(a, b, want)
		got := ctx.NewPoly(3)
		ctx.MulCoeffsLazy(a, b, bShoup, got)
		if !got.Equal(want) {
			t.Fatalf("bits=%d: MulCoeffsLazy != MulCoeffs", bits)
		}
	}
}

func TestMulAddLazyMatchesMulCoeffsAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, bits := range []int{45, 55} {
		ctx := testContext(t, 64, 3, bits)
		b := randPoly(ctx, 3, rng)
		bShoup := ctx.ShoupPoly(b)
		want := ctx.NewPoly(3)
		acc := ctx.NewPoly(3)
		// Long accumulation chains: the lazy accumulator must stay in
		// [0, 2p) and agree with the strict sum after one ReduceLazy.
		for round := 0; round < 32; round++ {
			a := randPoly(ctx, 3, rng)
			ctx.MulCoeffsAdd(a, b, want)
			ctx.MulAddLazy(a, b, bShoup, acc)
		}
		for i := range acc.Coeffs {
			twoP := 2 * ctx.Basis.Primes[i]
			for j, v := range acc.Coeffs[i] {
				if v >= twoP {
					t.Fatalf("bits=%d row %d coeff %d: lazy accumulator %d escaped [0, 2p)", bits, i, j, v)
				}
			}
		}
		ctx.ReduceLazy(acc, acc)
		if !acc.Equal(want) {
			t.Fatalf("bits=%d: MulAddLazy+ReduceLazy != MulCoeffsAdd", bits)
		}
	}
}

func TestWorkerParity(t *testing.T) {
	// The row-parallel NTT must produce identical results serial and
	// parallel (the elementwise ops have their own serial/parallel check
	// against a scalar reference in dyadic_test.go). 4·4096 coefficients
	// clear parallelThreshold.
	rng := rand.New(rand.NewSource(33))
	ctx := testContext(t, 4096, 4, 45)
	a := randPoly(ctx, 4, rng)
	serial, parallel := CopyOf(a), CopyOf(a)
	ctx.SetWorkers(1)
	ctx.NTT(serial)
	ctx.SetWorkers(4)
	ctx.NTT(parallel)
	ctx.SetWorkers(1)
	if !serial.Equal(parallel) {
		t.Fatal("NTT: parallel result diverges from serial")
	}
}

func TestPolyPoolRecycles(t *testing.T) {
	ctx := testContext(t, 64, 3, 45)
	p1 := ctx.GetPoly(2)
	if p1.Rows() != 2 {
		t.Fatalf("GetPoly(2) returned %d rows", p1.Rows())
	}
	p1.Coeffs[0][0] = 42
	p1.Coeffs[1][63] = 7
	ctx.PutPoly(p1)
	p2 := ctx.GetPoly(3)
	if p2.Rows() != 3 {
		t.Fatalf("GetPoly(3) after PutPoly returned %d rows", p2.Rows())
	}
	for i := range p2.Coeffs {
		for j, v := range p2.Coeffs[i] {
			if v != 0 {
				t.Fatalf("recycled poly not zeroed at [%d][%d] = %d", i, j, v)
			}
		}
	}
	// Foreign polys must be dropped, not recycled.
	ctx.PutPoly(&Poly{Coeffs: [][]uint64{make([]uint64, 8)}})
	ctx.PutPoly(nil)
}

func TestFloorDropRowsPairMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	ctx := testContext(t, 64, 4, 45)
	rowPrimes := []int{0, 1, 3}
	mk := func() *Poly {
		a := ctx.NewPoly(3)
		for i, bi := range rowPrimes {
			for j := range a.Coeffs[i] {
				a.Coeffs[i][j] = rng.Uint64() % ctx.Basis.Primes[bi]
			}
		}
		return a
	}
	a0, a1 := mk(), mk()
	want0 := ctx.FloorDropRows(CopyOf(a0).Resize(3), rowPrimes, false)
	want1 := ctx.FloorDropRows(CopyOf(a1).Resize(3), rowPrimes, false)
	got0, got1 := ctx.FloorDropRowsPair(a0, a1, rowPrimes, false, false)
	if !got0.Equal(want0) || !got1.Equal(want1) {
		t.Fatal("FloorDropRowsPair diverges from two FloorDropRows calls")
	}

	// Lazy mode: feed values in [0, 2p) and expect identical output to
	// the reduced equivalents.
	l0, l1 := CopyOf(a0), CopyOf(a1)
	for i, bi := range rowPrimes {
		p := ctx.Basis.Primes[bi]
		for j := range l0.Coeffs[i] {
			if rng.Intn(2) == 1 {
				l0.Coeffs[i][j] += p
			}
			if rng.Intn(2) == 1 {
				l1.Coeffs[i][j] += p
			}
		}
	}
	lg0, lg1 := ctx.FloorDropRowsPair(l0, l1, rowPrimes, false, true)
	if !lg0.Equal(want0) || !lg1.Equal(want1) {
		t.Fatal("lazy FloorDropRowsPair diverges from strict")
	}
}

func TestShoupPolyScales(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	ctx := testContext(t, 64, 2, 45)
	b := randPoly(ctx, 2, rng)
	sh := ctx.ShoupPoly(b)
	for i := range sh.Coeffs {
		p := ctx.Basis.Primes[i]
		for j := range sh.Coeffs[i] {
			var want uint64
			if ctx.RowIFMA(i) {
				want = uintmod.ShoupPrecomp52(b.Coeffs[i][j], p)
			} else {
				want = uintmod.ShoupPrecomp(b.Coeffs[i][j], p)
			}
			if sh.Coeffs[i][j] != want {
				t.Fatalf("ShoupPoly scale mismatch at [%d][%d]", i, j)
			}
		}
	}
}
