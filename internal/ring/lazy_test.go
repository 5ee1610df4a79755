package ring

import (
	"math/rand"
	"testing"
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
	got0, got1 := ctx.NewPolyPair(2)
	ctx.FloorDropRowsPairAddInto(a0, a1, got0, got1, nil, nil, rowPrimes, false)
	if !got0.Equal(want0) || !got1.Equal(want1) {
		t.Fatal("FloorDropRowsPairAddInto diverges from two FloorDropRows calls")
	}
}
