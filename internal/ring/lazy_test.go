package ring

import (
	"math/rand"
	"testing"

	"heax/internal/primes"
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
	// reach either parallel threshold.
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
	p1 := ctx.GetPolyNoZero(2)
	if p1.Rows() != 2 {
		t.Fatalf("GetPolyNoZero(2) returned %d rows", p1.Rows())
	}
	p1.Coeffs[0][0] = 42
	p1.Coeffs[1][63] = 7
	ctx.PutPoly(p1)
	// Whether or not the pool hands the same buffer back (its contents
	// are unspecified either way), a poly drawn at a larger row count
	// must come with every row at full length.
	p2 := ctx.GetPolyNoZero(3)
	if p2.Rows() != 3 {
		t.Fatalf("GetPolyNoZero(3) after PutPoly returned %d rows", p2.Rows())
	}
	for i := range p2.Coeffs {
		if len(p2.Coeffs[i]) != ctx.N {
			t.Fatalf("recycled poly row %d has %d coefficients", i, len(p2.Coeffs[i]))
		}
	}
	ctx.PutPoly(p2)
	// Foreign polys must be dropped, not recycled.
	ctx.PutPoly(&Poly{Coeffs: [][]uint64{make([]uint64, 8)}})
	ctx.PutPoly(nil)
	if p := ctx.GetPolyNoZero(1); len(p.Coeffs[0]) != ctx.N {
		t.Fatalf("pool recycled a foreign poly: row of %d coefficients", len(p.Coeffs[0]))
	}
}

// TestPolyPoolSharedByShape: contexts of one {n, K} hold one pool
// whatever their primes (a poly is K rows of n words either way), and
// any other shape gets its own.
func TestPolyPoolSharedByShape(t *testing.T) {
	a := testContext(t, 64, 3, 45)
	b := testContext(t, 64, 3, 40)
	if a.Basis.Primes[0] == b.Basis.Primes[0] {
		t.Fatal("test contexts share primes")
	}
	if a.pool != b.pool || a.Fork(1).pool != a.pool {
		t.Error("contexts of one shape hold different pools")
	}
	if c := testContext(t, 64, 2, 45); c.pool == a.pool {
		t.Error("a 2-row context shares the 3-row pool")
	}
	if c := testContext(t, 128, 3, 45); c.pool == a.pool {
		t.Error("an n = 128 context shares the n = 64 pool")
	}
}

// TestNTTTablesSharedByPrime: two contexts over the same primes hold the
// same *ntt.Tables, in any order and subset of the basis, and a context of
// another degree over a prime that suits both gets its own.
func TestNTTTablesSharedByPrime(t *testing.T) {
	ps, err := primes.NTTPrimes(45, 128, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewContext(64, ps)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewContext(64, []uint64{ps[2], ps[0]})
	if err != nil {
		t.Fatal(err)
	}
	if b.Tables[0] != a.Tables[2] || b.Tables[1] != a.Tables[0] || a.Fork(1).Tables[1] != a.Tables[1] {
		t.Error("contexts over one prime hold different NTT tables")
	}
	if a.Tables[0] == a.Tables[1] {
		t.Error("two primes of one context share NTT tables")
	}
	c, err := NewContext(128, ps[:1])
	if err != nil {
		t.Fatal(err)
	}
	if c.Tables[0] == a.Tables[0] || c.Tables[0].N != 128 {
		t.Error("an n = 128 context shares the n = 64 tables")
	}
}

// A pair floored in one row pass is the two components floored alone,
// here over rows 0-1 with prime 3 dropped, as a key switch below the top
// level drops the special prime.
func TestFloorDropRowsPairMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	ctx := testContext(t, 64, 4, 45)
	mk := func() *Poly {
		a := ctx.NewPoly(3)
		for i, bi := range []int{0, 1, 3} {
			for j := range a.Coeffs[i] {
				a.Coeffs[i][j] = rng.Uint64() % ctx.Basis.Primes[bi]
			}
		}
		return a
	}
	a0, a1 := mk(), mk()
	want0, want1 := ctx.NewPoly(2), ctx.NewPoly(2)
	ctx.FloorInto(a0, nil, nil, nil, want0, nil, 3, false)
	ctx.FloorInto(a1, nil, nil, nil, want1, nil, 3, false)
	got0, got1 := ctx.NewPolyPair(2)
	ctx.FloorInto(a0, a1, nil, nil, got0, got1, 3, false)
	if !got0.Equal(want0) || !got1.Equal(want1) {
		t.Fatal("a floored pair diverges from two single floors")
	}
}
