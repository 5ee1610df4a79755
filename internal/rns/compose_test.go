package rns

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// bigQuo is the oracle of Quo: v/s through big.Float, SetInt at the
// integer's precision, Quo at that precision, Float64.
func bigQuo(v *big.Int, s float64) float64 {
	f := new(big.Float).SetInt(v)
	f.Quo(f, big.NewFloat(s))
	out, _ := f.Float64()
	return out
}

// singleQuo is v/s rounded once to float64.
func singleQuo(v *big.Int, s float64) float64 {
	out, _ := new(big.Rat).Quo(new(big.Rat).SetInt(v), new(big.Rat).SetFloat64(s)).Float64()
	return out
}

// nearTie returns the integers nearest (2M+1)·2^(lead−53)·s, M a random
// 53-bit mantissa: v/s within about 1/s of a 53-bit tie at exponent lead.
func nearTie(rng *rand.Rand, lead int, s float64) []*big.Int {
	m := new(big.Int).SetUint64(uint64(rng.Int63n(1<<52)) | 1<<52)
	tie := new(big.Rat).SetInt(m.Add(m.Lsh(m, 1), big.NewInt(1)))
	if sh := lead - 53; sh >= 0 {
		tie.Mul(tie, new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), uint(sh))))
	} else {
		tie.Quo(tie, new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), uint(-sh))))
	}
	tie.Mul(tie, new(big.Rat).SetFloat64(s))
	x0 := new(big.Int).Quo(tie.Num(), tie.Denom())
	var out []*big.Int
	for d := int64(-2); d <= 3; d++ {
		out = append(out, new(big.Int).Add(x0, big.NewInt(d)))
	}
	return out
}

// TestQuoMatchesBigFloat holds the word-sized quotient to big.Float bit
// for bit: random integers of 1 to 500 bits, integers whose quotient
// lies next to a 53-bit tie (where rounding twice differs from rounding
// once, which the test requires it to meet), and scales that are powers
// of two, rescaled non-powers, negative, subnormal, tiny enough to
// overflow, huge enough to underflow, zero and infinite.
func TestQuoMatchesBigFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const w = 9
	buf := make([]uint64, w+1)
	check := func(v *big.Int, s float64) {
		t.Helper()
		x := make([]uint64, w)
		putWords(x, new(big.Int).Abs(v))
		d := NewDivisor(s)
		got := d.quo(x, v.Sign() < 0, buf)
		want := bigQuo(v, s)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v / %g: got %v (%#x), big.Float %v (%#x)", v, s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	q := float64(uint64(1)<<49 - 1<<15 + 1)
	scales := []float64{1, 0x1p40, 0x1p80, 0x1p80 / q, 0x1p40 / q, -0x1p40, 3, 0x1p-1000, 0x1p-1074, 0x1p1000, 0x1.8p1023, math.Pi}
	for i := 0; i < 20; i++ {
		scales = append(scales, math.Ldexp(1+rng.Float64(), rng.Intn(200)-50))
	}
	for _, s := range scales {
		for i := 0; i < 200; i++ {
			v := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(1+rng.Intn(500))))
			if rng.Intn(2) == 0 {
				v.Neg(v)
			}
			check(v, s)
		}
		for _, v := range []int64{0, 1, -1, 2, math.MaxInt64, math.MinInt64} {
			check(big.NewInt(v), s)
		}
	}
	twice := 0
	for _, s := range []float64{0x1p80 / q, 0x1p40 / q, math.Pi, 3, 0x1p40, 0x1p-1000} {
		for i := 0; i < 300; i++ {
			lead := rng.Intn(400) - 60
			if math.Ldexp(1, lead)*s < 0x1p60 {
				lead += 130
			}
			for _, v := range nearTie(rng, lead, s) {
				check(v, s)
				if v.Sign() != 0 && bigQuo(v, s) != singleQuo(v, s) {
					twice++
				}
			}
		}
	}
	if twice == 0 {
		t.Fatal("no near-tie quotient rounds differently twice than once: the double rounding went untested")
	}
	t.Logf("%d near-tie quotients round differently twice than once", twice)

	// A zero scale and an infinite one.
	for _, s := range []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1)} {
		for _, v := range []int64{0, 5, -5} {
			if s == 0 && v == 0 {
				continue // big.Float panics; Quo reads NaN
			}
			check(big.NewInt(v), s)
		}
	}
	if d := NewDivisor(0); !math.IsNaN(d.quo(make([]uint64, 1), false, buf)) {
		t.Fatal("0/0 is not NaN")
	}
}

// TestComposerMatchesComposeCentered checks the word-sized composition
// against ComposeCentered at every prefix of a basis, on random
// residues and at the centering edge ⌊Q/2⌋, ⌊Q/2⌋+1.
func TestComposerMatchesComposeCentered(t *testing.T) {
	b := testBasis(t, 49, 1<<14, 8)
	rng := rand.New(rand.NewSource(3))
	for k := 1; k <= b.K(); k++ {
		sub, err := b.Sub(k)
		if err != nil {
			t.Fatal(err)
		}
		c := b.Composer(k)
		q := sub.Q()
		half := new(big.Int).Rsh(q, 1)
		vals := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(q, big.NewInt(1)), half, new(big.Int).Add(half, big.NewInt(1))}
		for i := 0; i < 300; i++ {
			vals = append(vals, new(big.Int).Rand(rng, q))
		}
		x, y := make([]uint64, c.w+1), make([]uint64, k)
		for _, v := range vals {
			res := sub.decompose(v)
			want := sub.ComposeCentered(res)
			neg := c.centered(res, x, y)
			got := new(big.Int)
			for i := len(x) - 1; i >= 0; i-- {
				got.Lsh(got, 64).Or(got, new(big.Int).SetUint64(x[i]))
			}
			if neg {
				got.Neg(got)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("k=%d: composed %v, want %v", k, got, want)
			}
		}
	}
}
