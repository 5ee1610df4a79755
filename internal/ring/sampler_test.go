package ring

import (
	"fmt"
	"math"
	"testing"

	"heax/internal/primes"
)

// samplerDraws is how many values each distribution test draws.
const samplerDraws = 1 << 20

// samplerPrimes returns a 61-bit prime and two 30-bit ones, each ≡ 1 mod
// 4n, so that rings of n and of 2n coefficients can share them.
func samplerPrimes(t *testing.T, n int) []uint64 {
	t.Helper()
	big, err := primes.NTTPrimes(61, 2*n, 1)
	if err != nil {
		t.Fatal(err)
	}
	small, err := primes.NTTPrimes(30, 2*n, 2)
	if err != nil {
		t.Fatal(err)
	}
	return append(big, small...)
}

func samplerRing(t *testing.T, n int, ps []uint64) *Context {
	t.Helper()
	ctx, err := NewContext(n, ps)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// chiSquare returns Pearson's statistic of counts against probs over
// their total, and its degrees of freedom, after merging neighbouring
// cells until each expects at least 10 draws.
func chiSquare(counts []int, probs []float64) (stat float64, df int) {
	total := 0
	for _, c := range counts {
		total += c
	}
	var cells [][2]float64 // {observed, expected}
	var obs, exp float64
	for i := range counts {
		obs += float64(counts[i])
		exp += probs[i] * float64(total)
		if exp >= 10 {
			cells = append(cells, [2]float64{obs, exp})
			obs, exp = 0, 0
		}
	}
	if len(cells) == 0 {
		return 0, 0
	}
	cells[len(cells)-1][0] += obs
	cells[len(cells)-1][1] += exp
	for _, c := range cells {
		d := c[0] - c[1]
		stat += d * d / c[1]
	}
	return stat, len(cells) - 1
}

// chiSquareBound is the statistic a sound sampler exceeds with
// probability about 10⁻⁶ at df degrees of freedom (the Wilson–Hilferty
// approximation of the quantile).
func chiSquareBound(df int) float64 {
	const z = 4.75
	k := 2 / (9 * float64(df))
	return float64(df) * math.Pow(1-k+z*math.Sqrt(k), 3)
}

func checkChiSquare(t *testing.T, what string, counts []int, probs []float64) {
	t.Helper()
	stat, df := chiSquare(counts, probs)
	if df < 1 {
		t.Fatalf("%s: no degrees of freedom", what)
	}
	if bound := chiSquareBound(df); stat > bound {
		t.Fatalf("%s: chi-square %.1f over %d degrees of freedom exceeds %.1f", what, stat, df, bound)
	}
	t.Logf("%s: chi-square %.1f over %d degrees of freedom", what, stat, df)
}

// drawSmall draws samplerDraws coefficients with draw and returns their
// counts by value v at index v+offset, failing on any value outside
// [-offset, offset].
func drawSmall(t *testing.T, ctx *Context, draw func(*Poly), offset int) []int {
	t.Helper()
	counts := make([]int, 2*offset+1)
	p := ctx.NewPoly(1)
	q := ctx.Basis.Primes[0]
	for n := 0; n < samplerDraws; n += ctx.N {
		draw(p)
		for _, v := range p.Coeffs[0] {
			e := int(signedOf(v, q))
			if e < -offset || e > offset {
				t.Fatalf("coefficient %d outside [-%d, %d]", e, offset, offset)
			}
			counts[e+offset]++
		}
	}
	return counts
}

// TestSamplerDistributions holds each draw to its distribution by a
// chi-square test over samplerDraws values: an error to CBD(CBDWidth),
// the difference of two Binomial(CBDWidth, 1/2) counts, whose pmf is
// C(2·CBDWidth, CBDWidth+k)/2^(2·CBDWidth); a ternary coefficient to
// uniform on {-1, 0, 1}; and each row of a uniform polynomial, in 16
// buckets, to uniform on [0, q).
func TestSamplerDistributions(t *testing.T) {
	ctx := samplerRing(t, 1<<12, samplerPrimes(t, 1<<12))
	s := NewSampler(ctx, 7)

	t.Run("Error", func(t *testing.T) {
		counts := drawSmall(t, ctx, s.ErrorInto, CBDWidth)
		probs := make([]float64, len(counts))
		for k := range probs {
			// C(2w, k) / 2^(2w), by a running product.
			c := 1.0
			for i := 0; i < k; i++ {
				c = c * float64(2*CBDWidth-i) / float64(i+1)
			}
			probs[k] = c / math.Exp2(2*CBDWidth)
		}
		checkChiSquare(t, "error", counts, probs)
	})

	t.Run("Ternary", func(t *testing.T) {
		counts := drawSmall(t, ctx, s.TernaryInto, 1)
		checkChiSquare(t, "ternary", counts, []float64{1.0 / 3, 1.0 / 3, 1.0 / 3})
	})

	t.Run("Uniform", func(t *testing.T) {
		const buckets = 16
		rows := ctx.K()
		counts := make([][]int, rows)
		for i := range counts {
			counts[i] = make([]int, buckets)
		}
		p := ctx.NewPoly(rows)
		for n := 0; n < samplerDraws; n += ctx.N {
			s.UniformInto(p)
			for i, row := range p.Coeffs {
				q := ctx.Basis.Primes[i]
				width := (q + buckets - 1) / buckets
				for _, v := range row {
					if v >= q {
						t.Fatalf("row %d: residue %d not below its prime %d", i, v, q)
					}
					counts[i][v/width]++
				}
			}
		}
		for i, q := range ctx.Basis.Primes {
			width := (q + buckets - 1) / buckets
			probs := make([]float64, buckets)
			for b := range probs {
				lo, hi := uint64(b)*width, min(uint64(b+1)*width, q)
				probs[b] = float64(hi-lo) / float64(q)
			}
			checkChiSquare(t, fmt.Sprintf("uniform row %d", i), counts[i], probs)
		}
	})
}

// TestSamplerRowsAgree checks that a ternary or error draw is one integer
// polynomial: every row holds the same centered value modulo its prime.
func TestSamplerRowsAgree(t *testing.T) {
	ctx := samplerRing(t, 1<<10, samplerPrimes(t, 1<<10))
	s := NewSampler(ctx, 11)
	p := ctx.NewPoly(ctx.K())
	for name, draw := range map[string]func(*Poly){"Ternary": s.TernaryInto, "Error": s.ErrorInto} {
		for rep := 0; rep < 4; rep++ {
			draw(p)
			for i, row := range p.Coeffs {
				q := ctx.Basis.Primes[i]
				for j, v := range row {
					if v >= q {
						t.Fatalf("%s: row %d coefficient %d: %d not below %d", name, i, j, v, q)
					}
					if got, want := signedOf(v, q), signedOf(p.Coeffs[0][j], ctx.Basis.Primes[0]); got != want {
						t.Fatalf("%s: row %d coefficient %d is %d, row 0 holds %d", name, i, j, got, want)
					}
				}
			}
		}
	}
}

// TestSamplerStreamContinues checks that a sampler reused across calls
// keeps reading its stream instead of starting it over: two calls differ,
// a fresh sampler with the same seed reproduces the calls in order, and,
// for the draws that take one word a coefficient, one draw of twice the
// length on a ring of 2n coefficients over the same primes reproduces two
// draws of n concatenated.
func TestSamplerStreamContinues(t *testing.T) {
	const n = 1 << 9
	ps := samplerPrimes(t, n)
	ctx, ctx2 := samplerRing(t, n, ps), samplerRing(t, 2*n, ps)
	draws := map[string]func(*Sampler) func(*Poly){
		"Uniform": func(s *Sampler) func(*Poly) { return s.UniformInto },
		"Ternary": func(s *Sampler) func(*Poly) { return s.TernaryInto },
		"Error":   func(s *Sampler) func(*Poly) { return s.ErrorInto },
	}
	for name, draw := range draws {
		s := NewSampler(ctx, 5)
		a, b := ctx.NewPoly(1), ctx.NewPoly(1)
		draw(s)(a)
		draw(s)(b)
		if a.Equal(b) {
			t.Fatalf("%s: two calls on one sampler drew the same polynomial", name)
		}
		fresh := NewSampler(ctx, 5)
		a2, b2 := ctx.NewPoly(1), ctx.NewPoly(1)
		draw(fresh)(a2)
		draw(fresh)(b2)
		if !a.Equal(a2) || !b.Equal(b2) {
			t.Fatalf("%s: a fresh sampler with the same seed drew something else", name)
		}
		other := ctx.NewPoly(1)
		draw(NewSampler(ctx, 6))(other)
		if other.Equal(a) {
			t.Fatalf("%s: seeds 5 and 6 drew the same polynomial", name)
		}
		if name == "Ternary" {
			continue // a call drops its last word's unused bits
		}
		long := ctx2.NewPoly(1)
		draw(NewSampler(ctx2, 5))(long)
		cat := append(append([]uint64{}, a.Coeffs[0]...), b.Coeffs[0]...)
		for j, v := range long.Coeffs[0] {
			if v != cat[j] {
				t.Fatalf("%s: coefficient %d of one draw of %d is %d, two draws of %d give %d", name, j, 2*n, v, n, cat[j])
			}
		}
	}
}

// uniform draws a fresh rows-row uniform polynomial.
func uniform(s *Sampler, rows int) *Poly {
	p := s.ctx.NewPoly(rows)
	s.UniformInto(p)
	return p
}

// BenchmarkSampler prices one draw of each kind on Set-C's QP basis (2^14
// coefficients, eight 49-bit q primes and a 46-bit P, nine rows), the
// shape every key and public-key encryption draws.
func BenchmarkSampler(b *testing.B) {
	const n = 1 << 14
	q, err := primes.NTTPrimes(49, n, 8)
	if err != nil {
		b.Fatal(err)
	}
	p, err := primes.NTTPrimes(46, n, 1)
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := NewContext(n, append(q, p...))
	if err != nil {
		b.Fatal(err)
	}
	s := NewSampler(ctx, 1)
	out := ctx.NewPoly(ctx.K())
	for _, draw := range []struct {
		name string
		fill func(*Poly)
	}{{"Error", s.ErrorInto}, {"Ternary", s.TernaryInto}, {"Uniform", s.UniformInto}} {
		b.Run("SetC-QP/"+draw.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				draw.fill(out)
			}
		})
	}
}
