package ring

import (
	"math"
	"math/rand"

	"heax/internal/rns"
)

// Sampler draws the random polynomials the CKKS key-generation and
// encryption primitives need (Section 3: a ← U(R_qp), s ← χ, e ← Ω).
//
// The underlying generator is a seeded math/rand source so that tests and
// experiments are reproducible. A production deployment would substitute a
// CSPRNG; nothing in the call surface would change.
type Sampler struct {
	ctx *Context
	rng *rand.Rand
	// CBDWidth controls the error distribution Ω: the error is a sum of
	// CBDWidth fair ±1 trials, a centered binomial with standard
	// deviation sqrt(CBDWidth/2). The default 21 gives σ ≈ 3.24, matching
	// the σ = 3.2 of the HE security standard the paper cites [1].
	CBDWidth int
}

// NewSampler creates a deterministic sampler for ctx from seed.
func NewSampler(ctx *Context, seed int64) *Sampler {
	return &Sampler{ctx: ctx, rng: rand.New(rand.NewSource(seed)), CBDWidth: 21}
}

// uniformMod draws a uniform value in [0, p) by rejection, avoiding the
// modulo bias of a bare Uint64()%p.
func (s *Sampler) uniformMod(p uint64) uint64 {
	bound := (^uint64(0) / p) * p
	for {
		v := s.rng.Uint64()
		if v < bound {
			return v % p
		}
	}
}

// Uniform fills a fresh polynomial with rows independent uniform residue
// rows: by CRT this is exactly a ← U(R_q) for q the product of those
// primes.
func (s *Sampler) Uniform(rows int) *Poly {
	p := s.ctx.NewPoly(rows)
	for i := 0; i < rows; i++ {
		pi := s.ctx.Basis.Primes[i]
		row := p.Coeffs[i]
		for j := range row {
			row[j] = s.uniformMod(pi)
		}
	}
	return p
}

// Ternary samples a polynomial with coefficients uniform in {-1, 0, 1}
// (the key distribution χ), represented consistently across all rows.
func (s *Sampler) Ternary(rows int) *Poly {
	p := s.ctx.NewPoly(rows)
	for j := 0; j < s.ctx.N; j++ {
		t := s.rng.Intn(3) - 1
		for i := 0; i < rows; i++ {
			pi := s.ctx.Basis.Primes[i]
			switch t {
			case 1:
				p.Coeffs[i][j] = 1
			case -1:
				p.Coeffs[i][j] = pi - 1
			}
		}
	}
	return p
}

// Error samples an error polynomial from the centered binomial
// distribution Ω, represented consistently across all rows.
func (s *Sampler) Error(rows int) *Poly {
	p := s.ctx.NewPoly(rows)
	for j := 0; j < s.ctx.N; j++ {
		e := 0
		for t := 0; t < s.CBDWidth; t++ {
			e += int(s.rng.Int63() & 1)
			e -= int(s.rng.Int63() & 1)
		}
		for i := 0; i < rows; i++ {
			pi := s.ctx.Basis.Primes[i]
			if e >= 0 {
				p.Coeffs[i][j] = uint64(e)
			} else {
				p.Coeffs[i][j] = pi - uint64(-e)
			}
		}
	}
	return p
}

// SetCoeffInt64 is a helper for tests: sets coefficient j of every row
// from the signed word v.
func (c *Context) SetCoeffInt64(p *Poly, j int, v int64) {
	for i := range p.Coeffs {
		p.Coeffs[i][j] = c.Basis.ReduceInt64(v, i)
	}
}

// InfNormSigned returns the max absolute centered value of a
// coefficient-domain polynomial as a float64: each coefficient composed
// from its rows in word-sized RNS arithmetic (rns.Composer, the
// composition Decode runs, at scale 1) and rounded to nearest, bit for
// bit what ComposeCentered and big.Float would give. The composition's
// tables are built per call: this is a diagnostic (noise measurement),
// not a fast path.
func (c *Context) InfNormSigned(p *Poly) float64 {
	rows := p.Rows()
	comp := c.Basis.Composer(rows)
	one := rns.NewDivisor(1)
	tmp := make([]uint64, rows+comp.ScratchLen())
	res, tmp := tmp[:rows], tmp[rows:]
	max := 0.0
	for j := 0; j < c.N; j++ {
		for i := range res {
			res[i] = p.Coeffs[i][j]
		}
		if f := math.Abs(comp.Quo(res, &one, tmp)); f > max {
			max = f
		}
	}
	return max
}
