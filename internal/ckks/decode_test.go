package ckks

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"heax/internal/ring"
	"heax/internal/rns"
)

// bigCoeff is Decode's former formula for coefficient j of a
// coefficient-domain poly, kept as the oracle of the word-sized one:
// the centered CRT composition, then big.Float SetInt, Quo and Float64.
func bigCoeff(basis *rns.Basis, poly *ring.Poly, j int, scale float64) float64 {
	res := make([]uint64, poly.Rows())
	for i := range res {
		res[i] = poly.Coeffs[i][j]
	}
	return bigQuo(composeCentered(basis, res), scale)
}

// crtConstants holds a basis's π_i = Q/q_i and [π_i^{-1}]_{q_i}.
type crtConstants struct {
	punc []*big.Int
	inv  []uint64
}

var crtByBasis sync.Map // *rns.Basis → *crtConstants

// composeCentered is the former rns.Basis.ComposeCentered: the CRT
// formula of Section 2, x = Σ r_i · π_i · [π_i^{-1}]_{q_i} (mod Q), in
// math/big, centered into (−Q/2, Q/2].
func composeCentered(basis *rns.Basis, res []uint64) *big.Int {
	q := basis.Q()
	c, ok := crtByBasis.Load(basis)
	if !ok {
		t := &crtConstants{punc: make([]*big.Int, basis.K()), inv: make([]uint64, basis.K())}
		for i, p := range basis.Primes {
			bp := new(big.Int).SetUint64(p)
			t.punc[i] = new(big.Int).Div(q, bp)
			t.inv[i] = basis.Mods[i].InvMod(new(big.Int).Mod(t.punc[i], bp).Uint64())
		}
		c, _ = crtByBasis.LoadOrStore(basis, t)
	}
	t := c.(*crtConstants)
	acc, term := new(big.Int), new(big.Int)
	for i, r := range res {
		term.SetUint64(basis.Mods[i].MulMod(r, t.inv[i]))
		acc.Add(acc, term.Mul(term, t.punc[i]))
	}
	acc.Mod(acc, q)
	if acc.Cmp(new(big.Int).Rsh(q, 1)) > 0 {
		acc.Sub(acc, q)
	}
	return acc
}

// bigInfNorm is InfNormSigned's former formula: the largest
// |Float64(composeCentered)| over the coefficients.
func bigInfNorm(basis *rns.Basis, poly *ring.Poly) float64 {
	max := 0.0
	for j := range poly.Coeffs[0] {
		if f := math.Abs(bigCoeff(basis, poly, j, 1)); f > max {
			max = f
		}
	}
	return max
}

// nearTies returns integers of at most b bits whose quotient by s lies
// next to a 53-bit tie u·2^j, u odd in [2^53, 2^54), and the relative
// distance of the first from it. With s = m·2^e, m odd, an integer v
// near u·m·2^−k (k = 54 + bitlen m − b) sits (u·m mod 2^k)/2^k, over s,
// off the tie, so u solves u·m ≡ r (mod 2^k) for the smallest odd |r|
// that leaves u in range: within 2^-60 whenever m has 7 bits or more.
// When u·m·2^−k is an integer the first is that exact tie, then its
// neighbours.
func nearTies(rng *rand.Rand, s float64, b int) ([]*big.Int, float64) {
	fr, _ := math.Frexp(s)
	m := uint64(fr * (1 << 53))
	m >>= bits.TrailingZeros64(m)
	bm := new(big.Int).SetUint64(m)
	one := big.NewInt(1)
	lo := new(big.Int).Lsh(one, 53)
	k := 54 + bits.Len64(m) - b
	if k <= 0 {
		u := new(big.Int).Rand(rng, lo)
		u.Add(u, lo).SetBit(u, 0, 1)
		v := u.Lsh(u.Mul(u, bm), uint(-k))
		return []*big.Int{v, new(big.Int).Sub(v, one), new(big.Int).Add(v, one)}, 0
	}
	mod := new(big.Int).Lsh(one, uint(k))
	inv := new(big.Int).ModInverse(bm, mod)
	for i := int64(0); ; i++ {
		r := i/2*2 + 1
		if i&1 == 1 {
			r = -r
		}
		u := new(big.Int).Mul(inv, big.NewInt(r))
		u.Mod(u, mod)
		if k <= 53 {
			// Every class meets [2^53, 2^54): take one of its members there.
			t := new(big.Int).Rand(rng, new(big.Int).Lsh(one, uint(53-k)))
			u.Add(u, lo).Add(u, t.Lsh(t, uint(k)))
		} else if u.BitLen() != 54 {
			continue
		}
		v := u.Mul(u, bm)
		v.Sub(v, big.NewInt(r)).Rsh(v, uint(k))
		return []*big.Int{v}, math.Ldexp(math.Abs(float64(r)), 1-k-v.BitLen())
	}
}

// singleQuo is v/s rounded once to float64: what a conversion that
// skipped big.Float's first rounding would return.
func singleQuo(v *big.Int, s float64) float64 {
	out, _ := new(big.Rat).Quo(new(big.Rat).SetInt(v), new(big.Rat).SetFloat64(s)).Float64()
	return out
}

// setCoeff writes v mod Q into coefficient j of every row of p.
func setCoeff(basis *rns.Basis, p *ring.Poly, j int, v *big.Int) {
	for i, r := range bigResidues(basis, v) {
		p.Coeffs[i][j] = r
	}
}

// randomPoly fills p with uniform residues.
func randomPoly(rng *rand.Rand, basis *rns.Basis, p *ring.Poly) {
	for i, row := range p.Coeffs {
		for j := range row {
			row[j] = uint64(rng.Int63n(int64(basis.Primes[i])))
		}
	}
}

// decodeCases returns the integers a decode test places at the front of
// a plaintext of basis's primes: 0, ±1, the centering edge ⌊Q/2⌋ and
// ⌊Q/2⌋+1, then integers of 40 bits up to Q's width whose quotient by s
// lies next to a 53-bit tie. rel is the largest relative distance of
// the near ties built to lie within 2^-60 of theirs.
func decodeCases(rng *rand.Rand, basis *rns.Basis, s float64) (vals []*big.Int, rel float64) {
	half := new(big.Int).Rsh(basis.Q(), 1)
	vals = []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(-1), half, new(big.Int).Add(half, big.NewInt(1))}
	for b := min(40, half.BitLen()-2); b < half.BitLen(); b += 1 + rng.Intn(9) {
		near, d := nearTies(rng, s, b)
		rel = math.Max(rel, d)
		for _, v := range near {
			vals = append(vals, v, new(big.Int).Neg(v))
		}
	}
	return vals, rel
}

// TestDecodeMatchesBigFloat holds Decode's word-sized composition and
// division to its former big-integer formula (bigCoeff) bit for bit, at
// every level of Set-B and Set-C, at scales 2^40, 2^80 and the rescaled
// 2^80/q_ℓ, with one worker and with two: on 0, ±1, the centering edge,
// integers next to 53-bit ties, uniform residues and a decrypted
// ciphertext. The near ties must include quotients that round
// differently twice (big.Float's Quo, then Float64) than once, or the
// double rounding would go untested.
func TestDecodeMatchesBigFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	twice := 0
	for _, spec := range []ParamSpec{SetB, SetC} {
		params, err := NewParams(spec)
		if err != nil {
			t.Fatal(err)
		}
		ctx := params.RingQP
		defer ctx.SetWorkers(ctx.Workers())
		enc := NewEncoder(params)
		sk := NewKeyGenerator(params, 5).GenSecretKey()
		encSk := NewSymmetricEncryptor(params, sk, 6)
		dec := NewDecryptor(params, sk)
		// A decrypted ciphertext, read at every level through its first rows.
		pt, err := enc.Encode(randomComplex(rng, params.Slots(), 1), params.MaxLevel(), params.DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		ct, err := encSk.Encrypt(pt)
		if err != nil {
			t.Fatal(err)
		}
		decrypted, err := dec.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		decCoeffs := ring.CopyOf(decrypted.Value)
		ctx.INTT(decCoeffs)
		for level := 0; level <= params.MaxLevel(); level++ {
			basis, err := rns.NewBasis(ctx.Basis.Primes[:level+1])
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []float64{0x1p40, 0x1p80, 0x1p80 / float64(params.Q[level])} {
				vals, rel := decodeCases(rng, basis, s)
				if s != 0x1p40 && s != 0x1p80 && rel > 0x1p-60 {
					t.Fatalf("%s L%d scale %g: a near tie lies %g off its tie", spec.Name, level, s, rel)
				}
				for _, v := range vals[5:] {
					if bigQuo(v, s) != singleQuo(v, s) {
						twice++
					}
				}
				built := ctx.NewPoly(level + 1)
				randomPoly(rng, basis, built)
				for j, v := range vals {
					setCoeff(basis, built, j, v)
				}
				coeffs := ring.CopyOf(built)
				ctx.NTT(built)
				front := make([]int, len(vals))
				for j := range front {
					front[j] = j
				}
				for _, c := range []struct {
					name   string
					pt     *Plaintext
					coeffs *ring.Poly
					check  []int
				}{
					{"built", &Plaintext{Value: built, Scale: s}, coeffs, append(front, sampleIndices(rng, params.N, 256)...)},
					{"decrypted", &Plaintext{Value: decrypted.Value.Resize(level + 1), Scale: s}, decCoeffs.Resize(level + 1), sampleIndices(rng, params.N, 512)},
				} {
					want := make([]float64, len(c.check))
					for i, j := range c.check {
						want[i] = bigCoeff(basis, c.coeffs, j, s)
					}
					for _, w := range []int{1, 2} {
						ctx.SetWorkers(w)
						got := make([]complex128, params.Slots())
						enc.decodeCoeffs(c.pt, got)
						for i, j := range c.check {
							g := real(got[j%params.Slots()])
							if j >= params.Slots() {
								g = imag(got[j-params.Slots()])
							}
							if math.Float64bits(g) != math.Float64bits(want[i]) {
								t.Fatalf("%s L%d scale %g, %s coefficient %d, %d workers: decoded %v (%#x), big.Float %v (%#x)",
									spec.Name, level, s, c.name, j, w, g, math.Float64bits(g), want[i], math.Float64bits(want[i]))
							}
						}
					}
				}
			}
		}
	}
	if twice == 0 {
		t.Fatal("no near tie rounds differently twice than once: the double rounding went untested")
	}
	t.Logf("%d near ties round differently twice than once", twice)
}

// bigQuo is bigCoeff of one integer.
func bigQuo(v *big.Int, s float64) float64 {
	f := new(big.Float).SetInt(v)
	f.Quo(f, big.NewFloat(s))
	out, _ := f.Float64()
	return out
}

// sampleIndices returns k coefficient indices in [0, n) at random.
func sampleIndices(rng *rand.Rand, n, k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = rng.Intn(n)
	}
	return out
}

// TestInfNormSignedMatchesBigFloat holds ring.Context.InfNormSigned, the
// composer at scale 1, to its former formula (bigInfNorm) bit for bit on
// the primes of every level of Set-B and Set-C: each case integer of
// decodeCases (near ties at scale 1: exact 53-bit ties and their
// neighbours) as the largest of 16 coefficients, and uniform residues.
func TestInfNormSignedMatchesBigFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, spec := range []ParamSpec{SetB, SetC} {
		params, err := NewParams(spec)
		if err != nil {
			t.Fatal(err)
		}
		// The same primes over 16 coefficients: one case a polynomial.
		ctx, err := ring.NewContext(16, params.RingQP.Basis.Primes)
		if err != nil {
			t.Fatal(err)
		}
		for level := 0; level <= params.MaxLevel(); level++ {
			basis, err := rns.NewBasis(ctx.Basis.Primes[:level+1])
			if err != nil {
				t.Fatal(err)
			}
			vals, _ := decodeCases(rng, basis, 1)
			p := ctx.NewPoly(level + 1)
			for n, v := range vals {
				for j := 0; j < ctx.N; j++ {
					// Smaller companions: v shifted right by at least 2 bits.
					setCoeff(basis, p, j, new(big.Int).Rsh(v, uint(2+rng.Intn(8))))
				}
				setCoeff(basis, p, n%ctx.N, v)
				if got, want := ctx.InfNormSigned(p), bigInfNorm(basis, p); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s L%d case %v: InfNormSigned %v, big.Float %v", spec.Name, level, v, got, want)
				}
			}
			for i := 0; i < 20; i++ {
				randomPoly(rng, basis, p)
				if got, want := ctx.InfNormSigned(p), bigInfNorm(basis, p); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s L%d uniform: InfNormSigned %v, big.Float %v", spec.Name, level, got, want)
				}
			}
		}
	}
}

// BenchmarkDecode prices Decode of a decrypted Set-C ciphertext at the
// top level (scale 2^40) and through its first two rows at level 1
// (scale 2^80/q_2, as a value rescaled there).
func BenchmarkDecode(b *testing.B) {
	params, err := NewParams(SetC)
	if err != nil {
		b.Fatal(err)
	}
	enc := NewEncoder(params)
	sk := NewKeyGenerator(params, 5).GenSecretKey()
	pt, err := enc.Encode(randomComplex(rand.New(rand.NewSource(1)), params.Slots(), 1), params.MaxLevel(), params.DefaultScale())
	if err != nil {
		b.Fatal(err)
	}
	ct, err := NewSymmetricEncryptor(params, sk, 6).Encrypt(pt)
	if err != nil {
		b.Fatal(err)
	}
	decrypted, err := NewDecryptor(params, sk).Decrypt(ct)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		level int
		scale float64
	}{{7, params.DefaultScale()}, {1, 0x1p80 / float64(params.Q[2])}} {
		pt := &Plaintext{Value: decrypted.Value.Resize(c.level + 1), Scale: c.scale}
		b.Run(fmt.Sprintf("SetC-L%d", c.level), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				enc.Decode(pt)
			}
		})
	}
}
