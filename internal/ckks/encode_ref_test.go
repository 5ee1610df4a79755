package ckks

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"

	"heax/internal/rns"
)

// embedOracle is the encoder's former form, kept as the oracle of the
// stage-ordered one: a table of every power of ζ = exp(2πi/m) and the
// slot orbit 5^j mod m, gathered in every butterfly, an in-place
// bit-reversal and complex 1/n scaling, and a per-coefficient
// ReduceInt64 into every row.
type embedOracle struct {
	e        *Encoder
	m        int
	rotGroup []int
	roots    []complex128
}

func newEmbedOracle(e *Encoder) *embedOracle {
	slots := e.slots
	m := 4 * slots
	r := &embedOracle{e: e, m: m, rotGroup: make([]int, slots), roots: make([]complex128, m+1)}
	g := 1
	for i := 0; i < slots; i++ {
		r.rotGroup[i] = g
		g = g * 5 % m
	}
	for j := 0; j <= m; j++ {
		angle := 2 * math.Pi * float64(j) / float64(m)
		r.roots[j] = cmplx.Exp(complex(0, angle))
	}
	return r
}

func refBitrev(v []complex128) {
	n := len(v)
	logn := bits.Len(uint(n)) - 1
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> (64 - logn))
		if i < j {
			v[i], v[j] = v[j], v[i]
		}
	}
}

func (r *embedOracle) specialFFT(v []complex128) {
	n := len(v)
	refBitrev(v)
	for length := 2; length <= n; length <<= 1 {
		lenh := length >> 1
		lenq := length << 2
		gap := r.m / lenq
		for i := 0; i < n; i += length {
			for j := 0; j < lenh; j++ {
				idx := (r.rotGroup[j] % lenq) * gap
				u := v[i+j]
				w := v[i+j+lenh] * r.roots[idx]
				v[i+j] = u + w
				v[i+j+lenh] = u - w
			}
		}
	}
}

func (r *embedOracle) specialIFFT(v []complex128) {
	n := len(v)
	for length := n; length >= 2; length >>= 1 {
		lenh := length >> 1
		lenq := length << 2
		gap := r.m / lenq
		for i := 0; i < n; i += length {
			for j := 0; j < lenh; j++ {
				idx := (lenq - r.rotGroup[j]%lenq) * gap
				u := v[i+j] + v[i+j+lenh]
				w := (v[i+j] - v[i+j+lenh]) * r.roots[idx]
				v[i+j] = u
				v[i+j+lenh] = w
			}
		}
	}
	refBitrev(v)
	inv := complex(1/float64(n), 0)
	for i := range v {
		v[i] *= inv
	}
}

func (r *embedOracle) encode(values []complex128, level int, scale float64) (*Plaintext, error) {
	e := r.e
	if len(values) > e.slots {
		return nil, fmt.Errorf("ckks: %d values exceed %d slots", len(values), e.slots)
	}
	if level < 0 || level > e.params.MaxLevel() {
		return nil, fmt.Errorf("ckks: level %d out of range [0,%d]", level, e.params.MaxLevel())
	}
	v := make([]complex128, e.slots)
	copy(v, values)
	r.specialIFFT(v)

	ctx := e.params.RingQP
	pt := ctx.NewPoly(level + 1)
	setCoeff := func(j int, x float64) error {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("ckks: non-finite coefficient at scale %g", scale)
		}
		if math.Abs(x) < wordCoeffBound {
			c := int64(math.Round(x))
			for i := 0; i <= level; i++ {
				pt.Coeffs[i][j] = ctx.Basis.ReduceInt64(c, i)
			}
			return nil
		}
		bi, _ := big.NewFloat(x).Int(nil)
		res := bigResidues(ctx.Basis, bi)
		for i := 0; i <= level; i++ {
			pt.Coeffs[i][j] = res[i]
		}
		return nil
	}
	for j := 0; j < e.slots; j++ {
		if err := setCoeff(j, real(v[j])*scale); err != nil {
			return nil, err
		}
		if err := setCoeff(j+e.slots, imag(v[j])*scale); err != nil {
			return nil, err
		}
	}
	ctx.NTT(pt)
	return &Plaintext{Value: pt, Scale: scale}, nil
}

// decode is the former Decode: the (unchanged) word-sized composition,
// then the reference transform.
func (r *embedOracle) decode(pt *Plaintext) []complex128 {
	v := make([]complex128, r.e.slots)
	r.e.decodeCoeffs(pt, v)
	r.specialFFT(v)
	return v
}

func sameComplexBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// TestEncodeMatchesReference holds Encode, EncodeInto and Decode to the
// former encoder bit for bit on Sets A, B and C at every level: random
// full and short vectors, periodic payloads (EncodeInto against the
// reference on the tiled vector, into a dirty pooled poly), scales that
// take the add-q row path, the Barrett path and the big-integer path
// (alone and mixed with word-sized coefficients), the all-zero vector,
// and non-finite input, which both refuse.
func TestEncodeMatchesReference(t *testing.T) {
	for _, spec := range StandardSets {
		t.Run(spec.Name, func(t *testing.T) {
			params, err := NewParams(spec)
			if err != nil {
				t.Fatal(err)
			}
			enc := NewEncoder(params)
			ref := newEmbedOracle(enc)
			slots := params.Slots()
			rng := rand.New(rand.NewSource(61))
			random := func(n int, mag float64) []complex128 {
				v := make([]complex128, n)
				for i := range v {
					v[i] = complex((2*rng.Float64()-1)*mag, (2*rng.Float64()-1)*mag)
				}
				return v
			}
			mixed := random(slots, 1)
			// A spike whose coefficients straddle wordCoeffBound at 2^40:
			// some take the big-integer path, the rest the word path.
			mixed[3] = complex(math.Exp2(22.5)*float64(slots), 0)
			nonFinite := random(slots, 1)
			nonFinite[slots/2] = complex(math.Inf(1), 0)
			cases := []struct {
				name  string
				vals  []complex128
				scale float64
			}{
				{"random", random(slots, 1), params.DefaultScale()},
				{"short", random(slots/3, 4), params.DefaultScale()},
				{"barrett", random(slots, 1), math.Exp2(55)},
				{"wide", random(slots, 1), math.Exp2(70)},
				{"mixed", mixed, math.Exp2(40)},
				{"zero", make([]complex128, slots), params.DefaultScale()},
				{"empty", nil, params.DefaultScale()},
				{"nonfinite", nonFinite, params.DefaultScale()},
			}
			periods := []int{1, 2, 8, slots / 8, slots / 2, slots}
			for level := 0; level <= params.MaxLevel(); level++ {
				for _, c := range cases {
					got, gerr := enc.Encode(c.vals, level, c.scale)
					want, werr := ref.encode(c.vals, level, c.scale)
					if (gerr == nil) != (werr == nil) {
						t.Fatalf("level %d %s: error %v, reference %v", level, c.name, gerr, werr)
					}
					if werr != nil {
						continue
					}
					if !got.Value.Equal(want.Value) {
						t.Fatalf("level %d %s: plaintext differs from the reference", level, c.name)
					}
					if !sameComplexBits(enc.Decode(got), ref.decode(want)) {
						t.Fatalf("level %d %s: decode differs from the reference", level, c.name)
					}
				}
				for _, period := range periods {
					vals := random(period, 1)
					tiled := make([]complex128, slots)
					for i := range tiled {
						tiled[i] = vals[i%period]
					}
					want, err := ref.encode(tiled, level, params.DefaultScale())
					if err != nil {
						t.Fatal(err)
					}
					dst := params.RingQP.GetPolyNoZero(level + 1)
					for _, row := range dst.Coeffs {
						for j := range row {
							row[j] = rng.Uint64()
						}
					}
					if err := EncodeInto(enc, dst, vals, true, params.DefaultScale()); err != nil {
						t.Fatal(err)
					}
					if !dst.Equal(want.Value) {
						t.Fatalf("level %d period %d: EncodeInto differs from the reference on the tiled vector", level, period)
					}
					params.RingQP.PutPoly(dst)
				}
			}
			if err := EncodeInto(enc, params.RingQP.NewPoly(1), make([]complex128, 3), true, 1); err == nil {
				t.Fatal("EncodeInto accepted a period that does not divide the slots")
			}
		})
	}
}

// bigResidues returns x mod p_i, in [0, p_i), for every prime of basis.
func bigResidues(basis *rns.Basis, x *big.Int) []uint64 {
	out := make([]uint64, len(basis.Primes))
	r, p := new(big.Int), new(big.Int)
	for i, q := range basis.Primes {
		out[i] = r.Mod(x, p.SetUint64(q)).Uint64() // Euclidean: never negative
	}
	return out
}

// TestEncodeWideMatchesBigInt holds encodeWide's word arithmetic to the
// big-integer conversion it replaced (big.Float → big.Int → mod p_i) on
// every row of Sets A, B and C: coefficients of both signs at every
// binary exponent from 62 (wordCoeffBound) to 1023 (math.MaxFloat64), in
// real and imaginary parts, next to word-sized parts it must leave
// alone. A non-finite part fails with the encoder's error.
func TestEncodeWideMatchesBigInt(t *testing.T) {
	for _, spec := range StandardSets {
		t.Run(spec.Name, func(t *testing.T) {
			params, err := NewParams(spec)
			if err != nil {
				t.Fatal(err)
			}
			enc := NewEncoder(params)
			ctx := params.RingQP
			n := enc.slots
			rng := rand.New(rand.NewSource(62))
			// coeffs[j] is coefficient j's real and imaginary part; the
			// edges come first, then a random mantissa at each exponent.
			wide := []float64{wordCoeffBound, math.Nextafter(2*wordCoeffBound, 0), math.MaxFloat64}
			for e := 62; e <= 1023; e++ {
				wide = append(wide, math.Ldexp(1+rng.Float64(), e))
			}
			coeffs := make([]complex128, n)
			for j := range coeffs {
				switch w := wide[j%len(wide)]; j % 4 {
				case 0:
					coeffs[j] = complex(w, -w)
				case 1:
					coeffs[j] = complex(-w, 1e6)
				case 2:
					coeffs[j] = complex(math.Nextafter(wordCoeffBound, 0), w)
				default:
					coeffs[j] = complex(-1, -w)
				}
			}
			// encodeWide reads coefficient j at v[bitrev[j]] (stride 1).
			v := make([]complex128, n)
			for j, c := range coeffs {
				v[enc.fft.bitrev[j]] = c
			}
			dst := ctx.NewPoly(ctx.Basis.K())
			if err := enc.encodeWide(dst, v, 1, 1, 1); err != nil {
				t.Fatal(err)
			}
			for j, c := range coeffs {
				for k, x := range [2]float64{real(c), imag(c)} {
					want := make([]uint64, ctx.Basis.K()) // a word-sized part is left 0
					if math.Abs(x) >= wordCoeffBound {
						bi, _ := big.NewFloat(x).Int(nil)
						want = bigResidues(ctx.Basis, bi)
					}
					for i, row := range dst.Coeffs {
						if got := row[j+k*n]; got != want[i] {
							t.Fatalf("coefficient %d part %d = %g, row %d: %d, want %d", j, k, x, i, got, want[i])
						}
					}
				}
			}
			for _, bad := range []complex128{complex(math.Inf(1), 0), complex(0, math.Inf(-1)), complex(math.NaN(), 0)} {
				v[enc.fft.bitrev[1]] = bad
				err := enc.encodeWide(dst, v, 1, 1, 1)
				if err == nil || !strings.Contains(err.Error(), "non-finite coefficient") {
					t.Fatalf("%v: error %v, want a non-finite coefficient", bad, err)
				}
			}
		})
	}
}

// BenchmarkEncode prices Encode of a full random slot vector at the
// default scale: Set-C at the top level (L7, the client's encryption
// input) and Set-A at L1 (a served matvec diagonal's shape).
func BenchmarkEncode(b *testing.B) {
	for _, c := range []struct {
		spec  ParamSpec
		level int
	}{{SetC, 7}, {SetA, 1}} {
		params, err := NewParams(c.spec)
		if err != nil {
			b.Fatal(err)
		}
		enc := NewEncoder(params)
		vals := randomComplex(rand.New(rand.NewSource(1)), params.Slots(), 1)
		b.Run(fmt.Sprintf("%s-L%d", strings.ReplaceAll(c.spec.Name, "-", ""), c.level), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := enc.Encode(vals, c.level, params.DefaultScale()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
