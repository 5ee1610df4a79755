package heax

// Sub-ring encoding: a multiplier with a periodic payload of period
// n ≤ N/(2·Lanes) is encoded straight into compact rows. These tests hold
// those rows to the block scan of the full-ring encoding of the tiled
// slot vector, word for word, and the zero-plaintext refusal to the one
// that encoding gives.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"heax/internal/ckks"
	"heax/internal/ring"
	"heax/internal/uintmod"
)

// fullRingCompact is what Compile stored for a periodic multiplier before
// sub-ring encoding: Encode of the tiled slot vector (a full N-point
// transform per row), then the block scan. zero reports the zero
// plaintext.
func fullRingCompact(t *testing.T, enc *Encoder, vals []complex128, level int, scale float64) (rows [][]uint64, zero bool) {
	t.Helper()
	tiled := make([]complex128, enc.Slots())
	for i := range tiled {
		tiled[i] = vals[i%len(vals)]
	}
	pt, err := enc.Encode(tiled, level, scale)
	if err != nil {
		t.Fatal(err)
	}
	rows = compacted(pt.Value)
	if rows == nil {
		t.Fatalf("period %d: the full-ring encoding is not block-constant", len(vals))
	}
	return rows, zeroPlaintext(pt.Value)
}

// TestSubRingEncodingMatchesFullRing: for Sets A–C, every period from 1
// to N/(2·Lanes), three levels and three scales (the default, one off a
// power of two, and one whose coefficients take the big-integer path),
// real and complex payloads, the compiler's encoding job stores exactly
// the rows the full-ring encoding compacts to; and a payload scaled down
// until some or all of it rounds away is refused as the zero plaintext
// exactly when the full-ring encoding is zero.
func TestSubRingEncodingMatchesFullRing(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	refused := map[bool]int{} // full-ring zero → cases seen
	for _, spec := range []ParamSpec{SetA, SetB, SetC} {
		params := MustParams(spec)
		k := &compiler{params: params, enc: NewEncoder(params)}
		short := params.N / uintmod.Lanes
		top := params.MaxLevel()
		encode := func(vals []complex128, level int, scale float64) (*Plaintext, error) {
			j := encodeJob{
				node:    &cnode{kind: kindMulPlain, vals: vals, periodic: true},
				level:   level,
				compact: true,
				pt:      &Plaintext{Scale: scale},
			}
			return j.pt, k.encode(&j)
		}
		for n := 1; 2*n <= short; n *= 2 {
			for _, cplx := range []bool{false, true} {
				vals := make([]complex128, n)
				for i := range vals {
					vals[i] = complex(2*rng.Float64()-1, 0)
					if cplx {
						vals[i] += complex(0, 2*rng.Float64()-1)
					}
				}
				for _, level := range []int{0, top / 2, top} {
					for _, scale := range []float64{params.DefaultScale(), math.Ldexp(1.37, 20), math.Exp2(70)} {
						name := fmt.Sprintf("%s n=%d complex=%v level=%d scale=2^%.2f", spec.Name, n, cplx, level, math.Log2(scale))
						want, _ := fullRingCompact(t, k.enc, vals, level, scale)
						pt, err := encode(vals, level, scale)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						checkRows(t, name, pt.Value, want, short)
					}
				}
				// Scaled down at scale 2^30 until some, then all, of the
				// coefficients round to 0.
				for _, shrink := range []float64{0x1p-26, 0x1p-29, 0x1p-31, 0x1p-40} {
					small := make([]complex128, n)
					for i, v := range vals {
						small[i] = v * complex(shrink, 0)
					}
					name := fmt.Sprintf("%s n=%d complex=%v shrink=%g", spec.Name, n, cplx, shrink)
					want, zero := fullRingCompact(t, k.enc, small, top, 0x1p30)
					pt, err := encode(small, top, 0x1p30)
					refused[zero]++
					if got := errors.Is(err, ErrUnencodable); got != zero {
						t.Fatalf("%s: refused %v (%v), the full-ring encoding zero %v", name, got, err, zero)
					}
					if err == nil {
						checkRows(t, name, pt.Value, want, short)
					}
				}
			}
		}
	}
	if refused[true] == 0 || refused[false] == 0 {
		t.Fatalf("the shrunk payloads cover %d zero and %d non-zero encodings, want both", refused[true], refused[false])
	}
}

func checkRows(t *testing.T, name string, got *ring.Poly, want [][]uint64, short int) {
	t.Helper()
	if len(got.Coeffs) != len(want) {
		t.Fatalf("%s: %d rows, want %d", name, len(got.Coeffs), len(want))
	}
	for i, row := range got.Coeffs {
		if len(row) != short {
			t.Fatalf("%s: row %d holds %d values, want %d", name, i, len(row), short)
		}
		for j, x := range row {
			if x != want[i][j] {
				t.Fatalf("%s: row %d value %d = %d, want %d", name, i, j, x, want[i][j])
			}
		}
	}
}

// TestEncodeIntoShortRows: EncodeInto refuses rows too short for the
// payload's period, rows that are not a power of two long and rows of
// unequal length, and writes a short row that is the full row's blocks.
func TestEncodeIntoShortRows(t *testing.T) {
	params := MustParams(SetA)
	enc := NewEncoder(params)
	vals := []complex128{0.5, -0.25, 1, 0.125}
	rows := func(lens ...int) *ring.Poly {
		p := &ring.Poly{}
		for _, l := range lens {
			p.Coeffs = append(p.Coeffs, make([]uint64, l))
		}
		return p
	}
	for _, bad := range []struct {
		name     string
		dst      *ring.Poly
		periodic bool
	}{
		{"shorter than 2n", rows(4, 4), true},
		{"not a power of two", rows(24, 24), true},
		{"unequal rows", rows(16, 32), true},
		{"longer than N", rows(2*params.N, 2*params.N), true},
		{"short row, not periodic", rows(params.N/2, params.N/2), false},
	} {
		if err := ckks.EncodeInto(enc, bad.dst, vals, bad.periodic, params.DefaultScale()); err == nil {
			t.Errorf("%s: accepted", bad.name)
		}
	}
	full := params.RingQP.NewPoly(2)
	if err := ckks.EncodeInto(enc, full, vals, true, params.DefaultScale()); err != nil {
		t.Fatal(err)
	}
	for _, l := range []int{8, 64, params.N / 2} {
		dst := rows(l, l)
		if err := ckks.EncodeInto(enc, dst, vals, true, params.DefaultScale()); err != nil {
			t.Fatal(err)
		}
		for i, row := range dst.Coeffs {
			for j, x := range row {
				if want := full.Coeffs[i][j*params.N/l]; x != want {
					t.Fatalf("rows of %d: row %d value %d = %d, want %d", l, i, j, x, want)
				}
			}
		}
	}
}
