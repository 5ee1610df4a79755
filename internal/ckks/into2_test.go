package ckks

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"heax/internal/ring"
)

// The second wave of *Into kernels (Sub, MulPlain, AddPlain, InnerSum,
// hoisted multi-rotation) must match their allocating forms bit for bit
// — they are the pooled back end compiled plans execute on.

func polysEqual(t *testing.T, name string, a, b *Ciphertext) {
	t.Helper()
	if a.Level != b.Level || len(a.Polys) != len(b.Polys) || !ScalesClose(a.Scale, b.Scale) {
		t.Fatalf("%s: shape/scale differs (level %d vs %d, degree %d vs %d, scale %g vs %g)",
			name, a.Level, b.Level, a.Degree(), b.Degree(), a.Scale, b.Scale)
	}
	for i := range a.Polys {
		if !a.Polys[i].Equal(b.Polys[i]) {
			t.Fatalf("%s: component %d differs", name, i)
		}
	}
}

func TestIntoSecondWaveMatchesAllocating(t *testing.T) {
	kit := newTestKit(t, smallSpec)
	rng := rand.New(rand.NewSource(31))
	params := kit.params
	v1 := randomComplex(rng, params.Slots(), 1)
	v2 := randomComplex(rng, params.Slots(), 1)
	pt1, _ := kit.enc.Encode(v1, params.MaxLevel(), params.DefaultScale())
	pt2, _ := kit.enc.Encode(v2, params.MaxLevel(), params.DefaultScale())
	ct1, _ := kit.encPk.Encrypt(pt1)
	ct2, _ := kit.encPk.Encrypt(pt2)
	out, err := NewCiphertext(params, 1, params.MaxLevel(), 0)
	if err != nil {
		t.Fatal(err)
	}

	want, err := kit.eval.Sub(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	if err := kit.eval.SubInto(ct1, ct2, out); err != nil {
		t.Fatal(err)
	}
	polysEqual(t, "SubInto", want, out)

	// Sub with a degree-2 second operand exercises the negated-extra path
	// (the degree-1 operand carries the matching Δ² scale).
	deg2, err := kit.eval.Mul(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	sq1, err := kit.eval.MulPlain(ct1, pt2)
	if err != nil {
		t.Fatal(err)
	}
	want, err = kit.eval.Sub(sq1, deg2)
	if err != nil {
		t.Fatal(err)
	}
	out2, _ := NewCiphertext(params, 2, params.MaxLevel(), 0)
	if err := kit.eval.SubInto(sq1, deg2, out2); err != nil {
		t.Fatal(err)
	}
	polysEqual(t, "SubInto deg2", want, out2)

	want, err = kit.eval.MulPlain(ct1, pt2)
	if err != nil {
		t.Fatal(err)
	}
	if err := kit.eval.MulPlainInto(ct1, pt2, out); err != nil {
		t.Fatal(err)
	}
	polysEqual(t, "MulPlainInto", want, out)

	want, err = kit.eval.AddPlain(ct1, pt2)
	if err != nil {
		t.Fatal(err)
	}
	if err := kit.eval.AddPlainInto(ct1, pt2, out); err != nil {
		t.Fatal(err)
	}
	polysEqual(t, "AddPlainInto", want, out)

	// Aliased in-place forms.
	aliased := CopyOf(ct1)
	if err := kit.eval.MulPlainInto(aliased, pt2, aliased); err != nil {
		t.Fatal(err)
	}
	want, _ = kit.eval.MulPlain(ct1, pt2)
	polysEqual(t, "aliased MulPlainInto", want, aliased)

	gks := kit.kg.GenGaloisKeySet(kit.sk, []int{1, 2, 4}, false)
	want, err = kit.eval.InnerSum(ct1, 8, gks)
	if err != nil {
		t.Fatal(err)
	}
	if err := kit.eval.InnerSumInto(ct1, 8, gks, out); err != nil {
		t.Fatal(err)
	}
	polysEqual(t, "InnerSumInto", want, out)

	// A missing span key must fail before anything is written — out may
	// alias the input, which must come through unscathed.
	partial := kit.kg.GenGaloisKeySet(kit.sk, []int{2, 4}, false) // no step-1 key
	aliased2 := CopyOf(ct1)
	if err := kit.eval.InnerSumInto(aliased2, 8, partial, aliased2); err == nil {
		t.Fatal("InnerSumInto with a missing span key must fail")
	}
	polysEqual(t, "InnerSumInto failed-aliased input", ct1, aliased2)
}

func TestRotateHoistedIntoMatchesRotateHoisted(t *testing.T) {
	kit := newTestKit(t, smallSpec)
	rng := rand.New(rand.NewSource(32))
	params := kit.params
	v := randomComplex(rng, params.Slots(), 1)
	pt, _ := kit.enc.Encode(v, params.MaxLevel(), params.DefaultScale())
	ct, _ := kit.encPk.Encrypt(pt)
	steps := []int{0, 1, 3, 7}
	gks := kit.kg.GenGaloisKeySet(kit.sk, steps[1:], false)

	want, err := kit.eval.RotateHoisted(ct, steps, gks)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]*Ciphertext, len(steps))
	for i := range outs {
		outs[i], _ = NewCiphertext(params, 1, params.MaxLevel(), 0)
	}
	if err := kit.eval.RotateHoistedInto(ct, steps, gks, outs); err != nil {
		t.Fatal(err)
	}
	for i, s := range steps {
		polysEqual(t, "RotateHoistedInto", want[s], outs[i])
	}

	// A missing key fails before any output is touched.
	if err := kit.eval.RotateHoistedInto(ct, []int{99}, gks, outs[:1]); err == nil {
		t.Fatal("missing key must fail")
	}
	if err := kit.eval.RotateHoistedInto(ct, []int{1, 2}, gks, outs[:1]); err == nil {
		t.Fatal("length mismatch must fail")
	}

	// An output sharing the input's storage would overwrite the c0 a later
	// step still reads, and one output given twice would hold only the last
	// step: both are refused before any output is written.
	for name, bad := range map[string][]*Ciphertext{
		"input":       {ct, outs[1]},
		"input's c0":  {outs[0], {Polys: []*ring.Poly{ct.Polys[0].Resize(1), outs[1].Polys[1]}}},
		"a view":      {outs[0], {Polys: []*ring.Poly{outs[1].Polys[0], &ring.Poly{Coeffs: ct.Polys[1].Coeffs[:2]}}}},
		"a duplicate": {outs[1], outs[1]},
		"later rows": {outs[0], {Polys: []*ring.Poly{
			{Coeffs: append([][]uint64{make([]uint64, params.N)}, ct.Polys[0].Coeffs[1:]...)}, outs[1].Polys[1]}}},
	} {
		snaps := []*Ciphertext{CopyOf(ct), CopyOf(outs[0]), CopyOf(outs[1])}
		err := kit.eval.RotateHoistedInto(ct, []int{1, 3}, gks, bad)
		if !errors.Is(err, ErrLevelMismatch) {
			t.Fatalf("an output aliasing %s: err = %v, want ErrLevelMismatch", name, err)
		}
		for i, c := range []*Ciphertext{ct, outs[0], outs[1]} {
			polysEqual(t, "a refused RotateHoistedInto ("+name+")", snaps[i], c)
		}
	}
}

// MulPlainSumInto must equal MulPlain on each pair followed by Add in
// order, bit for bit and to the scale: on 40/43-bit rows (hundreds of
// products per reduction), on 49-bit rows (four), on mixedSpec's 55-bit
// scalar row beside its 45-bit IFMA rows, with lists that fit one
// ring.DotChunk and lists that chain several, one level down (operand
// polynomials longer than the result), serial and fanned out.
func TestMulPlainSumIntoMatchesMulPlainAdd(t *testing.T) {
	wide := ParamSpec{Name: "sum-49", LogN: 10, QBits: []int{49, 49, 49}, PBits: 46, LogScale: 40}
	for _, spec := range []ParamSpec{smallSpec, wide, mixedSpec} {
		kit := newTestKit(t, spec)
		params := kit.params
		rng := rand.New(rand.NewSource(33))
		const most = 70
		cts, pts := make([]*Ciphertext, most), make([]*Plaintext, most)
		for i := range cts {
			pts[i], _ = kit.enc.Encode(randomComplex(rng, params.Slots(), 1), params.MaxLevel(), params.DefaultScale())
			cts[i], _ = kit.encPk.Encrypt(pts[i])
		}
		cts[1], cts[3] = cts[0], cts[0] // shared operands, as baby steps are
		pts[2] = pts[1]
		for _, level := range []int{params.MaxLevel(), 1} {
			for _, terms := range []int{1, 2, 5, ring.DotChunk, ring.DotChunk + 1, most} {
				c, p := make([]*Ciphertext, terms), make([]*Plaintext, terms)
				for i := range c {
					c[i], _ = kit.eval.DropLevel(cts[i], level)
					p[i] = pts[i]
				}
				want, err := kit.eval.MulPlain(c[0], p[0])
				for i := 1; i < terms && err == nil; i++ {
					var term *Ciphertext
					if term, err = kit.eval.MulPlain(c[i], p[i]); err == nil {
						want, err = kit.eval.Add(want, term)
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 4} {
					ev := NewEvaluator(params)
					ev.SetWorkers(workers)
					out, _ := NewCiphertext(params, 2, params.MaxLevel(), 0)
					if err := ev.MulPlainSumInto(c, p, out); err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%s level %d, %d terms, %d workers", spec.Name, level, terms, workers)
					polysEqual(t, name, want, out)
					if out.Scale != want.Scale {
						t.Fatalf("%s: scale %g, want %g", name, out.Scale, want.Scale)
					}
				}
			}
		}
	}
}

// MulPlainSumInto refuses what the MulPlain/Add sequence it replaces
// would refuse, or could not express, with the same typed errors.
func TestMulPlainSumIntoErrors(t *testing.T) {
	kit := newTestKit(t, smallSpec)
	params := kit.params
	top, scale := params.MaxLevel(), params.DefaultScale()
	rng := rand.New(rand.NewSource(34))
	encode := func(level int, scale float64) *Plaintext {
		pt, err := kit.enc.Encode(randomComplex(rng, params.Slots(), 1), level, scale)
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}
	pt := encode(top, scale)
	x, _ := kit.encPk.Encrypt(pt)
	xLow, _ := kit.eval.DropLevel(x, 1)
	deg2, _ := kit.eval.Mul(x, x)
	out, _ := NewCiphertext(params, 1, top, 0)
	shallow, _ := NewCiphertext(params, 1, top, 0)
	for _, p := range shallow.Polys {
		p.Coeffs = p.Coeffs[:1:1]
	}
	for _, tc := range []struct {
		name string
		cts  []*Ciphertext
		pts  []*Plaintext
		out  *Ciphertext
		want error
	}{
		{"a term one level down", []*Ciphertext{x, xLow}, []*Plaintext{pt, pt}, out, ErrLevelMismatch},
		{"a plaintext one level down", []*Ciphertext{x, x}, []*Plaintext{pt, encode(1, scale)}, out, ErrLevelMismatch},
		{"a degree-2 term", []*Ciphertext{x, deg2}, []*Plaintext{pt, pt}, out, ErrDegreeMismatch},
		{"a product at twice the scale", []*Ciphertext{x, x}, []*Plaintext{pt, encode(top, 2*scale)}, out, ErrScaleMismatch},
		{"an output too shallow", []*Ciphertext{x, x}, []*Plaintext{pt, pt}, shallow, ErrLevelMismatch},
		{"no terms", nil, nil, out, nil},
		{"more ciphertexts than plaintexts", []*Ciphertext{x, x}, []*Plaintext{pt}, out, nil},
	} {
		err := kit.eval.MulPlainSumInto(tc.cts, tc.pts, tc.out)
		if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}
