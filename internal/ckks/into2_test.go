package ckks

import (
	"errors"
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
