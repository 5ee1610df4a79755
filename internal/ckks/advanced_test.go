package ckks

import (
	"math"
	"math/rand"
	"testing"
)

// Hoisted rotation is not bit-identical to the plain path — the Galois
// automorphism does not commute with gadget decomposition over the
// integer lifts (digits differ by multiples of p_i, both are valid
// low-norm decompositions) — but both must decrypt to the same rotated
// message with comparable noise.
func TestRotateHoistedMatchesRotate(t *testing.T) {
	kit := newTestKit(t, smallSpec)
	rng := rand.New(rand.NewSource(23))
	slots := kit.params.Slots()
	v := randomComplex(rng, slots, 1)
	pt, _ := kit.enc.Encode(v, kit.params.MaxLevel(), kit.params.DefaultScale())
	ct, _ := kit.encPk.Encrypt(pt)
	steps := []int{1, 3, 7}
	gks := kit.kg.GenGaloisKeySet(kit.sk, steps, false)

	hoisted, err := kit.eval.RotateHoisted(ct, append([]int{0}, steps...), gks)
	if err != nil {
		t.Fatal(err)
	}
	if !hoisted[0].Polys[0].Equal(ct.Polys[0]) {
		t.Fatal("step 0 must be a copy")
	}
	for _, s := range steps {
		plain, err := kit.eval.RotateLeft(ct, s, gks)
		if err != nil {
			t.Fatal(err)
		}
		decP, _ := kit.dec.Decrypt(plain)
		decH, _ := kit.dec.Decrypt(hoisted[s])
		gotP := kit.enc.Decode(decP)
		gotH := kit.enc.Decode(decH)
		want := make([]complex128, slots)
		for i := range want {
			want[i] = v[(i+s)%slots]
		}
		if e := maxErr(gotH, want); e > 1e-3 {
			t.Fatalf("step %d: hoisted rotation error %g", s, e)
		}
		if e := maxErr(gotH, gotP); e > 1e-3 {
			t.Fatalf("step %d: hoisted and plain rotations diverge by %g", s, e)
		}
	}
	// Missing key error path.
	if _, err := kit.eval.RotateHoisted(ct, []int{99}, gks); err == nil {
		t.Fatal("missing key should fail")
	}
	prod, _ := kit.eval.Mul(ct, ct)
	if _, err := kit.eval.RotateHoisted(prod, steps, gks); err == nil {
		t.Fatal("degree-2 input should fail")
	}
}

func TestInnerSum(t *testing.T) {
	kit := newTestKit(t, smallSpec)
	rng := rand.New(rand.NewSource(24))
	slots := kit.params.Slots()
	v := randomComplex(rng, slots, 1)
	pt, _ := kit.enc.Encode(v, kit.params.MaxLevel(), kit.params.DefaultScale())
	ct, _ := kit.encPk.Encrypt(pt)
	n2 := 8
	gks := kit.kg.GenGaloisKeySet(kit.sk, []int{1, 2, 4}, false)

	sum, err := kit.eval.InnerSum(ct, n2, gks)
	if err != nil {
		t.Fatal(err)
	}
	dec, _ := kit.dec.Decrypt(sum)
	got := kit.enc.Decode(dec)
	want := make([]complex128, slots)
	for i := range want {
		var s complex128
		for j := 0; j < n2; j++ {
			s += v[(i+j)%slots]
		}
		want[i] = s
	}
	if e := maxErr(got, want); e > 1e-2 {
		t.Fatalf("InnerSum error %g", e)
	}
	if _, err := kit.eval.InnerSum(ct, 3, gks); err == nil {
		t.Fatal("non-power-of-two width should fail")
	}
}

func TestPrecisionStats(t *testing.T) {
	got := []complex128{1.001, 2}
	want := []complex128{1, 2}
	s := Precision(got, want)
	if math.Abs(s.MaxErr-0.001) > 1e-12 {
		t.Fatalf("MaxErr = %g", s.MaxErr)
	}
	if s.MeanErr <= 0 || s.MeanErr > s.MaxErr {
		t.Fatalf("MeanErr = %g", s.MeanErr)
	}
	if s.MinLogPrec < 9.9 || s.MinLogPrec > 10 {
		t.Fatalf("MinLogPrec = %g", s.MinLogPrec)
	}
	exact := Precision(want, want)
	if !math.IsInf(exact.MinLogPrec, 1) {
		t.Fatal("exact match should have infinite precision")
	}
}
