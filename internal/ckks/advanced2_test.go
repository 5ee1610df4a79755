package ckks

import (
	"math/rand"
	"testing"
)

// Noise must be (a) small for a fresh encryption, (b) larger after a
// multiplication chain, (c) -inf for a plaintext compared to itself.
func TestMeasureNoise(t *testing.T) {
	kit := newTestKit(t, smallSpec)
	rng := rand.New(rand.NewSource(62))
	v := randomComplex(rng, kit.params.Slots(), 1)
	pt, _ := kit.enc.Encode(v, kit.params.MaxLevel(), kit.params.DefaultScale())
	ct, _ := kit.encPk.Encrypt(pt)

	fresh, err := MeasureNoise(kit.params, kit.dec, ct, pt)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh noise is around the error distribution's magnitude, far below
	// the scale (2^40).
	if fresh > 30 || fresh < 2 {
		t.Fatalf("fresh noise log2 = %.1f, expected single-digit-to-20s", fresh)
	}

	sq, _ := kit.eval.MulRelin(ct, ct, kit.rlk)
	vv := make([]complex128, len(v))
	for i := range v {
		vv[i] = v[i] * v[i]
	}
	ptSq, _ := kit.enc.Encode(vv, kit.params.MaxLevel(), ct.Scale*ct.Scale)
	after, err := MeasureNoise(kit.params, kit.dec, sq, ptSq)
	if err != nil {
		t.Fatal(err)
	}
	if after <= fresh {
		t.Fatalf("noise should grow after multiplication: %.1f vs %.1f", after, fresh)
	}
}
