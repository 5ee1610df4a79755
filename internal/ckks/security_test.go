package ckks

import (
	"fmt"
	"math/rand"
	"testing"
)

// The Table 2 parameter sets sit exactly at the 128-bit boundary of the
// HE security standard — the paper chose them that way.
func TestStandardSetsSecurity(t *testing.T) {
	for _, spec := range StandardSets {
		params := MustParams(spec)
		lvl, err := params.SecurityLevel()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if lvl != 128 {
			t.Errorf("%s: security level %d, want 128", spec.Name, lvl)
		}
		bound, err := maxLogQP(params.N, 128)
		if err != nil {
			t.Fatal(err)
		}
		if got := params.TotalModulusBits(); got != bound {
			t.Errorf("%s: log qp = %d, standard's 128-bit bound is %d (paper sets saturate it)", spec.Name, got, bound)
		}
	}
}

func TestSecurityLevelErrors(t *testing.T) {
	params := MustParams(smallSpec)
	// n = 2^10 with 163 modulus bits is far above the 27-bit bound.
	if _, err := params.SecurityLevel(); err == nil {
		t.Error("oversized modulus should fail the security check")
	}
	if _, err := maxLogQP(1000, 128); err == nil {
		t.Error("unknown n should fail")
	}
	if _, err := maxLogQP(1<<12, 100); err == nil {
		t.Error("unknown security level should fail")
	}
}

func TestHigherSecurityLevels(t *testing.T) {
	// A 50-bit modulus at n=2^12 clears the 192- and 256-bit bounds too.
	spec := ParamSpec{Name: "tiny-q", LogN: 12, QBits: []int{25}, PBits: 25, LogScale: 20}
	params := MustParams(spec)
	lvl, err := params.SecurityLevel()
	if err != nil {
		t.Fatal(err)
	}
	if lvl != 256 {
		t.Fatalf("50-bit modulus at n=2^12 should be 256-bit secure, got %d", lvl)
	}
}

// Re-keying: encrypt under key 1, switch, decrypt under key 2.
func TestSwitchKeys(t *testing.T) {
	kit := newTestKit(t, smallSpec)
	kg2 := NewKeyGenerator(kit.params, 77)
	sk2 := kg2.GenSecretKey()
	swk := kit.kg.GenSwitchingKey(kit.sk, sk2)

	rng := rand.New(rand.NewSource(50))
	v := randomComplex(rng, kit.params.Slots(), 1)
	pt, _ := kit.enc.Encode(v, kit.params.MaxLevel(), kit.params.DefaultScale())
	ct, _ := kit.encPk.Encrypt(pt)

	ct2, err := kit.eval.SwitchKeys(ct, swk)
	if err != nil {
		t.Fatal(err)
	}
	dec2 := NewDecryptor(kit.params, sk2)
	out, err := dec2.Decrypt(ct2)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxErr(kit.enc.Decode(out), v); e > 1e-3 {
		t.Fatalf("re-keyed decryption error %g", e)
	}
	// The old key must no longer decrypt it to the message.
	wrong, _ := kit.dec.Decrypt(ct2)
	if e := maxErr(kit.enc.Decode(wrong), v); e < 1e-1 {
		t.Fatal("old key still decrypts after switching")
	}
	prod, _ := kit.eval.Mul(ct, ct)
	if _, err := kit.eval.SwitchKeys(prod, swk); err == nil {
		t.Fatal("degree-2 input should fail")
	}
}

// maxLogQP is the standard's bound on log2 qp for ring degree n at the
// given security level.
func maxLogQP(n, security int) (int, error) {
	row, ok := heStdMaxLogQP[n]
	if !ok {
		return 0, fmt.Errorf("ckks: no security table entry for n = %d", n)
	}
	b, ok := row[security]
	if !ok {
		return 0, fmt.Errorf("ckks: no entry for %d-bit security", security)
	}
	return b, nil
}
