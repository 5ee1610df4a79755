package heax_test

// Serialization through the public types: the wire format a client and
// a HEAX-accelerated server exchange. Round trips must be bit-exact and
// evaluate identically; corrupted blobs must fail with ErrCorrupt.

import (
	"bytes"
	"errors"
	"testing"

	"heax"
)

func TestPublicSerializationRoundTrip(t *testing.T) {
	k := newAPIKit(t)

	// Params round trip: the receiver reconstructs an identical context.
	var buf bytes.Buffer
	if err := heax.WriteParams(&buf, k.params); err != nil {
		t.Fatal(err)
	}
	params2, err := heax.ReadParams(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if params2.N != k.params.N || params2.P != k.params.P || len(params2.Q) != len(k.params.Q) {
		t.Fatal("params round trip changed the instantiation")
	}
	for i := range params2.Q {
		if params2.Q[i] != k.params.Q[i] {
			t.Fatalf("prime %d changed across round trip", i)
		}
	}

	// Key round trips.
	buf.Reset()
	if err := heax.WriteSecretKey(&buf, k.sk); err != nil {
		t.Fatal(err)
	}
	sk2, err := heax.ReadSecretKey(&buf, params2)
	if err != nil {
		t.Fatal(err)
	}
	if !sk2.Value.Equal(k.sk.Value) {
		t.Fatal("secret key round trip not bit-exact")
	}

	buf.Reset()
	if err := heax.WriteRelinearizationKey(&buf, k.evk.Relin); err != nil {
		t.Fatal(err)
	}
	rlk2, err := heax.ReadRelinearizationKey(&buf, params2)
	if err != nil {
		t.Fatal(err)
	}

	buf.Reset()
	if err := heax.WriteGaloisKey(&buf, k.evk.Galois.Rotations[1]); err != nil {
		t.Fatal(err)
	}
	gk2, err := heax.ReadGaloisKey(&buf, params2)
	if err != nil {
		t.Fatal(err)
	}

	// Ciphertext round trip, then *evaluate* on the deserialized world:
	// the reconstructed keys and ciphertexts must produce bit-identical
	// results to the originals.
	x := k.encrypt(t, []float64{1.25, -0.5, 3.0})
	y := k.encrypt(t, []float64{0.75, 2.0, -1.5})
	buf.Reset()
	if err := heax.WriteCiphertext(&buf, x); err != nil {
		t.Fatal(err)
	}
	x2, err := heax.ReadCiphertext(&buf, params2)
	if err != nil {
		t.Fatal(err)
	}
	if !ctEqual(x, x2) || x2.Scale != x.Scale {
		t.Fatal("ciphertext round trip not bit-exact")
	}

	evk2 := &heax.EvaluationKeySet{
		Relin:  rlk2,
		Galois: &heax.GaloisKeySet{Rotations: map[int]*heax.GaloisKey{1: gk2}},
	}
	eval2 := heax.NewEvaluator(params2, evk2)

	want, err := k.eval.MulRelin(x, y)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eval2.MulRelin(x2, y)
	if err != nil {
		t.Fatal(err)
	}
	if !ctEqual(want, got) {
		t.Fatal("MulRelin through deserialized keys diverged")
	}

	wantRot, err := k.eval.RotateLeft(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	gotRot, err := eval2.RotateLeft(x2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ctEqual(wantRot, gotRot) {
		t.Fatal("rotation through deserialized Galois key diverged")
	}
}

// TestEvaluationKeySetSize: the size a framing layer announces before
// streaming a key set is exactly what WriteEvaluationKeySet writes, for
// every combination of key kinds.
func TestEvaluationKeySetSize(t *testing.T) {
	k := newAPIKit(t)
	rotations := &heax.GaloisKeySet{Rotations: k.evk.Galois.Rotations}
	if k.evk.Galois.Conjugate == nil {
		t.Fatal("the kit's key set must carry a conjugation key")
	}
	cases := []struct {
		name string
		evk  *heax.EvaluationKeySet
	}{
		{"nil", nil},
		{"empty", &heax.EvaluationKeySet{}},
		{"relinearization only", &heax.EvaluationKeySet{Relin: k.evk.Relin}},
		{"rotations only", &heax.EvaluationKeySet{Galois: rotations}},
		{"rotations with conjugation", &heax.EvaluationKeySet{Galois: k.evk.Galois}},
		{"everything", k.evk},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := heax.WriteEvaluationKeySet(&buf, tc.evk); err != nil {
			t.Fatal(err)
		}
		size, err := heax.EvaluationKeySetSize(tc.evk)
		if err != nil {
			t.Fatal(err)
		}
		if size != buf.Len() {
			t.Errorf("%s: EvaluationKeySetSize = %d, WriteEvaluationKeySet wrote %d bytes", tc.name, size, buf.Len())
		}
	}

	// More rotation keys than any reader accepts: both refuse the set
	// before a byte is written.
	many := &heax.GaloisKeySet{Rotations: make(map[int]*heax.GaloisKey)}
	for step := 1; step <= 1<<14+1; step++ {
		many.Rotations[step] = k.evk.Galois.Rotations[1]
	}
	tooMany := &heax.EvaluationKeySet{Galois: many}
	if _, err := heax.EvaluationKeySetSize(tooMany); err == nil {
		t.Error("EvaluationKeySetSize accepted more rotation keys than the wire format carries")
	}
	var buf bytes.Buffer
	if err := heax.WriteEvaluationKeySet(&buf, tooMany); err == nil || buf.Len() != 0 {
		t.Errorf("WriteEvaluationKeySet with too many rotation keys: error %v after %d bytes", err, buf.Len())
	}
}

func TestPublicSerializationCorruption(t *testing.T) {
	k := newAPIKit(t)
	x := k.encrypt(t, []float64{1, 2, 3})

	var buf bytes.Buffer
	if err := heax.WriteCiphertext(&buf, x); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	// Bad magic.
	bad := append([]byte(nil), blob...)
	bad[0] ^= 0xff
	if _, err := heax.ReadCiphertext(bytes.NewReader(bad), k.params); !errors.Is(err, heax.ErrCorrupt) {
		t.Fatalf("bad magic: got %v, want ErrCorrupt", err)
	}

	// Out-of-range residue: all primes are < 2^52, so an all-ones word
	// inside the coefficient payload must be rejected by validation.
	bad = append([]byte(nil), blob...)
	// header (12) + scale (8) + level (4) + ncomp (4) + rows (4) + n (4)
	// puts the first residue word at offset 36.
	for i := 36; i < 44; i++ {
		bad[i] = 0xff
	}
	if _, err := heax.ReadCiphertext(bytes.NewReader(bad), k.params); !errors.Is(err, heax.ErrCorrupt) {
		t.Fatalf("oversized residue: got %v, want ErrCorrupt", err)
	}

	// Truncation fails, even if not with ErrCorrupt (io errors surface
	// as-is).
	if _, err := heax.ReadCiphertext(bytes.NewReader(blob[:len(blob)/2]), k.params); err == nil {
		t.Fatal("truncated blob decoded successfully")
	}

	// Wrong object kind: a secret key blob read as a ciphertext.
	buf.Reset()
	if err := heax.WriteSecretKey(&buf, k.sk); err != nil {
		t.Fatal(err)
	}
	if _, err := heax.ReadCiphertext(&buf, k.params); !errors.Is(err, heax.ErrCorrupt) {
		t.Fatalf("wrong kind: got %v, want ErrCorrupt", err)
	}
}
