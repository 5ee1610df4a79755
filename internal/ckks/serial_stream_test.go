package ckks

// Tests for the framed aggregate codecs (evaluation key sets and named
// ciphertext batches) and for the truncation contract of every reader:
// a prefix of a valid blob — any prefix — must fail with ErrCorrupt,
// never panic, never over-allocate, never return a partial object.

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
)

// streamSpec keeps key material small enough to truncate exhaustively.
var streamSpec = ParamSpec{Name: "stream", LogN: 4, QBits: []int{30, 30}, PBits: 31, LogScale: 20}

func streamKeys(t testing.TB) (*Params, *RelinearizationKey, *GaloisKeySet) {
	t.Helper()
	params := MustParams(streamSpec)
	kg := NewKeyGenerator(params, 5)
	sk := kg.GenSecretKey()
	return params, kg.GenRelinearizationKey(sk), kg.GenGaloisKeySet(sk, []int{1, 3, -2}, true)
}

func TestEvaluationKeysRoundTrip(t *testing.T) {
	params, rlk, gks := streamKeys(t)
	var buf bytes.Buffer
	if err := WriteEvaluationKeys(&buf, rlk, gks); err != nil {
		t.Fatal(err)
	}
	rlk2, gks2, err := ReadEvaluationKeys(bytes.NewReader(buf.Bytes()), params)
	if err != nil {
		t.Fatal(err)
	}
	if rlk2 == nil || len(rlk2.Digits) != len(rlk.Digits) {
		t.Fatal("relinearization key did not round trip")
	}
	for i := range rlk.Digits {
		if !rlk2.Digits[i][0].Equal(rlk.Digits[i][0]) || !rlk2.Digits[i][1].Equal(rlk.Digits[i][1]) {
			t.Fatalf("relin digit %d differs", i)
		}
	}
	if len(gks2.Rotations) != len(gks.Rotations) {
		t.Fatalf("rotation key count %d != %d", len(gks2.Rotations), len(gks.Rotations))
	}
	for step, gk := range gks.Rotations {
		gk2 := gks2.Rotations[step]
		if gk2 == nil || gk2.GaloisElt != gk.GaloisElt {
			t.Fatalf("rotation key %d did not round trip", step)
		}
	}
	if gks2.Conjugate == nil || gks2.Conjugate.GaloisElt != gks.Conjugate.GaloisElt {
		t.Fatal("conjugation key did not round trip")
	}

	// Deterministic bytes: equal key sets serialize identically.
	var buf2 bytes.Buffer
	if err := WriteEvaluationKeys(&buf2, rlk2, gks2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-serialization is not byte-identical")
	}

	// Nil halves are legal.
	buf.Reset()
	if err := WriteEvaluationKeys(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	r0, g0, err := ReadEvaluationKeys(&buf, params)
	if err != nil || r0 != nil || g0 != nil {
		t.Fatalf("empty key set round trip: %v %v %v", r0, g0, err)
	}
}

// A decoded key set occupies what its wire blob does. The serve layer
// charges a tenant's byte budget the blob length, so anything a decoder
// builds beside the key polynomials is resident memory nobody counted.
func TestDecodedKeySetIsBlobSized(t *testing.T) {
	params := MustParams(SetB)
	// Generated in a call of its own, so no stack slot of this frame
	// keeps the originals alive across the first measurement.
	blob := func() []byte {
		kg := NewKeyGenerator(params, 5)
		sk := kg.GenSecretKey()
		var buf bytes.Buffer
		if err := WriteEvaluationKeys(&buf, kg.GenRelinearizationKey(sk), kg.GenGaloisKeySet(sk, []int{1, 2, 4, 8}, false)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()

	// Two collections each: a sync.Pool entry (the ring's scratch polys)
	// survives the first in the pool's victim cache.
	liveHeap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := liveHeap()
	rlk, gks, err := ReadEvaluationKeys(bytes.NewReader(blob), params)
	if err != nil {
		t.Fatal(err)
	}
	grew := liveHeap() - before
	if limit := int64(len(blob)) * 5 / 4; grew > limit {
		t.Fatalf("decoding a %d-byte key set left %d bytes live, want at most %d", len(blob), grew, limit)
	}
	// Whatever the first measurement counted stays live for the second.
	runtime.KeepAlive(params)
	runtime.KeepAlive(blob)
	runtime.KeepAlive(rlk)
	runtime.KeepAlive(gks)
}

func TestCiphertextBatchRoundTrip(t *testing.T) {
	kit := newTestKit(t, streamSpec)
	batch := map[string]*Ciphertext{}
	for _, name := range []string{"x", "weights", "b"} {
		pt, err := kit.enc.Encode([]complex128{1, 2, 3}, kit.params.MaxLevel(), kit.params.DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		ct, err := kit.encPk.Encrypt(pt)
		if err != nil {
			t.Fatal(err)
		}
		batch[name] = ct
	}
	var buf bytes.Buffer
	if err := WriteCiphertextBatch(&buf, batch); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCiphertextBatch(bytes.NewReader(buf.Bytes()), kit.params)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(batch) {
		t.Fatalf("entry count %d != %d", len(got), len(batch))
	}
	for name, ct := range batch {
		g := got[name]
		if g == nil || g.Scale != ct.Scale || g.Level != ct.Level || len(g.Polys) != len(ct.Polys) {
			t.Fatalf("entry %q metadata differs", name)
		}
		for i := range ct.Polys {
			if !g.Polys[i].Equal(ct.Polys[i]) {
				t.Fatalf("entry %q polynomial %d differs", name, i)
			}
		}
	}
}

// TestReadersRejectTruncation cuts every reader's valid blob at every
// byte offset and requires ErrCorrupt each time.
func TestReadersRejectTruncation(t *testing.T) {
	params, rlk, gks := streamKeys(t)
	kit := newTestKit(t, streamSpec)
	pt, err := kit.enc.Encode([]complex128{1, 2}, kit.params.MaxLevel(), kit.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := kit.encPk.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		write func(io.Writer) error
		read  func(io.Reader) error
	}{
		{"params",
			func(w io.Writer) error { return WriteParams(w, params) },
			func(r io.Reader) error { _, err := ReadParams(r); return err }},
		{"ciphertext",
			func(w io.Writer) error { return WriteCiphertext(w, ct) },
			func(r io.Reader) error { _, err := ReadCiphertext(r, kit.params); return err }},
		{"secret key",
			func(w io.Writer) error { return WriteSecretKey(w, kit.sk) },
			func(r io.Reader) error { _, err := ReadSecretKey(r, kit.params); return err }},
		{"public key",
			func(w io.Writer) error { return WritePublicKey(w, kit.pk) },
			func(r io.Reader) error { _, err := ReadPublicKey(r, kit.params); return err }},
		{"relinearization key",
			func(w io.Writer) error { return WriteRelinearizationKey(w, rlk) },
			func(r io.Reader) error { _, err := ReadRelinearizationKey(r, params); return err }},
		{"galois key",
			func(w io.Writer) error { return WriteGaloisKey(w, gks.Rotations[1]) },
			func(r io.Reader) error { _, err := ReadGaloisKey(r, params); return err }},
		{"evaluation keys",
			func(w io.Writer) error { return WriteEvaluationKeys(w, rlk, gks) },
			func(r io.Reader) error { _, _, err := ReadEvaluationKeys(r, params); return err }},
		{"ciphertext batch",
			func(w io.Writer) error {
				return WriteCiphertextBatch(w, map[string]*Ciphertext{"x": ct, "y": ct})
			},
			func(r io.Reader) error { _, err := ReadCiphertextBatch(r, kit.params); return err }},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := tc.write(&buf); err != nil {
			t.Fatalf("%s: write: %v", tc.name, err)
		}
		valid := buf.Bytes()
		if err := tc.read(bytes.NewReader(valid)); err != nil {
			t.Fatalf("%s: full blob must read back: %v", tc.name, err)
		}
		for cut := 0; cut < len(valid); cut++ {
			err := tc.read(bytes.NewReader(valid[:cut]))
			if err == nil {
				t.Fatalf("%s: accepted a %d/%d-byte truncation", tc.name, cut, len(valid))
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: truncation at %d must wrap ErrCorrupt, got %v", tc.name, cut, err)
			}
		}
	}
}

// TestBatchReaderBoundsPrefixes: oversized counts and name lengths are
// rejected before any allocation proportional to them.
func TestBatchReaderBoundsPrefixes(t *testing.T) {
	kit := newTestKit(t, streamSpec)
	// Claim 2^32-1 entries.
	blob := []byte{0x58, 0x41, 0x45, 0x48, 1, 0, 0, 0, 9, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}
	if _, err := ReadCiphertextBatch(bytes.NewReader(blob), kit.params); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized entry count must be ErrCorrupt, got %v", err)
	}
	// One entry with a 2^31 name length.
	blob = []byte{0x58, 0x41, 0x45, 0x48, 1, 0, 0, 0, 9, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0x80}
	if _, err := ReadCiphertextBatch(bytes.NewReader(blob), kit.params); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized name length must be ErrCorrupt, got %v", err)
	}
	// Evaluation keys claiming 2^32-1 rotation keys.
	blob = []byte{0x58, 0x41, 0x45, 0x48, 1, 0, 0, 0, 8, 0, 0, 0, 2, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}
	if _, _, err := ReadEvaluationKeys(bytes.NewReader(blob), MustParams(streamSpec)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized rotation count must be ErrCorrupt, got %v", err)
	}
}
