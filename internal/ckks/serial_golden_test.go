package ckks

// The byte format is frozen: durable WALs, fuzz corpora and plan ids
// outlive any one codec implementation. These tests hold the writers to
// a reference encoder built here from encoding/binary alone — the
// format's definition, field by field — and CiphertextBatchSize to the
// length of those bytes.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"sort"
	"testing"

	"heax/internal/ring"
)

type refEncoder struct{ bytes.Buffer }

func (e *refEncoder) put(vs ...any) {
	for _, v := range vs {
		if err := binary.Write(&e.Buffer, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
}

func (e *refEncoder) header(kind objectKind) { e.put(serialMagic, serialVersion, uint32(kind)) }

func (e *refEncoder) poly(p *ring.Poly) {
	e.put(uint32(len(p.Coeffs)), uint32(len(p.Coeffs[0])))
	for _, row := range p.Coeffs {
		e.put(row)
	}
}

func (e *refEncoder) ciphertextBody(ct *Ciphertext) {
	e.put(math.Float64bits(ct.Scale), uint32(ct.Level), uint32(len(ct.Polys)))
	for _, p := range ct.Polys {
		e.poly(p)
	}
}

func (e *refEncoder) switchingKey(swk *SwitchingKey) {
	e.put(uint32(len(swk.Digits)))
	for _, d := range swk.Digits {
		e.poly(d[0])
		e.poly(d[1])
	}
}

func (e *refEncoder) galoisKeyBody(gk *GaloisKey) {
	e.put(gk.GaloisElt)
	e.switchingKey(&gk.SwitchingKey)
}

func refCiphertext(ct *Ciphertext) []byte {
	var e refEncoder
	e.header(kindCiphertext)
	e.ciphertextBody(ct)
	return e.Bytes()
}

func refBatch(batch map[string]*Ciphertext) []byte {
	names := make([]string, 0, len(batch))
	for name := range batch {
		names = append(names, name)
	}
	sort.Strings(names)
	var e refEncoder
	e.header(kindCiphertextBatch)
	e.put(uint32(len(names)))
	for _, name := range names {
		e.put(uint32(len(name)), []byte(name))
		e.ciphertextBody(batch[name])
	}
	return e.Bytes()
}

func refEvaluationKeys(rlk *RelinearizationKey, gks *GaloisKeySet) []byte {
	var e refEncoder
	e.header(kindEvalKeys)
	flags := uint32(1 | 2)
	if gks.Conjugate != nil {
		flags |= 4
	}
	e.put(flags)
	e.switchingKey(&rlk.SwitchingKey)
	steps := make([]int, 0, len(gks.Rotations))
	for s := range gks.Rotations {
		steps = append(steps, s)
	}
	sort.Ints(steps)
	e.put(uint32(len(steps)))
	for _, s := range steps {
		e.put(int64(s))
		e.galoisKeyBody(gks.Rotations[s])
	}
	if gks.Conjugate != nil {
		e.galoisKeyBody(gks.Conjugate)
	}
	return e.Bytes()
}

func TestWritersMatchReferenceEncoding(t *testing.T) {
	for _, spec := range []ParamSpec{SetA, SetC} {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			if spec.LogN > 12 && testing.Short() {
				t.Skip("Set-C key material is ~60 MB")
			}
			kit := newTestKit(t, spec)
			encrypt := func(v complex128) *Ciphertext {
				pt, err := kit.enc.Encode([]complex128{v, -v}, kit.params.MaxLevel(), kit.params.DefaultScale())
				if err != nil {
					t.Fatal(err)
				}
				ct, err := kit.encPk.Encrypt(pt)
				if err != nil {
					t.Fatal(err)
				}
				return ct
			}
			deg1 := encrypt(1.5)
			deg2, err := kit.eval.Mul(deg1, encrypt(2))
			if err != nil {
				t.Fatal(err)
			}
			if deg2.Degree() != 2 {
				t.Fatalf("Mul returned degree %d", deg2.Degree())
			}
			lower := encrypt(3)
			lower, err = kit.eval.DropLevel(lower, 1)
			if err != nil {
				t.Fatal(err)
			}

			for name, ct := range map[string]*Ciphertext{"degree 1": deg1, "degree 2": deg2, "lower level": lower} {
				var got bytes.Buffer
				if err := WriteCiphertext(&got, ct); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), refCiphertext(ct)) {
					t.Errorf("%s ciphertext: bytes differ from the reference encoding", name)
				}
			}

			batch := map[string]*Ciphertext{"x": deg1, "weights": deg2, "b": lower}
			var got bytes.Buffer
			if err := WriteCiphertextBatch(&got, batch); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), refBatch(batch)) {
				t.Error("3-entry batch: bytes differ from the reference encoding")
			}
			if size, err := CiphertextBatchSize(batch); err != nil || size != got.Len() {
				t.Errorf("CiphertextBatchSize = %d, %v; the batch encodes to %d bytes", size, err, got.Len())
			}
			if size, err := CiphertextBatchSize(nil); err != nil || size != len(refBatch(nil)) {
				t.Errorf("CiphertextBatchSize(nil) = %d, %v; want %d", size, err, len(refBatch(nil)))
			}

			gks := kit.kg.GenGaloisKeySet(kit.sk, []int{1, -2}, true)
			got.Reset()
			if err := WriteEvaluationKeys(&got, kit.rlk, gks); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), refEvaluationKeys(kit.rlk, gks)) {
				t.Error("evaluation key set: bytes differ from the reference encoding")
			}
		})
	}
}

// TestCiphertextBatchSizeRejectsWhatWriteRejects: the size function
// fails exactly where the writer would, so a framing layer can refuse a
// batch before announcing it.
func TestCiphertextBatchSizeRejectsWhatWriteRejects(t *testing.T) {
	ct := &Ciphertext{}
	for name, batch := range map[string]map[string]*Ciphertext{
		"empty name": {"": ct},
		"long name":  {string(make([]byte, maxEntryNameLen+1)): ct},
	} {
		_, sizeErr := CiphertextBatchSize(batch)
		writeErr := WriteCiphertextBatch(&bytes.Buffer{}, batch)
		if sizeErr == nil || writeErr == nil || sizeErr.Error() != writeErr.Error() {
			t.Errorf("%s: size error %v, write error %v", name, sizeErr, writeErr)
		}
	}
}

// TestCorruptResidueLeavesNothingObservable: a residue ≥ its prime
// fails the read with ErrCorrupt and the caller gets no object — the
// polynomial the row was decoded into is never handed out.
func TestCorruptResidueLeavesNothingObservable(t *testing.T) {
	kit := newTestKit(t, streamSpec)
	pt, err := kit.enc.Encode([]complex128{1}, kit.params.MaxLevel(), kit.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := kit.encPk.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	primes := kit.params.RingQP.Basis.Primes
	// Poison the last coefficient of the last row of the last component:
	// every earlier row has been decoded and validated by then.
	poison := func(blob []byte) []byte {
		bad := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint64(bad[len(bad)-8:], primes[ct.Level])
		return bad
	}

	var one bytes.Buffer
	if err := WriteCiphertext(&one, ct); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadCiphertext(bytes.NewReader(poison(one.Bytes())), kit.params); !errors.Is(err, ErrCorrupt) || got != nil {
		t.Fatalf("ReadCiphertext on a poisoned residue: %v, %v; want nil, ErrCorrupt", got, err)
	}
	var batch bytes.Buffer
	if err := WriteCiphertextBatch(&batch, map[string]*Ciphertext{"a": ct, "b": ct}); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadCiphertextBatch(bytes.NewReader(poison(batch.Bytes())), kit.params); !errors.Is(err, ErrCorrupt) || got != nil {
		t.Fatalf("ReadCiphertextBatch on a poisoned residue: %v, %v; want nil, ErrCorrupt", got, err)
	}
}
