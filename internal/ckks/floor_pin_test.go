package ckks

import (
	"fmt"
	"math/rand"
	"testing"

	"heax/internal/ring"
)

// Every operation that divides by a dropped prime — Rescale (Algorithm 6
// with rounding), a hoisted rotation's key switch, a RotateSum's shared
// tail and public-key encryption — is pinned here to a hash per level,
// on schedSpec (IFMA rows throughout on an IFMA host) and mixedSpec
// (scalar rows and a 58-bit special prime beside IFMA rows), at one and
// at four workers. The key switch's own hashes are in
// TestKeySwitchWorkerInvariant.
type floorPins struct {
	rescale1, rescale2 []uint64 // levels 1..MaxLevel
	hoisted, rotSum    []uint64 // levels 0..MaxLevel
	encrypt            uint64
}

func TestFloorCallersPinned(t *testing.T) {
	floorCallersPinned(t, schedSpec, floorPins{
		rescale1: []uint64{0x4a200a361bfd88c4, 0xd5ecfc7b48c5effd, 0x260907861acf8ca9},
		rescale2: []uint64{0x4a0392cf8d7ac1e3, 0x9122422250dca5b9, 0x979c9a1154848c4a},
		hoisted:  []uint64{0x99c798ac7343427d, 0xca4a6e327cf00031, 0x55952036a04df35b, 0xaabad37bbfa99985},
		rotSum:   []uint64{0xd8e1c7d4cf153b64, 0x19330d06ad31dff6, 0x2b43d408a6f57774, 0xae488f8928db4edb},
		encrypt:  0xaf74a516f6455ccb,
	})
	floorCallersPinned(t, mixedSpec, floorPins{
		rescale1: []uint64{0xa309765abdcdb75a, 0x47ed601578cd9b91},
		rescale2: []uint64{0xef6387a852894cfa, 0xb72ed9d060b55398},
		hoisted:  []uint64{0x194a9518657743ed, 0xf03b788fa94fad15, 0x97ea71a20dc4e83d},
		rotSum:   []uint64{0x350e17798499bb1f, 0xea6e3ee7cd5b5262, 0x815988d71dea27f8},
		encrypt:  0x4fc6758707cd3c74,
	})
}

func floorCallersPinned(t *testing.T, spec ParamSpec, want floorPins) {
	params, err := NewParams(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx := params.RingQP
	kg := NewKeyGenerator(params, 11)
	sk := kg.GenSecretKey()
	gks := kg.GenGaloisKeySet(sk, []int{1, 2, 3, 4}, false)
	ev := NewEvaluator(params)
	rng := rand.New(rand.NewSource(29))
	randCt := func(degree, level int) *Ciphertext {
		ct := &Ciphertext{Scale: params.DefaultScale(), Level: level}
		for i := 0; i <= degree; i++ {
			ct.Polys = append(ct.Polys, schedRandomPoly(ctx, level+1, rng))
		}
		return ct
	}
	hashCt := func(cts ...*Ciphertext) uint64 {
		var ps []*ring.Poly
		for _, ct := range cts {
			ps = append(ps, ct.Polys...)
		}
		return polyHash(ps...)
	}
	check := func(what string, level int, pin uint64, run func() uint64) {
		t.Helper()
		for _, workers := range []int{1, 4} {
			ctx.SetWorkers(workers)
			if got := run(); got != pin {
				t.Errorf("%s %s level %d workers %d: hashes to %#x, want %#x", spec.Name, what, level, workers, got, pin)
			}
		}
	}
	for level := 0; level <= params.MaxLevel(); level++ {
		if level > 0 {
			for _, degree := range []int{1, 2} {
				ct := randCt(degree, level)
				pins := want.rescale1
				if degree == 2 {
					pins = want.rescale2
				}
				check(fmt.Sprintf("RescaleInto degree %d", degree), level, pins[level-1], func() uint64 {
					out := &Ciphertext{}
					if err := ev.RescaleInto(ct, out); err != nil {
						t.Fatal(err)
					}
					return hashCt(out)
				})
			}
		}
		ct := randCt(1, level)
		steps := []int{1, params.Slots(), -params.Slots() + 3}
		check("RotateHoistedInto", level, want.hoisted[level], func() uint64 {
			outs := []*Ciphertext{{}, {}, {}}
			if err := ev.RotateHoistedInto(ct, steps, gks, outs); err != nil {
				t.Fatal(err)
			}
			return hashCt(outs...)
		})
		// Four rotated terms and an unrotated addend, with tail sums of at
		// most two terms: the third term folds the first two, the close
		// takes a sum of two.
		var cts []*Ciphertext
		var keys []*GaloisKey
		for i := 1; i <= 5; i++ {
			cts = append(cts, randCt(1, level))
			var key *GaloisKey
			if i <= 4 {
				key = gks.Rotations[i]
			}
			keys = append(keys, key)
		}
		check("RotateSumInto", level, want.rotSum[level], func() uint64 {
			out := &Ciphertext{}
			if err := ev.RotateSumInto(cts, make([]*Plaintext, len(cts)), []int{1, 2, 3, 4, 5}, keys, out); err != nil {
				t.Fatal(err)
			}
			return hashCt(out)
		})
	}
	pt := &Plaintext{Value: schedRandomPoly(ctx, params.K(), rng), Scale: params.DefaultScale()}
	pk := kg.GenPublicKey(sk)
	check("public-key Encrypt", params.MaxLevel(), want.encrypt, func() uint64 {
		ct, err := NewEncryptor(params, pk, 43).Encrypt(pt)
		if err != nil {
			t.Fatal(err)
		}
		return hashCt(ct)
	})
}
