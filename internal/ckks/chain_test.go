package ckks

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"heax/internal/ring"
	"heax/internal/uintmod"
)

// Every chain kernel must equal its producer's *Into kernel followed by
// MulPlainInto, AddPlainInto and RescaleInto stage by stage, in bits,
// scale and level: with no producer, a relinearized product, a sum of
// rotations with an unrotated term and one of rotations alone (whose
// second component has no Q sum), through one to three rescales with
// constants and a plaintext addition between them, inline and fanned out,
// on schedSpec and on mixedSpec (scalar rows and a 58-bit special prime).
func TestChainsMatchStages(t *testing.T) {
	for _, spec := range []ParamSpec{schedSpec, mixedSpec} {
		params, err := NewParams(spec)
		if err != nil {
			t.Fatal(err)
		}
		ctx := params.RingQP
		kg := NewKeyGenerator(params, 11)
		sk := kg.GenSecretKey()
		rlk := kg.GenRelinearizationKey(sk)
		gks := kg.GenGaloisKeySet(sk, []int{1, 2}, false)
		ev := NewEvaluator(params)
		rng := rand.New(rand.NewSource(61))
		top := params.MaxLevel()
		randCt := func() *Ciphertext {
			return &Ciphertext{Polys: []*ring.Poly{schedRandomPoly(ctx, top+1, rng), schedRandomPoly(ctx, top+1, rng)}, Scale: params.DefaultScale(), Level: top}
		}
		// constant is a multiplier of one nonzero value per row, stored
		// compact as a Plan stores it.
		constant := func(level int) *Plaintext {
			pt := &Plaintext{Value: &ring.Poly{Coeffs: make([][]uint64, level+1)}, Scale: 512}
			for i := range pt.Value.Coeffs {
				v := 1 + rng.Uint64()%(ctx.Basis.Primes[i]-1)
				row := make([]uint64, ctx.N/uintmod.Lanes)
				for j := range row {
					row[j] = v
				}
				pt.Value.Coeffs[i] = row
			}
			return pt
		}
		for round := 0; round < 24; round++ {
			x, y, z := randCt(), randCt(), randCt()
			producer := round % 4
			var want *Ciphertext
			var run func(stages []Stage, out *Ciphertext) error
			switch producer {
			case 0:
				want = x
				run = func(stages []Stage, out *Ciphertext) error { return ev.RescaleChainInto(x, stages, out) }
			case 1:
				want = &Ciphertext{}
				if err := ev.MulRelinInto(x, y, rlk, want); err != nil {
					t.Fatal(err)
				}
				run = func(stages []Stage, out *Ciphertext) error { return ev.MulRelinChainInto(x, y, rlk, stages, out) }
			default:
				cts, keys, ends := []*Ciphertext{x, y, z}, []*GaloisKey{nil, gks.Rotations[1], gks.Rotations[2]}, []int{1, 2, 3}
				if producer == 3 {
					cts, keys, ends = cts[1:], keys[1:], ends[:2]
				}
				pts := make([]*Plaintext, len(cts))
				want = &Ciphertext{}
				if err := ev.RotateSumInto(cts, pts, ends, keys, want); err != nil {
					t.Fatal(err)
				}
				run = func(stages []Stage, out *Ciphertext) error {
					return ev.RotateSumChainInto(cts, pts, ends, keys, stages, out)
				}
			}
			// The stages, run one at a time into want.
			var stages []Stage
			added := false
			for rescales := 1 + rng.Intn(min(3, top)); rescales > 0; rescales-- {
				for pre := rng.Intn(3); pre > 0; pre-- {
					st := Stage{Kind: StageMulPlain, Pt: constant(want.Level)}
					if !added && rng.Intn(2) == 0 {
						added = true
						st = Stage{Kind: StageAddPlain, Pt: &Plaintext{Value: schedRandomPoly(ctx, want.Level+1, rng), Scale: want.Scale}}
					}
					next := &Ciphertext{}
					var err error
					if st.Kind == StageMulPlain {
						err = ev.MulPlainInto(want, st.Pt, next)
					} else {
						err = ev.AddPlainInto(want, st.Pt, next)
					}
					if err != nil {
						t.Fatal(err)
					}
					stages, want = append(stages, st), next
				}
				next := &Ciphertext{}
				if err := ev.RescaleInto(want, next); err != nil {
					t.Fatal(err)
				}
				stages, want = append(stages, Stage{Kind: StageRescale}), next
			}
			for _, workers := range []int{1, 4} {
				ctx.SetWorkers(workers)
				got := &Ciphertext{}
				if err := run(stages, got); err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s producer %d, %d stages, %d workers", spec.Name, producer, len(stages), workers)
				if got.Level != want.Level || got.Scale != want.Scale {
					t.Fatalf("%s: level %d scale %g, want %d and %g", name, got.Level, got.Scale, want.Level, want.Scale)
				}
				for c := range want.Polys {
					if !got.Polys[c].Equal(want.Polys[c]) {
						t.Fatalf("%s: component %d differs from the stages one at a time", name, c)
					}
				}
			}
		}
	}
}

// A chain kernel checks its stages as the stages' own kernels would and
// refuses before writing anything: a list that does not end in a
// rescale, a rescale below level 0, a plaintext below its operand's
// level, a plaintext added at another scale, a degree-2 operand and an
// output sharing storage with an operand.
func TestChainsRefuseBeforeWriting(t *testing.T) {
	params, err := NewParams(schedSpec)
	if err != nil {
		t.Fatal(err)
	}
	ctx := params.RingQP
	ev := NewEvaluator(params)
	rng := rand.New(rand.NewSource(62))
	top := params.MaxLevel()
	ct := &Ciphertext{Polys: []*ring.Poly{schedRandomPoly(ctx, top+1, rng), schedRandomPoly(ctx, top+1, rng)}, Scale: params.DefaultScale(), Level: top}
	deg2 := &Ciphertext{Polys: append([]*ring.Poly{schedRandomPoly(ctx, top+1, rng)}, ct.Polys...), Scale: ct.Scale, Level: top}
	pt := func(level int, scale float64) *Plaintext {
		return &Plaintext{Value: schedRandomPoly(ctx, level+1, rng), Scale: scale}
	}
	rescale := Stage{Kind: StageRescale}
	rescales := make([]Stage, top+1)
	for i := range rescales {
		rescales[i] = rescale
	}
	for _, tc := range []struct {
		name   string
		ct     *Ciphertext
		stages []Stage
		want   error // nil: any error
	}{
		{"no stages", ct, nil, nil},
		{"no final rescale", ct, []Stage{rescale, {Kind: StageMulPlain, Pt: pt(top, 2)}}, nil},
		{"below level 0", ct, rescales, ErrLevelMismatch},
		{"plaintext below the operand", ct, []Stage{{Kind: StageMulPlain, Pt: pt(top-1, 2)}, rescale}, ErrLevelMismatch},
		{"added at another scale", ct, []Stage{{Kind: StageAddPlain, Pt: pt(top, 2*ct.Scale)}, rescale}, ErrScaleMismatch},
		{"degree 2", deg2, []Stage{rescale}, ErrDegreeMismatch},
		{"output is the operand", ct, []Stage{rescale}, ErrLevelMismatch},
	} {
		out := &Ciphertext{}
		if tc.name == "output is the operand" {
			out = tc.ct
		}
		before := polyHash(tc.ct.Polys...)
		err := ev.RescaleChainInto(tc.ct, tc.stages, out)
		switch {
		case err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.want != nil && !errors.Is(err, tc.want):
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		case out != tc.ct && len(out.Polys) != 0:
			t.Errorf("%s: refused after shaping its output", tc.name)
		case polyHash(tc.ct.Polys...) != before:
			t.Errorf("%s: refused after writing its operand", tc.name)
		}
	}
}
