package ckks

import (
	"fmt"
	"math/rand"
	"testing"

	"heax/internal/ring"
)

// kernelCase is one operation on one operand shape: its *Into kernel,
// its allocating form, or both.
type kernelCase struct {
	name  string
	cts   []*Ciphertext // ciphertext operands
	pt    *Plaintext    // plaintext operand, if any
	nOut  int
	into  func(ev *Evaluator, outs []*Ciphertext) error
	alloc func(ev *Evaluator) ([]*Ciphertext, error)
}

// one adapts a single-result allocating form to kernelCase.alloc.
func one(ct *Ciphertext, err error) ([]*Ciphertext, error) {
	return []*Ciphertext{ct}, err
}

// sameCiphertext reports whether ct still is what snap recorded: shape,
// scale and every residue.
func sameCiphertext(ct, snap *Ciphertext) bool {
	if ct.Level != snap.Level || ct.Scale != snap.Scale || len(ct.Polys) != len(snap.Polys) {
		return false
	}
	for i, p := range ct.Polys {
		if !p.Equal(snap.Polys[i]) {
			return false
		}
	}
	return true
}

// scribble overwrites every row ct's components can reach, including
// rows past the current level that a truncated view of a deeper
// polynomial would still back.
func scribble(ct *Ciphertext) {
	for _, p := range ct.Polys {
		for _, row := range p.Coeffs[:cap(p.Coeffs)] {
			for j := range row {
				row[j] = ^row[j]
			}
		}
	}
}

// TestKernelsDoNotMutateInputs: with a non-aliased output no kernel
// writes to an operand, and an allocating form's result shares no
// backing row with one — over every operation, operands at equal and at
// mismatched levels and degrees (where alignLevels/AtLevel hand the
// kernels row-sharing views of the inputs), serial and parallel.
func TestKernelsDoNotMutateInputs(t *testing.T) {
	kit := newTestKit(t, smallSpec)
	params := kit.params
	rng := rand.New(rand.NewSource(71))
	top, scale := params.MaxLevel(), params.DefaultScale()
	must := func(ct *Ciphertext, err error) *Ciphertext {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	encode := func(level int, scale float64) *Plaintext {
		pt, err := kit.enc.Encode(randomComplex(rng, params.Slots(), 1), level, scale)
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}
	x := must(kit.encPk.Encrypt(encode(top, scale)))
	y := must(kit.encPk.Encrypt(encode(top, scale)))
	yLow := must(kit.eval.DropLevel(y, 1))
	pt, ptLow, ptSq := encode(top, scale), encode(1, scale), encode(top, scale*scale)
	deg2 := must(kit.eval.Mul(x, y))         // degree 2 at scale Δ²
	sq := must(kit.eval.MulPlain(x, pt))     // degree 1 at scale Δ²
	sqLow := must(kit.eval.DropLevel(sq, 1)) // ... two levels down
	deg3 := CopyOf(x)                        // degree 3: more components than AtLevel holds inline
	deg3.Polys = append(deg3.Polys, ring.CopyOf(x.Polys[1]), ring.CopyOf(x.Polys[1]))
	deg3Low := must(kit.eval.DropLevel(deg3, 1))
	gks := kit.kg.GenGaloisKeySet(kit.sk, []int{1, 2}, true)
	swk := kit.kg.GenSwitchingKey(kit.sk, NewKeyGenerator(params, 72).GenSecretKey())
	rlk := kit.rlk
	steps := []int{0, 1, 2}

	var cases []kernelCase
	add := func(c kernelCase) {
		if c.nOut == 0 {
			c.nOut = 1
		}
		cases = append(cases, c)
	}
	for _, p := range [][2]*Ciphertext{{x, y}, {x, yLow}, {yLow, x}, {sq, deg2}, {deg2, sqLow}, {deg3, deg3Low}} {
		a, b := p[0], p[1]
		shape := fmt.Sprintf("L%dd%d,L%dd%d", a.Level, a.Degree(), b.Level, b.Degree())
		add(kernelCase{name: "Add/" + shape, cts: []*Ciphertext{a, b},
			into:  func(ev *Evaluator, o []*Ciphertext) error { return ev.AddInto(a, b, o[0]) },
			alloc: func(ev *Evaluator) ([]*Ciphertext, error) { return one(ev.Add(a, b)) }})
		add(kernelCase{name: "Sub/" + shape, cts: []*Ciphertext{a, b},
			into:  func(ev *Evaluator, o []*Ciphertext) error { return ev.SubInto(a, b, o[0]) },
			alloc: func(ev *Evaluator) ([]*Ciphertext, error) { return one(ev.Sub(a, b)) }})
		if a.Degree() != 1 || b.Degree() != 1 {
			continue
		}
		add(kernelCase{name: "MulRelin/" + shape, cts: []*Ciphertext{a, b},
			into:  func(ev *Evaluator, o []*Ciphertext) error { return ev.MulRelinInto(a, b, rlk, o[0]) },
			alloc: func(ev *Evaluator) ([]*Ciphertext, error) { return one(ev.MulRelin(a, b, rlk)) }})
		add(kernelCase{name: "Mul/" + shape, cts: []*Ciphertext{a, b},
			alloc: func(ev *Evaluator) ([]*Ciphertext, error) { return one(ev.Mul(a, b)) }})
	}
	for _, p := range []struct {
		ct *Ciphertext
		pt *Plaintext
	}{{x, pt}, {x, ptLow}, {yLow, pt}, {deg2, ptSq}} {
		ct, pt := p.ct, p.pt
		shape := fmt.Sprintf("L%dd%d,L%d", ct.Level, ct.Degree(), pt.Level())
		add(kernelCase{name: "AddPlain/" + shape, cts: []*Ciphertext{ct}, pt: pt,
			into:  func(ev *Evaluator, o []*Ciphertext) error { return ev.AddPlainInto(ct, pt, o[0]) },
			alloc: func(ev *Evaluator) ([]*Ciphertext, error) { return one(ev.AddPlain(ct, pt)) }})
		add(kernelCase{name: "MulPlain/" + shape, cts: []*Ciphertext{ct}, pt: pt,
			into:  func(ev *Evaluator, o []*Ciphertext) error { return ev.MulPlainInto(ct, pt, o[0]) },
			alloc: func(ev *Evaluator) ([]*Ciphertext, error) { return one(ev.MulPlain(ct, pt)) }})
	}
	// A plain sum: one unrotated dot product, its factors at two levels.
	add(kernelCase{name: "RotateSum/plain/L3,L1", cts: []*Ciphertext{x, yLow}, pt: pt,
		into: func(ev *Evaluator, o []*Ciphertext) error {
			return ev.RotateSumInto([]*Ciphertext{yLow, x, yLow}, []*Plaintext{pt, ptLow, pt}, []int{3}, []*GaloisKey{nil}, o[0])
		}})
	// A giant step: a bare unrotated product and two rotated dot products,
	// at the top level and at level 1 (where the operands are views).
	for _, p := range []struct{ bare, a, b *Ciphertext }{{sq, x, y}, {sqLow, yLow, yLow}} {
		bare, a, b := p.bare, p.a, p.b
		add(kernelCase{name: fmt.Sprintf("RotateSum/L%d", a.Level), cts: []*Ciphertext{bare, a, b}, pt: pt,
			into: func(ev *Evaluator, o []*Ciphertext) error {
				return ev.RotateSumInto([]*Ciphertext{bare, a, b}, []*Plaintext{nil, pt, pt}, []int{1, 2, 3}, []*GaloisKey{nil, gks.Rotations[1], gks.Rotations[2]}, o[0])
			}})
	}
	for _, ct := range []*Ciphertext{x, yLow, deg2} {
		ct := ct // go.mod says go 1.21: loop variables are shared
		shape := fmt.Sprintf("L%dd%d", ct.Level, ct.Degree())
		add(kernelCase{name: "Rescale/" + shape, cts: []*Ciphertext{ct},
			into:  func(ev *Evaluator, o []*Ciphertext) error { return ev.RescaleInto(ct, o[0]) },
			alloc: func(ev *Evaluator) ([]*Ciphertext, error) { return one(ev.Rescale(ct)) }})
		add(kernelCase{name: "Copy/" + shape, cts: []*Ciphertext{ct},
			into: func(ev *Evaluator, o []*Ciphertext) error { return ev.CopyInto(ct, o[0]) }})
		for _, level := range []int{ct.Level, 0} {
			level := level
			add(kernelCase{name: fmt.Sprintf("DropLevel%d/%s", level, shape), cts: []*Ciphertext{ct},
				alloc: func(ev *Evaluator) ([]*Ciphertext, error) { return one(ev.DropLevel(ct, level)) }})
		}
		if ct.Degree() == 2 {
			add(kernelCase{name: "Relinearize/" + shape, cts: []*Ciphertext{ct},
				alloc: func(ev *Evaluator) ([]*Ciphertext, error) { return one(ev.Relinearize(ct, rlk)) }})
			continue
		}
		for _, step := range []int{0, 1} {
			step := step
			add(kernelCase{name: fmt.Sprintf("RotateLeft%d/%s", step, shape), cts: []*Ciphertext{ct},
				into:  func(ev *Evaluator, o []*Ciphertext) error { return ev.RotateLeftInto(ct, step, gks, o[0]) },
				alloc: func(ev *Evaluator) ([]*Ciphertext, error) { return one(ev.RotateLeft(ct, step, gks)) }})
		}
		add(kernelCase{name: "ConjugateSlots/" + shape, cts: []*Ciphertext{ct},
			into:  func(ev *Evaluator, o []*Ciphertext) error { return ev.ConjugateSlotsInto(ct, gks, o[0]) },
			alloc: func(ev *Evaluator) ([]*Ciphertext, error) { return one(ev.ConjugateSlots(ct, gks)) }})
		add(kernelCase{name: "InnerSum/" + shape, cts: []*Ciphertext{ct},
			into:  func(ev *Evaluator, o []*Ciphertext) error { return ev.InnerSumInto(ct, 4, gks, o[0]) },
			alloc: func(ev *Evaluator) ([]*Ciphertext, error) { return one(ev.InnerSum(ct, 4, gks)) }})
		add(kernelCase{name: "RotateHoisted/" + shape, cts: []*Ciphertext{ct}, nOut: len(steps),
			into: func(ev *Evaluator, o []*Ciphertext) error { return ev.RotateHoistedInto(ct, steps, gks, o) },
			alloc: func(ev *Evaluator) ([]*Ciphertext, error) {
				m, err := ev.RotateHoisted(ct, steps, gks)
				outs := make([]*Ciphertext, 0, len(m))
				for _, r := range m {
					outs = append(outs, r)
				}
				return outs, err
			}})
		add(kernelCase{name: "SwitchKeys/" + shape, cts: []*Ciphertext{ct},
			alloc: func(ev *Evaluator) ([]*Ciphertext, error) { return one(ev.SwitchKeys(ct, swk)) }})
	}

	for _, workers := range []int{1, 4} {
		ev := NewEvaluator(params)
		ev.SetWorkers(workers)
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/w%d", c.name, workers), func(t *testing.T) {
				snaps := make([]*Ciphertext, len(c.cts))
				for i, ct := range c.cts {
					snaps[i] = CopyOf(ct)
				}
				var ptSnap *ring.Poly
				if c.pt != nil {
					ptSnap = ring.CopyOf(c.pt.Value)
				}
				check := func(when string) {
					t.Helper()
					for i, ct := range c.cts {
						if !sameCiphertext(ct, snaps[i]) {
							t.Fatalf("operand %d changed %s", i, when)
						}
					}
					if c.pt != nil && !c.pt.Value.Equal(ptSnap) {
						t.Fatalf("plaintext operand changed %s", when)
					}
				}
				if c.into != nil {
					outs := make([]*Ciphertext, c.nOut)
					for i := range outs {
						outs[i] = must(NewCiphertext(params, 2, top, 0))
					}
					if err := c.into(ev, outs); err != nil {
						t.Fatal(err)
					}
					check("under the *Into kernel")
				}
				if c.alloc != nil {
					res, err := c.alloc(ev)
					if err != nil {
						t.Fatal(err)
					}
					check("under the allocating form")
					for _, r := range res {
						scribble(r)
					}
					check("when the allocating form's result was written to")
				}
			})
		}
	}
}

// TestRotateConjugateInnerSumInPlace holds the *Into contract that out
// may alias the input for the Galois operations: RotateLeftInto,
// ConjugateSlotsInto and InnerSumInto (an odd and an even number of
// rounds, and one) with out == ct give the out-of-place bits, at the top
// level and one below, with the rows inline and fanned out (schedSpec's
// top-level passes reach the pool).
func TestRotateConjugateInnerSumInPlace(t *testing.T) {
	params, err := NewParams(schedSpec)
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(params, 73)
	gks := kg.GenGaloisKeySet(kg.GenSecretKey(), []int{1, 2, 4}, true)
	ctx := params.RingQP
	rng := rand.New(rand.NewSource(74))
	ops := []struct {
		name string
		into func(ev *Evaluator, ct, out *Ciphertext) error
	}{
		{"RotateLeft", func(ev *Evaluator, ct, out *Ciphertext) error { return ev.RotateLeftInto(ct, 1, gks, out) }},
		{"ConjugateSlots", func(ev *Evaluator, ct, out *Ciphertext) error { return ev.ConjugateSlotsInto(ct, gks, out) }},
		{"InnerSum2", func(ev *Evaluator, ct, out *Ciphertext) error { return ev.InnerSumInto(ct, 2, gks, out) }},
		{"InnerSum4", func(ev *Evaluator, ct, out *Ciphertext) error { return ev.InnerSumInto(ct, 4, gks, out) }},
		{"InnerSum8", func(ev *Evaluator, ct, out *Ciphertext) error { return ev.InnerSumInto(ct, 8, gks, out) }},
	}
	for _, level := range []int{params.MaxLevel(), params.MaxLevel() - 1} {
		ct, err := NewCiphertext(params, 1, level, params.DefaultScale())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ct.Polys {
			for i, row := range p.Coeffs {
				for j := range row {
					row[j] = rng.Uint64() % ctx.Basis.Primes[i]
				}
			}
		}
		for _, op := range ops {
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/L%d/w%d", op.name, level, workers), func(t *testing.T) {
					ev := NewEvaluator(params)
					ev.SetWorkers(workers)
					want, err := NewCiphertext(params, 1, params.MaxLevel(), 0)
					if err != nil {
						t.Fatal(err)
					}
					if err := op.into(ev, ct, want); err != nil {
						t.Fatal(err)
					}
					in := CopyOf(ct)
					if err := op.into(ev, in, in); err != nil {
						t.Fatal(err)
					}
					if !sameCiphertext(in, want) {
						t.Fatal("in place differs from out of place")
					}
				})
			}
		}
	}
}
