package ckks

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"heax/internal/ring"
	"heax/internal/uintmod"
)

// rotSumFixture is one sum for RotateSumInto: its operands as the kernel
// takes them, on one parameter set with the Galois keys they need.
type rotSumFixture struct {
	params      *Params
	gks         *GaloisKeySet
	cts         []*Ciphertext
	pts         []*Plaintext
	ends, steps []int
}

// rotSumShape picks a sum: rotated terms with steps 1..rotated, an
// unrotated addend (first, or last) or none, and every other term a dot
// product of one to three plaintext products (full and compact rows) or
// all of them bare ciphertexts, at the given level.
type rotSumShape struct {
	rotated      int
	addend, last bool
	dots         bool
	level        int
}

// rotSumKeys caches one Galois key set per parameter set: key generation
// is the slow part of these tests, at Set-C above all.
var rotSumKeys = struct {
	sync.Mutex
	m map[string]*GaloisKeySet
}{m: map[string]*GaloisKeySet{}}

func rotSumGaloisKeys(t testing.TB, params *Params, spec ParamSpec, rotated int) *GaloisKeySet {
	t.Helper()
	rotSumKeys.Lock()
	defer rotSumKeys.Unlock()
	name := fmt.Sprintf("%s/%d", spec.Name, rotated)
	if gks := rotSumKeys.m[name]; gks != nil {
		return gks
	}
	kg := NewKeyGenerator(params, 31)
	steps := make([]int, rotated)
	for i := range steps {
		steps[i] = i + 1
	}
	gks := kg.GenGaloisKeySet(kg.GenSecretKey(), steps, false)
	rotSumKeys.m[name] = gks
	return gks
}

func newRotSumFixture(t testing.TB, spec ParamSpec, shape rotSumShape, seed int64) *rotSumFixture {
	t.Helper()
	params, err := NewParams(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx := params.RingQP
	rng := rand.New(rand.NewSource(seed))
	rows := shape.level + 1
	randRows := func(n int) *ring.Poly {
		p := &ring.Poly{Coeffs: make([][]uint64, rows)}
		for i := range p.Coeffs {
			p.Coeffs[i] = make([]uint64, n)
			for j := range p.Coeffs[i] {
				p.Coeffs[i][j] = rng.Uint64() % ctx.Basis.Primes[i]
			}
		}
		return p
	}
	scale := params.DefaultScale()
	ct := func(scale float64) *Ciphertext {
		return &Ciphertext{Polys: []*ring.Poly{randRows(ctx.N), randRows(ctx.N)}, Scale: scale, Level: shape.level}
	}
	f := &rotSumFixture{params: params, gks: rotSumGaloisKeys(t, params, spec, shape.rotated)}
	term := func(step int) {
		if shape.dots && len(f.ends)%2 == 0 {
			for n := 1 + rng.Intn(3); n > 0; n-- {
				width := ctx.N
				if rng.Intn(2) == 0 {
					width = ctx.N / uintmod.Lanes
				}
				f.cts = append(f.cts, ct(scale))
				f.pts = append(f.pts, &Plaintext{Value: randRows(width), Scale: scale})
			}
		} else {
			f.cts = append(f.cts, ct(scale*scale)) // the scale of a product term
			f.pts = append(f.pts, nil)
		}
		f.ends = append(f.ends, len(f.cts))
		f.steps = append(f.steps, step)
	}
	if shape.addend && !shape.last {
		term(0)
	}
	for s := 1; s <= shape.rotated; s++ {
		term(s)
	}
	if shape.addend && shape.last {
		term(0)
	}
	return f
}

// unfused is what the plan ran before RotateSum: each term's products
// and their sum, its rotation, and the sum of the rotations in order.
func (f *rotSumFixture) unfused(t testing.TB, ev *Evaluator) *Ciphertext {
	t.Helper()
	must := func(ct *Ciphertext, err error) *Ciphertext {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	var sum *Ciphertext
	lo := 0
	for k, hi := range f.ends {
		x := f.cts[lo]
		if f.pts[lo] != nil {
			for i := lo; i < hi; i++ {
				prod := must(ev.MulPlain(f.cts[i], f.pts[i]))
				if i == lo {
					x = prod
				} else {
					x = must(ev.Add(x, prod))
				}
			}
		}
		rot := must(ev.RotateLeft(x, f.steps[k], f.gks))
		if k == 0 {
			sum = rot
		} else {
			sum = must(ev.Add(sum, rot))
		}
		lo = hi
	}
	return sum
}

func (f *rotSumFixture) fused(t testing.TB, ev *Evaluator) *Ciphertext {
	t.Helper()
	out, err := NewCiphertext(f.params, 1, f.params.MaxLevel(), 0)
	if err != nil {
		t.Fatal(err)
	}
	scribble(out) // as a reused buffer would hold: nothing may be read before it is written
	if err := ev.RotateSumInto(f.cts, f.pts, f.ends, f.steps, f.gks, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRotateSumMatchesUnfused: RotateSumInto is bit for bit RotateLeftInto
// and AddInto over its terms, on small and mixed-width test sets and on
// Set-A and Set-C at the sizes their plans use — bare and dot-product
// terms, with and without an unrotated addend, below the top level, with
// its tail sums folded every two terms (and, on mixedSpec's 58-bit special
// prime, reduced on the scalar path), on one worker and fanned out.
func TestRotateSumMatchesUnfused(t *testing.T) {
	type tc struct {
		spec  ParamSpec
		shape rotSumShape
	}
	cases := []tc{
		{smallSpec, rotSumShape{rotated: 7, dots: true, level: 3}},
		{smallSpec, rotSumShape{rotated: 6, addend: true, level: 1}},
		{smallSpec, rotSumShape{rotated: 6, addend: true, last: true, dots: true, level: 2}},
		{mixedSpec, rotSumShape{rotated: 5, addend: true, dots: true, level: 2}},
		{mixedSpec, rotSumShape{rotated: 4, level: 0}},
		{SetA, rotSumShape{rotated: 15, addend: true, dots: true, level: 1}},
		{SetA, rotSumShape{rotated: 15, level: 0}},
		{SetC, rotSumShape{rotated: 3, addend: true, dots: true, level: 7}},
	}
	if testing.Short() {
		cases = cases[:6]
	}
	for n, c := range cases {
		f := newRotSumFixture(t, c.spec, c.shape, int64(n))
		want := f.unfused(t, NewEvaluator(f.params))
		for _, workers := range []int{1, 4} {
			for _, fold := range []int{0, 2} {
				name := fmt.Sprintf("%s/rot%d/addend=%v/last=%v/dots=%v/L%d/w%d/fold%d",
					c.spec.Name, c.shape.rotated, c.shape.addend, c.shape.last, c.shape.dots, c.shape.level, workers, fold)
				t.Run(name, func(t *testing.T) {
					ev := NewEvaluator(f.params)
					ev.SetWorkers(workers)
					ev.tailTerms = fold
					if got := f.fused(t, ev); !sameCiphertext(got, want) {
						t.Fatal("RotateSumInto differs from RotateLeft + Add")
					}
				})
			}
		}
	}
}

// TestRotateSumHelpers: the sum is the same bits whoever runs its terms —
// a helper that takes the offer before the caller starts (and so runs
// every term), one racing the caller for them, and one that arrives after
// the call returned, which must do nothing, even when the pooled call
// state has moved on to a later sum.
func TestRotateSumHelpers(t *testing.T) {
	f := newRotSumFixture(t, SetA, rotSumShape{rotated: 15, addend: true, dots: true, level: 1}, 5)
	want := f.unfused(t, NewEvaluator(f.params))
	check := func(t *testing.T, ev *Evaluator) {
		t.Helper()
		if got := f.fused(t, ev); !sameCiphertext(got, want) {
			t.Fatal("RotateSumInto differs from RotateLeft + Add")
		}
	}
	for _, fold := range []int{0, 3} {
		t.Run(fmt.Sprintf("first/fold%d", fold), func(t *testing.T) {
			ev := NewEvaluator(f.params)
			ev.tailTerms = fold
			helped := false
			ev.sumOffer = func(h interface{ Help() }) bool {
				h.Help()
				helped = true
				return true
			}
			check(t, ev)
			if !helped {
				t.Fatal("the sum made no offer")
			}
		})
		t.Run(fmt.Sprintf("racing/fold%d", fold), func(t *testing.T) {
			ev := NewEvaluator(f.params)
			ev.tailTerms = fold
			for run := 0; run < 8; run++ {
				var wg sync.WaitGroup
				ev.sumOffer = func(h interface{ Help() }) bool {
					wg.Add(1)
					go func() {
						defer wg.Done()
						h.Help()
					}()
					return true
				}
				check(t, ev)
				wg.Wait()
			}
		})
	}
	t.Run("late", func(t *testing.T) {
		ev := NewEvaluator(f.params)
		var stale []interface{ Help() }
		ev.sumOffer = func(h interface{ Help() }) bool {
			stale = append(stale, h)
			return true
		}
		check(t, ev)
		stale[0].Help() // after the call: nothing left to join
		// A handle from an earlier call answered during a later one joins
		// that call, or nothing; either way the bits hold.
		ev.sumOffer = func(h interface{ Help() }) bool {
			for _, s := range stale {
				s.Help()
			}
			return true
		}
		check(t, ev)
	})
}

// TestRotateSumFailsBeforeWriting: a missing key, a term at another level
// or scale, a degree-2 term and an output sharing an operand's storage are
// refused with their sentinels before out is touched.
func TestRotateSumFailsBeforeWriting(t *testing.T) {
	f := newRotSumFixture(t, smallSpec, rotSumShape{rotated: 3, addend: true, dots: true, level: 2}, 9)
	ev := NewEvaluator(f.params)
	mutate := func(edit func(g *rotSumFixture)) *rotSumFixture {
		g := *f
		g.cts = append([]*Ciphertext(nil), f.cts...)
		g.pts = append([]*Plaintext(nil), f.pts...)
		g.steps = append([]int(nil), f.steps...)
		edit(&g)
		return &g
	}
	last := len(f.cts) - 1
	cases := []struct {
		name string
		f    *rotSumFixture
		out  *Ciphertext
		want error
	}{
		{"missing key", mutate(func(g *rotSumFixture) { g.steps[len(g.steps)-1] = 5 }), nil, ErrKeyMissing},
		{"no keys", mutate(func(g *rotSumFixture) { g.gks = nil }), nil, ErrKeyMissing},
		{"level", mutate(func(g *rotSumFixture) {
			g.cts[last] = &Ciphertext{Polys: []*ring.Poly{g.cts[last].Polys[0].Resize(2), g.cts[last].Polys[1].Resize(2)},
				Scale: g.cts[last].Scale, Level: 1}
		}), nil, ErrLevelMismatch},
		{"scale", mutate(func(g *rotSumFixture) {
			c := *g.cts[last]
			c.Scale *= 2
			g.cts[last] = &c
		}), nil, ErrScaleMismatch},
		{"degree", mutate(func(g *rotSumFixture) {
			c := *g.cts[0]
			c.Polys = append(c.Polys, c.Polys[0])
			g.cts[0] = &c
		}), nil, ErrDegreeMismatch},
		{"aliased output", f, CopyOf(f.cts[last]), ErrLevelMismatch},
	}
	cases[len(cases)-1].out.Polys[1] = f.cts[last].Polys[1]
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := c.out
			if out == nil {
				out = f.fused(t, ev) // a finished result, to see it left alone
			}
			before := CopyOf(out)
			err := ev.RotateSumInto(c.f.cts, c.f.pts, c.f.ends, c.f.steps, c.f.gks, out)
			if !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
			if !sameCiphertext(out, before) {
				t.Fatal("a refused RotateSumInto wrote its output")
			}
		})
	}
}

// BenchmarkRotateSum prices the matvec-serve-A giant step (Set-A, 15
// rotated 16-term dot products and an unrotated one) fused, against the
// RotateLeftInto + AddInto it replaced on the same dot products; -cpu
// sets the workers, so -cpu 1 is the kernel alone and -cpu 2 with the
// helper a pool worker may lend it.
func BenchmarkRotateSum(b *testing.B) {
	f := newRotSumFixture(b, SetA, rotSumShape{rotated: 15, addend: true, level: 1}, 3)
	// Every term a 16-term dot product, as the matvec's are.
	ctx := f.params.RingQP
	rng := rand.New(rand.NewSource(4))
	var cts []*Ciphertext
	var pts []*Plaintext
	for t := range f.ends {
		for i := 0; i < 16; i++ {
			cts = append(cts, f.cts[t])
			row := func() *ring.Poly {
				p := ctx.NewPoly(2)
				for r := range p.Coeffs {
					for j := range p.Coeffs[r] {
						p.Coeffs[r][j] = rng.Uint64() % ctx.Basis.Primes[r]
					}
				}
				return p
			}
			pts = append(pts, &Plaintext{Value: row(), Scale: 1})
		}
		f.ends[t] = len(cts)
	}
	f.cts, f.pts = cts, pts
	ev := NewEvaluator(f.params)
	out, _ := NewCiphertext(f.params, 1, 1, 0)
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := ev.RotateSumInto(f.cts, f.pts, f.ends, f.steps, f.gks, out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unfused", func(b *testing.B) {
		sum, _ := NewCiphertext(f.params, 1, 1, 0)
		inner, _ := NewCiphertext(f.params, 1, 1, 0)
		rot, _ := NewCiphertext(f.params, 1, 1, 0)
		for i := 0; i < b.N; i++ {
			lo := 0
			for t, hi := range f.ends {
				if err := ev.MulPlainSumInto(f.cts[lo:hi], f.pts[lo:hi], inner); err != nil {
					b.Fatal(err)
				}
				if err := ev.RotateLeftInto(inner, f.steps[t], f.gks, rot); err != nil {
					b.Fatal(err)
				}
				if t == 0 {
					sum, rot = rot, sum
				} else if err := ev.AddInto(sum, rot, sum); err != nil {
					b.Fatal(err)
				}
				lo = hi
			}
		}
	})
}
