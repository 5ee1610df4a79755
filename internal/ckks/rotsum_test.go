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
// all of them bare ciphertexts, at the given level. A plain sum is one
// unrotated dot product of that many products and nothing else, its
// plaintexts a level above the ciphertexts, whose level the sum takes.
type rotSumShape struct {
	rotated      int
	addend, last bool
	dots         bool
	plain        int
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
	// term appends a term rotated by step: a dot product of n products,
	// or a bare ciphertext for n = 0.
	term := func(step, n int) {
		if n == 0 {
			f.cts = append(f.cts, ct(scale*scale)) // the scale of a product term
			f.pts = append(f.pts, nil)
		}
		for ; n > 0; n-- {
			width := ctx.N
			if rng.Intn(2) == 0 {
				width = ctx.N / uintmod.Lanes
			}
			f.cts = append(f.cts, ct(scale))
			pt := &Plaintext{Value: randRows(width), Scale: scale}
			if shape.plain > 0 {
				pt.Value.Coeffs = append(pt.Value.Coeffs, make([]uint64, width))
			}
			f.pts = append(f.pts, pt)
		}
		f.ends = append(f.ends, len(f.cts))
		f.steps = append(f.steps, step)
	}
	factors := func() int {
		if shape.dots && len(f.ends)%2 == 0 {
			return 1 + rng.Intn(3)
		}
		return 0
	}
	if shape.plain > 0 {
		term(0, shape.plain)
	}
	if shape.addend && !shape.last {
		term(0, factors())
	}
	for s := 1; s <= shape.rotated; s++ {
		term(s, factors())
	}
	if shape.addend && shape.last {
		term(0, factors())
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
	if err := f.sumInto(ev, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// keys resolves the fixture's steps to the Galois keys RotateSumInto
// takes, as RotateLeftInto resolves a step: normalized, nil for 0.
func (f *rotSumFixture) keys(ev *Evaluator) ([]*GaloisKey, error) {
	keys := make([]*GaloisKey, len(f.steps))
	for t, step := range f.steps {
		key, err := ev.rotationKeyFor(f.gks, step)
		if err != nil {
			return nil, err
		}
		keys[t] = key
	}
	return keys, nil
}

// sumInto runs the fixture's sum into out, its keys resolved first.
func (f *rotSumFixture) sumInto(ev *Evaluator, out *Ciphertext) error {
	keys, err := f.keys(ev)
	if err != nil {
		return err
	}
	return ev.RotateSumInto(f.cts, f.pts, f.ends, keys, out)
}

// TestRotateSumMatchesUnfused: RotateSumInto is bit for bit RotateLeftInto
// and AddInto over its terms, on small and mixed-width test sets and on
// Set-A and Set-C at the sizes their plans use — bare and dot-product
// terms, with and without an unrotated addend, below the top level (on
// mixedSpec's 58-bit special prime, its tail sum reduced on the scalar
// path), on one worker and fanned out. Plain
// sums, a lone unrotated dot product as a plan's sum of plaintext products
// compiles to, are MulPlain and Add in order to the scale, with one
// ring.DotChunk of products, one and a bit, and several.
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
	for _, spec := range []ParamSpec{smallSpec, SetC} {
		for _, plain := range []int{1, ring.DotChunk, ring.DotChunk + 1, 40} {
			cases = append(cases, tc{spec, rotSumShape{plain: plain, level: 2}})
		}
	}
	cases = append(cases, tc{mixedSpec, rotSumShape{plain: ring.DotChunk + 1, level: 1}})
	for n, c := range cases {
		if testing.Short() && (c.spec.Name == SetC.Name || c.shape.rotated == 15 && c.shape.level == 0) {
			continue
		}
		f := newRotSumFixture(t, c.spec, c.shape, int64(n))
		want := f.unfused(t, NewEvaluator(f.params))
		for _, workers := range []int{1, 4} {
			// Both names run the same case; they are kept so recorded test lists match.
			for _, fold := range []int{0, 2} {
				name := fmt.Sprintf("%s/rot%d/addend=%v/last=%v/dots=%v/L%d/w%d/fold%d",
					c.spec.Name, c.shape.rotated, c.shape.addend, c.shape.last, c.shape.dots, c.shape.level, workers, fold)
				if c.shape.plain > 0 {
					name = fmt.Sprintf("%s/plain%d/L%d/w%d/fold%d", c.spec.Name, c.shape.plain, c.shape.level, workers, fold)
				}
				t.Run(name, func(t *testing.T) {
					ev := NewEvaluator(f.params)
					ev.SetWorkers(workers)
					if got := f.fused(t, ev); !sameCiphertext(got, want) {
						t.Fatal("RotateSumInto differs from RotateLeft + Add")
					}
				})
			}
		}
	}
}

// TestRotateSumHelpers: a sum runs every term on its caller, and its bits
// depend on nothing else — first: one caller at 1, 2 and 4 workers, so
// each term's rows run inline and fanned out; racing: several goroutines
// running sums on one evaluator at once, each on its own pooled call
// state; late: the pooled call state of a wide sum serving a following sum
// of fewer terms, and the wide one again after it. The name and subtests
// are those of the test from when an idle pool worker could join a sum;
// they are kept so recorded test lists match.
func TestRotateSumHelpers(t *testing.T) {
	f := newRotSumFixture(t, SetA, rotSumShape{rotated: 15, addend: true, dots: true, level: 1}, 5)
	want := f.unfused(t, NewEvaluator(f.params))
	check := func(t *testing.T, ev *Evaluator, f *rotSumFixture, want *Ciphertext) {
		t.Helper()
		if got := f.fused(t, ev); !sameCiphertext(got, want) {
			t.Fatal("RotateSumInto differs from RotateLeft + Add")
		}
	}
	// Both names run the same case; they are kept so recorded test lists match.
	for _, fold := range []int{0, 3} {
		t.Run(fmt.Sprintf("first/fold%d", fold), func(t *testing.T) {
			for _, workers := range []int{1, 2, 4} {
				ev := NewEvaluator(f.params)
				ev.SetWorkers(workers)
				check(t, ev, f, want)
			}
		})
		t.Run(fmt.Sprintf("racing/fold%d", fold), func(t *testing.T) {
			ev := NewEvaluator(f.params)
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					out, err := NewCiphertext(f.params, 1, f.params.MaxLevel(), 0)
					if err != nil {
						t.Error(err)
						return
					}
					for run := 0; run < 2; run++ {
						scribble(out)
						if err := f.sumInto(ev, out); err != nil {
							t.Error(err)
							return
						}
						if !sameCiphertext(out, want) {
							t.Error("RotateSumInto beside other sums differs from RotateLeft + Add")
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
	t.Run("late", func(t *testing.T) {
		// narrow is f's first three terms.
		narrow := *f
		narrow.ends, narrow.steps = f.ends[:3], f.steps[:3]
		narrow.cts, narrow.pts = f.cts[:f.ends[2]], f.pts[:f.ends[2]]
		wantNarrow := narrow.unfused(t, NewEvaluator(f.params))
		ev := NewEvaluator(f.params)
		check(t, ev, f, want)
		check(t, ev, &narrow, wantNarrow)
		check(t, ev, f, want)
	})
}

// TestRotateSumFailsBeforeWriting: a missing key (refused as the steps
// resolve to keys, the way RotateLeftInto resolves one), a term or a
// factor at another level or scale, a degree-2 term or factor, operand
// lists that do not match and an output sharing an operand's storage are
// refused, with their sentinels where they have one, before out is
// touched.
func TestRotateSumFailsBeforeWriting(t *testing.T) {
	f := newRotSumFixture(t, smallSpec, rotSumShape{rotated: 3, addend: true, dots: true, level: 2}, 9)
	plain := newRotSumFixture(t, smallSpec, rotSumShape{plain: 4, level: 2}, 10)
	ev := NewEvaluator(f.params)
	mutate := func(base *rotSumFixture, edit func(g *rotSumFixture)) *rotSumFixture {
		g := *base
		g.cts = append([]*Ciphertext(nil), base.cts...)
		g.pts = append([]*Plaintext(nil), base.pts...)
		g.steps = append([]int(nil), base.steps...)
		edit(&g)
		return &g
	}
	// aliased is a fresh output that shares ct's second component.
	aliased := func(ct *Ciphertext) *Ciphertext {
		out := CopyOf(ct)
		out.Polys[1] = ct.Polys[1]
		return out
	}
	lower := func(ct *Ciphertext) *Ciphertext {
		return &Ciphertext{Polys: []*ring.Poly{ct.Polys[0].Resize(2), ct.Polys[1].Resize(2)}, Scale: ct.Scale, Level: 1}
	}
	last := len(f.cts) - 1
	cases := []struct {
		name string
		f    *rotSumFixture
		out  *Ciphertext
		want error // nil: any error
	}{
		{"missing key", mutate(f, func(g *rotSumFixture) { g.steps[len(g.steps)-1] = 5 }), nil, ErrKeyMissing},
		{"no keys", mutate(f, func(g *rotSumFixture) { g.gks = nil }), nil, ErrKeyMissing},
		{"level", mutate(f, func(g *rotSumFixture) { g.cts[last] = lower(g.cts[last]) }), nil, ErrLevelMismatch},
		{"scale", mutate(f, func(g *rotSumFixture) {
			c := *g.cts[last]
			c.Scale *= 2
			g.cts[last] = &c
		}), nil, ErrScaleMismatch},
		{"degree", mutate(f, func(g *rotSumFixture) {
			c := *g.cts[0]
			c.Polys = append(c.Polys, c.Polys[0])
			g.cts[0] = &c
		}), nil, ErrDegreeMismatch},
		{"aliased output", f, aliased(f.cts[last]), ErrLevelMismatch},
		{"plain/factor level", mutate(plain, func(g *rotSumFixture) { g.cts[1] = lower(g.cts[1]) }), nil, ErrLevelMismatch},
		{"plain/plaintext level", mutate(plain, func(g *rotSumFixture) {
			g.pts[2] = &Plaintext{Value: g.pts[2].Value.Resize(2), Scale: g.pts[2].Scale}
		}), nil, ErrLevelMismatch},
		{"plain/factor degree", mutate(plain, func(g *rotSumFixture) {
			c := *g.cts[3]
			c.Polys = append(c.Polys, c.Polys[0])
			g.cts[3] = &c
		}), nil, ErrDegreeMismatch},
		{"plain/factor scale", mutate(plain, func(g *rotSumFixture) {
			g.pts[1] = &Plaintext{Value: g.pts[1].Value, Scale: 2 * g.pts[1].Scale}
		}), nil, ErrScaleMismatch},
		{"plain/count", mutate(plain, func(g *rotSumFixture) { g.pts = g.pts[:3] }), nil, nil},
		{"plain/aliased factor", plain, aliased(plain.cts[2]), ErrLevelMismatch},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := c.out
			if out == nil {
				out = f.fused(t, ev) // a finished result, to see it left alone
			}
			before := CopyOf(out)
			err := c.f.sumInto(ev, out)
			if err == nil || c.want != nil && !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
			if !sameCiphertext(out, before) {
				t.Fatal("a refused RotateSumInto wrote its output")
			}
		})
	}
}

// TestRotateSumRefusesPastTailCap: a sum holds at most
// ring.TailSumTerms key-switched terms — 64 on mixedSpec's 58-bit special
// prime — so its tail sum fits a word. A sum of exactly that many
// rotations fills the word and is still RotateLeft + Add bit for bit; one
// more is refused before out is touched.
func TestRotateSumRefusesPastTailCap(t *testing.T) {
	f := newRotSumFixture(t, mixedSpec, rotSumShape{rotated: 1, level: 1}, 12)
	ev := NewEvaluator(f.params)
	limit := f.params.RingQP.TailSumTerms(f.params.SpecialRow())
	// terms repeats the fixture's one rotated term n times.
	terms := func(n int) *rotSumFixture {
		g := *f
		g.cts, g.pts, g.ends, g.steps = nil, nil, nil, nil
		for i := 0; i < n; i++ {
			g.cts = append(g.cts, f.cts[0])
			g.pts = append(g.pts, nil)
			g.ends = append(g.ends, i+1)
			g.steps = append(g.steps, f.steps[0])
		}
		return &g
	}
	full := terms(limit)
	if !testing.Short() {
		if got := full.fused(t, ev); !sameCiphertext(got, full.unfused(t, ev)) {
			t.Fatalf("a sum of %d rotations differs from RotateLeft + Add", limit)
		}
	}
	out := f.fused(t, ev) // a finished result, to see it left alone
	before := CopyOf(out)
	if err := terms(limit+1).sumInto(ev, out); err == nil {
		t.Fatalf("a sum of %d rotations past the cap of %d was accepted", limit+1, limit)
	}
	if !sameCiphertext(out, before) {
		t.Fatal("a refused RotateSumInto wrote its output")
	}
}

// BenchmarkRotateSum prices the matvec-serve-A giant step (Set-A, 15
// rotated 16-term dot products and an unrotated one) fused, against the
// MulPlainInto, RotateLeftInto and AddInto steps it replaced. Its terms
// run on the caller, and on an IFMA host no row pass of a Set-A sum at
// level 1 is wide enough to fan out, so every -cpu value there prices
// one worker.
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
	keys, err := f.keys(ev)
	if err != nil {
		b.Fatal(err)
	}
	out, _ := NewCiphertext(f.params, 1, 1, 0)
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := ev.RotateSumInto(f.cts, f.pts, f.ends, keys, out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unfused", func(b *testing.B) {
		sum, _ := NewCiphertext(f.params, 1, 1, 0)
		inner, _ := NewCiphertext(f.params, 1, 1, 0)
		prod, _ := NewCiphertext(f.params, 1, 1, 0)
		rot, _ := NewCiphertext(f.params, 1, 1, 0)
		for i := 0; i < b.N; i++ {
			lo := 0
			for t, hi := range f.ends {
				if err := ev.MulPlainInto(f.cts[lo], f.pts[lo], inner); err != nil {
					b.Fatal(err)
				}
				for j := lo + 1; j < hi; j++ {
					if err := ev.MulPlainInto(f.cts[j], f.pts[j], prod); err != nil {
						b.Fatal(err)
					}
					if err := ev.AddInto(inner, prod, inner); err != nil {
						b.Fatal(err)
					}
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

// BenchmarkRotateHoisted prices the two hoisted batches the served
// workloads open with: Set-A ×15 at level 1 (the matvec's baby steps)
// and Set-C ×3 at level 7 (the logistic regression's). Run it at -cpu 1
// for the one-worker split of decomposition, permutation, MAC and floor.
func BenchmarkRotateHoisted(b *testing.B) {
	for _, tc := range []struct {
		name         string
		spec         ParamSpec
		steps, level int
	}{{"SetA-x15-L1", SetA, 15, 1}, {"SetC-x3-L7", SetC, 3, 7}} {
		f := newRotSumFixture(b, tc.spec, rotSumShape{rotated: tc.steps, level: tc.level}, 5)
		ct := f.cts[0]
		outs := make([]*Ciphertext, tc.steps)
		for i := range outs {
			outs[i], _ = NewCiphertext(f.params, 1, tc.level, 0)
		}
		ev := NewEvaluator(f.params)
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := ev.RotateHoistedInto(ct, f.steps, f.gks, outs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
