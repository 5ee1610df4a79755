package heax

// Plan-vs-imperative oracle: every compiled example circuit, executed
// through the concurrent Plan executor (pooled buffers, out-of-order
// steps, workers > 1), must produce ciphertexts bit-identical to a
// sequential imperative replay of the same step list through the
// allocating evaluator calls — the executor may add concurrency, never
// numerics. Runs across the paper's Set-A/B/C parameter sets and under
// -race in CI.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"heax/internal/ckks"
)

type oracleKit struct {
	params    *Params
	evk       *EvaluationKeySet
	enc       *Encoder
	encryptor *Encryptor
	decryptor *Decryptor
}

func newOracleKit(t *testing.T, spec ParamSpec, steps []int, conjugate bool) *oracleKit {
	t.Helper()
	params, err := NewParams(spec)
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(params, 7)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	return &oracleKit{
		params:    params,
		evk:       GenEvaluationKeys(kg, sk, steps, conjugate),
		enc:       NewEncoder(params),
		encryptor: NewEncryptor(params, pk, 8),
		decryptor: NewDecryptor(params, sk),
	}
}

func (k *oracleKit) encrypt(t *testing.T, vals []float64) *Ciphertext {
	t.Helper()
	pt, err := k.enc.EncodeReal(vals, k.params.MaxLevel(), k.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := k.encryptor.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func ctBitEqual(a, b *Ciphertext) bool {
	if a == nil || b == nil || a.Level != b.Level || len(a.Polys) != len(b.Polys) || a.Scale != b.Scale {
		return false
	}
	for i := range a.Polys {
		if !a.Polys[i].Equal(b.Polys[i]) {
			return false
		}
	}
	return true
}

// replayPlan executes the compiled step list sequentially through the
// allocating evaluator API — the hand-written imperative sequence the
// compiler would have produced. Inputs are first dropped to the plan's
// input level by a copy, independent of the view Run reads them through.
func replayPlan(t *testing.T, p *Plan, in map[string]*Ciphertext) map[string]*Ciphertext {
	t.Helper()
	e := p.eval
	slots := make([]*Ciphertext, p.nSlots)
	for _, pi := range p.inputs {
		ct, err := e.DropLevel(in[pi.name], p.InputLevel())
		if err != nil {
			t.Fatalf("replay: input %q: %v", pi.name, err)
		}
		slots[pi.slot] = ct
	}
	for i, st := range p.steps {
		var err error
		a := slots[st.args[0]]
		switch st.kind {
		case stepAdd:
			slots[st.outs[0]], err = e.Add(a, slots[st.args[1]])
		case stepSub:
			slots[st.outs[0]], err = e.Sub(a, slots[st.args[1]])
		case stepMulRelin:
			slots[st.outs[0]], err = e.MulRelin(a, slots[st.args[1]])
		case stepMulPlain:
			slots[st.outs[0]], err = e.MulPlain(a, st.pt)
		case stepAddPlain:
			slots[st.outs[0]], err = e.AddPlain(a, st.pt)
		case stepRescale:
			slots[st.outs[0]] = a // the chain is all the step runs
		case stepRotateHoisted:
			var rots map[int]*Ciphertext
			rots, err = e.RotateHoisted(a, st.rots)
			for j, s := range st.rots {
				if err == nil {
					slots[st.outs[j]] = rots[s]
				}
			}
		case stepCopy:
			slots[st.outs[0]] = CopyOf(a)
		case stepRotateSum:
			// What the step was lowered and fused from: each term's products
			// and their sum (or its bare operand), its rotation or
			// conjugation, then the sum so far plus it, in term order.
			var sum *Ciphertext
			lo := 0
			for j, hi := range st.ends {
				term := slots[st.args[lo]]
				for f := lo; f < hi && st.pts[lo] != nil && err == nil; f++ {
					var prod *Ciphertext
					if prod, err = e.MulPlain(slots[st.args[f]], st.pts[f]); err == nil && f > lo {
						prod, err = e.Add(term, prod)
					}
					term = prod
				}
				switch {
				case err != nil || st.rots[j] == 0:
				case st.rots[j] == rotConj:
					term, err = e.ConjugateSlots(term)
				default:
					term, err = e.RotateLeft(term, st.rots[j])
				}
				if err == nil && j > 0 {
					term, err = e.Add(sum, term)
				}
				sum, lo = term, hi
			}
			slots[st.outs[0]] = sum
		default:
			t.Fatalf("replay: unknown step kind %d", st.kind)
		}
		// The single-use steps fused after the step's own operation.
		for _, stage := range st.chain {
			if err != nil {
				break
			}
			v := slots[st.outs[0]]
			switch stage.Kind {
			case ckks.StageMulPlain:
				v, err = e.MulPlain(v, stage.Pt)
			case ckks.StageAddPlain:
				v, err = e.AddPlain(v, stage.Pt)
			case ckks.StageRescale:
				v, err = e.Rescale(v)
			}
			slots[st.outs[0]] = v
		}
		if err != nil {
			t.Fatalf("replay step %d (%s): %v", i, stepKindNames[st.kind], err)
		}
	}
	out := make(map[string]*Ciphertext, len(p.outputs))
	for _, o := range p.outputs {
		out[o.name] = slots[o.slot]
	}
	return out
}

// The example circuits, rebuilt here exactly as examples/ builds them.

func logisticCircuit(features int, w []float64, bias float64) *Circuit {
	c := NewCircuit()
	var tAcc Node
	for j := 0; j < features; j++ {
		term := c.MulConst(c.Input(fmt.Sprintf("x%d", j)), w[j])
		if j == 0 {
			tAcc = term
		} else {
			tAcc = c.Add(tAcc, term)
		}
	}
	y := c.AddConst(tAcc, bias)
	tt := c.MulRelin(y, y)
	cubic := c.MulRelin(c.MulConst(y, -0.004), tt)
	linear := c.MulConst(y, 0.197)
	c.Output("score", c.AddConst(c.Add(cubic, linear), 0.5))
	return c
}

func matvecCircuit(m [][]float64) *Circuit {
	dim := len(m)
	c := NewCircuit()
	x := c.Input("x")
	var acc Node
	for d := 0; d < dim; d++ {
		diag := make([]float64, dim)
		for i := 0; i < dim; i++ {
			diag[i] = m[i][(i+d)%dim]
		}
		term := c.MulPlain(c.Rotate(x, d), diag)
		if d == 0 {
			acc = term
		} else {
			acc = c.Add(acc, term)
		}
	}
	c.Output("y", acc)
	return c
}

func statisticsCircuit(slots int) *Circuit {
	c := NewCircuit()
	x := c.Input("x")
	c.Output("sum", c.InnerSum(x, slots))
	c.Output("sumsq", c.InnerSum(c.MulRelin(x, x), slots))
	return c
}

// mixedCircuit exercises every node kind on one DAG (for Set-C, whose
// ladder the shallow example circuits never stress).
func mixedCircuit() *Circuit {
	c := NewCircuit()
	x := c.Input("x")
	y := c.Input("y")
	rot := c.Add(c.Rotate(x, 1), c.Rotate(x, 2))
	prod := c.MulRelin(c.Sub(rot, y), x)
	c.Output("a", c.AddConst(c.InnerSum(prod, 4), 0.125))
	c.Output("b", c.ConjugateSlots(c.AddPlain(c.MulRelin(prod, prod), []float64{0.5, -0.5})))
	return c
}

func TestPlanOracleExampleCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	randVec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()*2 - 1
		}
		return v
	}

	type circuitCase struct {
		name      string
		spec      ParamSpec
		steps     []int
		conjugate bool
		circuit   *Circuit
		inputs    func(t *testing.T, k *oracleKit) map[string]*Ciphertext
	}

	const dim = 8
	m := make([][]float64, dim)
	for i := range m {
		m[i] = randVec(dim)
	}
	w := randVec(dim)
	const statSlots = 64

	var statSteps []int
	for s := 1; s < statSlots; s <<= 1 {
		statSteps = append(statSteps, s)
	}

	cases := []circuitCase{
		{
			name:    "matvec/Set-A",
			spec:    SetA,
			steps:   []int{1, 2, 3, 4, 5, 6, 7},
			circuit: matvecCircuit(m),
			inputs: func(t *testing.T, k *oracleKit) map[string]*Ciphertext {
				rep := make([]float64, 2*dim)
				copy(rep, randVec(dim))
				copy(rep[dim:], rep[:dim])
				return map[string]*Ciphertext{"x": k.encrypt(t, rep)}
			},
		},
		{
			name:    "logistic/Set-B",
			spec:    SetB,
			circuit: logisticCircuit(dim, w, 0.25),
			inputs: func(t *testing.T, k *oracleKit) map[string]*Ciphertext {
				in := make(map[string]*Ciphertext, dim)
				for j := 0; j < dim; j++ {
					in[fmt.Sprintf("x%d", j)] = k.encrypt(t, randVec(16))
				}
				return in
			},
		},
		{
			name:    "statistics/Set-B",
			spec:    SetB,
			steps:   statSteps,
			circuit: statisticsCircuit(statSlots),
			inputs: func(t *testing.T, k *oracleKit) map[string]*Ciphertext {
				return map[string]*Ciphertext{"x": k.encrypt(t, randVec(statSlots))}
			},
		},
		{
			name:      "mixed/Set-C",
			spec:      SetC,
			steps:     []int{1, 2},
			conjugate: true,
			circuit:   mixedCircuit(),
			inputs: func(t *testing.T, k *oracleKit) map[string]*Ciphertext {
				return map[string]*Ciphertext{
					"x": k.encrypt(t, randVec(8)),
					"y": k.encrypt(t, randVec(8)),
				}
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := newOracleKit(t, tc.spec, tc.steps, tc.conjugate)
			plan, err := tc.circuit.Compile(k.params, k.evk)
			if err != nil {
				t.Fatal(err)
			}
			plan.eval.inner.SetWorkers(2)
			setCrew(plan, 4)
			in := tc.inputs(t, k)
			want := replayPlan(t, plan, in)
			for run := 0; run < 2; run++ {
				got, err := plan.Run(in)
				if err != nil {
					t.Fatal(err)
				}
				for name, ct := range want {
					if !ctBitEqual(ct, got[name]) {
						t.Fatalf("run %d: output %q differs from the imperative replay\n%s",
							run, name, plan.Describe())
					}
				}
			}
			// And streamed through RunBatch, which shares the same pools.
			batch, err := plan.RunBatch([]map[string]*Ciphertext{in, in, in})
			if err != nil {
				t.Fatal(err)
			}
			for i, out := range batch {
				for name, ct := range want {
					if !ctBitEqual(ct, out[name]) {
						t.Fatalf("batch %d: output %q differs from the imperative replay", i, name)
					}
				}
			}
		})
	}
}

// TestPlanGaloisNodesMatchEvaluator: the lowered Rotate (a negative step
// among them), ConjugateSlots and InnerSum nodes give the evaluator's
// RotateLeft, ConjugateSlots and InnerSum bits. replayPlan cannot see a
// lowering that picked the wrong automorphism: it replays the steps the
// compiler wrote. Each rotation has a source of its own, so none is
// hoisted (a hoisted batch is close to RotateLeft, not bit-identical).
func TestPlanGaloisNodesMatchEvaluator(t *testing.T) {
	k := newOracleKit(t, SetA, []int{1, 2, 3, -1}, true)
	c := NewCircuit()
	x, y := c.Input("x"), c.Input("y")
	c.Output("rotm1", c.Rotate(x, -1))
	c.Output("rot3", c.Rotate(y, 3))
	c.Output("conj", c.ConjugateSlots(x))
	c.Output("sum4", c.InnerSum(x, 4))
	plan, err := c.Compile(k.params, k.evk)
	if err != nil {
		t.Fatal(err)
	}
	in := map[string]*Ciphertext{
		"x": k.encrypt(t, []float64{0.5, -0.25, 0.75, 1}),
		"y": k.encrypt(t, []float64{-1, 0.125, 0.5, -0.5}),
	}
	got, err := plan.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	e := plan.eval
	want := make(map[string]*Ciphertext)
	for name, f := range map[string]func() (*Ciphertext, error){
		"rotm1": func() (*Ciphertext, error) { return e.RotateLeft(in["x"], -1) },
		"rot3":  func() (*Ciphertext, error) { return e.RotateLeft(in["y"], 3) },
		"conj":  func() (*Ciphertext, error) { return e.ConjugateSlots(in["x"]) },
		"sum4":  func() (*Ciphertext, error) { return e.InnerSum(in["x"], 4) },
	} {
		if want[name], err = f(); err != nil {
			t.Fatal(err)
		}
	}
	for name, ct := range want {
		if !ctBitEqual(ct, got[name]) {
			t.Fatalf("output %q differs from the evaluator\n%s", name, plan.Describe())
		}
	}
}

// TestPlanRotateSumCap: a RotateSum holds at most as many key-switched
// terms as one tail sum fits (8 on a 61-bit special prime), so Compile
// splits a sum of 2·cap+3 rotations into sums of at most cap rotations,
// each earlier sum the unrotated term of the next, and the plan is still
// the evaluator's rotations and additions one at a time, bit for bit,
// with one member or four.
func TestPlanRotateSumCap(t *testing.T) {
	spec := ParamSpec{Name: "wide-P", LogN: 10, QBits: []int{50, 40}, PBits: 61, LogScale: 30}
	k := newOracleKit(t, spec, []int{1}, false)
	limit := k.params.RingQP.TailSumTerms(k.params.SpecialRow())
	c := NewCircuit()
	in := map[string]*Ciphertext{}
	var sum Node
	for i := 0; i < 2*limit+3; i++ {
		name := fmt.Sprintf("x%d", i)
		in[name] = k.encrypt(t, []float64{float64(i) / 32, 0.5, -0.25})
		if r := c.Rotate(c.Input(name), 1); i == 0 {
			sum = r
		} else {
			sum = c.Add(sum, r)
		}
	}
	c.Output("sum", sum)
	plan, err := c.Compile(k.params, k.evk)
	if err != nil {
		t.Fatal(err)
	}
	sums := 0
	for _, st := range plan.steps {
		if st.kind != stepRotateSum {
			continue
		}
		sums++
		rotated := 0
		for _, key := range st.keys {
			if key != nil {
				rotated++
			}
		}
		if rotated > limit {
			t.Fatalf("a RotateSum of %d rotated terms, past the cap of %d\n%s", rotated, limit, plan.Describe())
		}
	}
	if sums != 3 {
		t.Fatalf("%d RotateSum steps, want 3 for %d rotations at a cap of %d\n%s", sums, 2*limit+3, limit, plan.Describe())
	}
	e := plan.eval
	var want *Ciphertext
	for i := 0; i < 2*limit+3; i++ {
		r, err := e.RotateLeft(in[fmt.Sprintf("x%d", i)], 1)
		if err == nil && i > 0 {
			r, err = e.Add(want, r)
		}
		if err != nil {
			t.Fatal(err)
		}
		want = r
	}
	for _, crew := range []int{1, 4} {
		setCrew(plan, crew)
		got, err := plan.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		if !ctBitEqual(got["sum"], want) {
			t.Fatalf("crew %d: the split sums differ from RotateLeft + Add one at a time\n%s", crew, plan.Describe())
		}
	}
}

// randomCircuit draws one DAG over the ops a plan step can be: operands
// are picked from everything built so far (so subexpressions are shared,
// sometimes verbatim, for CSE to merge), multiplications nest up to one
// level past what Set-A can rescale, rotations include denormalised and
// keyless steps, and 1–3 outputs may alias each other or an input. Sums
// of 2–40 plaintext products of two shared operands come up too — what
// the compiler fuses into one step — some with a term that is also a
// named output or is added twice, which must keep a step of its own. A
// sum's factors are short vectors, periodic vectors of 1 to slots values
// or constants, so full and compact plaintext rows meet in one sum. So do
// sums of 2–5 rotations of distinct values — what the compiler fuses into
// one RotateSum — of plaintext products (one or two) and of bare values,
// with an unrotated addend or none, at the top level or all below it, and
// each with one more rotation that is also an output or is added twice;
// one term in five of those sums is a conjugation. ConjugateSlots and
// InnerSum (of 2 or 4 slots) nodes come up on their own too. With bounds
// set, half the circuits bound every output and the rest bound some,
// drawn from bounds alone, so rng draws the same DAGs either way. With
// chains set, a quarter of the ops add a rescale chain (randomChain), drawn
// from chains alone, beside what rng draws; with views set, a quarter add
// a value to one below it (randomDescent), drawn from views alone.
func randomCircuit(rng, bounds, chains, views *rand.Rand, slots int) *Circuit {
	c := NewCircuit()
	nodes := []Node{c.Input("x"), c.Input("y")}
	pick := func() Node { return nodes[rng.Intn(len(nodes))] }
	vals := func() []float64 {
		v := make([]float64, 1+rng.Intn(4))
		for i := range v {
			v[i] = rng.Float64()*2 - 1
		}
		return v
	}
	factor := func(a Node) Node {
		switch rng.Intn(3) {
		case 0:
			v := make([]complex128, 1<<rng.Intn(bits.Len(uint(slots))))
			for i := range v {
				v[i] = complex(rng.Float64()*2-1, 0)
			}
			return c.MulPlainPeriodic(a, v)
		case 1:
			return c.MulConst(a, rng.Float64()*2-1)
		}
		return c.MulPlain(a, vals())
	}
	rots := []int{1, 2, 3, -1, slots + 1, 2 - slots, 0, 5} // 5 has no key
	keyed := func() int { return rots[rng.Intn(6)] }       // the steps with a key
	galois := func(a Node) Node {
		if rng.Intn(5) == 0 {
			return c.ConjugateSlots(a)
		}
		return c.Rotate(a, keyed())
	}
	for ops := 3 + rng.Intn(12); ops > 0; ops-- {
		var n Node
		switch a := pick(); rng.Intn(16) {
		case 0, 1, 2:
			n = c.Add(a, pick())
		case 3, 4:
			n = c.Sub(a, pick())
		case 5, 6:
			n = c.MulPlain(a, vals())
		case 7:
			n = c.AddPlain(a, vals())
		case 8, 9:
			n = c.Rotate(a, rots[rng.Intn(len(rots)-rng.Intn(2))])
		case 10:
			n = c.MulRelin(a, pick())
		case 11:
			operands := [2]Node{a, pick()}
			n = factor(a)
			for terms := 1 + rng.Intn(40); terms > 1; terms-- {
				n = c.Add(n, factor(operands[rng.Intn(2)]))
			}
			if rng.Intn(4) == 0 { // a term that is an output as well
				term := c.MulPlain(a, vals())
				c.Output(fmt.Sprintf("term%d", len(nodes)), term)
				n = c.Add(n, term)
			}
			if rng.Intn(4) == 0 { // a term added twice
				term := c.MulPlain(a, vals())
				n = c.Add(c.Add(n, term), term)
			}
		case 12:
			// Every value is a product of the inputs, so all the terms meet
			// at one scale: at the top level, or with low set each factor
			// rescaled first and the whole sum one level down.
			in := func() Node { return nodes[rng.Intn(2)] }
			low := rng.Intn(2) == 0
			operand := func() Node {
				if low {
					return factor(in())
				}
				return in()
			}
			value := func() Node {
				switch rng.Intn(3) {
				case 0: // bare
					return c.MulRelin(operand(), operand())
				case 1:
					return factor(operand())
				}
				return c.Add(factor(operand()), factor(operand()))
			}
			if rng.Intn(2) == 0 {
				n = value() // the unrotated addend
			}
			for terms := 2 + rng.Intn(4); terms > 0; terms-- {
				if r := galois(value()); n == (Node{}) {
					n = r
				} else {
					n = c.Add(n, r)
				}
			}
			keep := galois(value())
			if rng.Intn(2) == 0 {
				c.Output(fmt.Sprintf("rot%d", len(nodes)), keep)
				n = c.Add(n, keep)
			} else {
				n = c.Add(c.Add(n, keep), keep)
			}
		case 13:
			n = c.ConjugateSlots(a)
		case 14:
			n = c.InnerSum(a, 2<<rng.Intn(2))
		default:
			n = c.Add(c.Rotate(a, 1), c.Rotate(a, 2)) // a hoistable pair
		}
		nodes = append(nodes, n)
		if chains != nil && chains.Intn(4) == 0 {
			nodes = append(nodes, randomChain(c, chains, nodes))
		}
		if views != nil && views.Intn(4) == 0 {
			nodes = append(nodes, randomDescent(c, views, nodes))
		}
	}
	for o := 1 + rng.Intn(3); o > 0; o-- {
		// Mostly the latest values, so most of the DAG is live.
		at := len(nodes) - 1 - rng.Intn(min(len(nodes), 4))
		c.Output(fmt.Sprintf("out%d", o), nodes[at])
	}
	if bounds != nil {
		all := bounds.Intn(2) == 0
		for _, o := range c.outputs {
			if all || bounds.Intn(2) == 0 {
				c.Bound(Node{c: c, id: o.node}, math.Exp2(float64(bounds.Intn(12)-2)))
			}
		}
	}
	return c
}

// randomChain draws a value whose plan ends in a run of single-use steps
// closed by a Rescale: a product — squared, of two values, rotated (a key
// switch of its own) or of a constant — then an AddConst, an AddPlain or
// neither, then maybe a MulConst, whose operand rescales first, and last a
// consumer that rescales the value again: a MulConst, or a product with a
// value of the circuit.
func randomChain(c *Circuit, chains *rand.Rand, nodes []Node) Node {
	pick := func() Node { return nodes[chains.Intn(len(nodes))] }
	input := func() Node { return nodes[chains.Intn(2)] }
	scalar := func() float64 { return chains.Float64()*2 - 1 }
	a := input()
	if chains.Intn(3) == 0 {
		a = pick()
	}
	var v Node
	switch chains.Intn(4) {
	case 0:
		v = c.MulRelin(a, a)
	case 1:
		v = c.MulRelin(a, input())
	case 2:
		v = c.Rotate(c.MulRelin(a, input()), 1+chains.Intn(3))
	default:
		v = c.MulConst(a, scalar())
	}
	switch chains.Intn(3) {
	case 0:
		v = c.AddConst(v, scalar())
	case 1:
		v = c.AddPlain(v, []float64{scalar(), scalar()})
	}
	if chains.Intn(2) == 0 {
		v = c.MulConst(v, scalar())
	}
	if chains.Intn(3) > 0 {
		return c.MulConst(v, scalar())
	}
	return c.MulRelin(v, v)
}

// randomDescent draws the sum of a value and one two levels below it, so
// that a step reads the value through a view of its first rows
// (ckks.AtLevel): a plain value (an AddPlain of an input), a producer's
// output (a product of the inputs, its rescale fused into the MulRelin
// step) or a Rescale chain with no producer (a constant multiple of an
// input). The lower value is an input times three constants, each after
// the first rescaling the one before, so it needs a deeper chain than
// Set-A's.
func randomDescent(c *Circuit, views *rand.Rand, nodes []Node) Node {
	input := func() Node { return nodes[views.Intn(2)] }
	scalar := func() float64 { return views.Float64()*2 - 1 }
	var hi Node
	switch views.Intn(3) {
	case 0:
		hi = c.AddPlain(input(), []float64{scalar(), scalar()})
	case 1:
		hi = c.MulRelin(input(), input())
	default:
		hi = c.MulConst(input(), scalar())
	}
	lo := c.MulConst(c.MulConst(c.MulConst(input(), scalar()), scalar()), scalar())
	if views.Intn(2) == 0 {
		return c.Add(hi, lo)
	}
	return c.Add(lo, hi)
}

// TestPlanRandomDAGs is the property behind the executor: for any
// circuit, Compile either refuses with a typed sentinel or yields a plan
// whose runs — a crew of one, a crew of four, and RunBatch — all equal
// the sequential replay of its step list bit for bit; and a fault or a
// cancellation at any step leaves every pooled buffer back in the pool.
// Set-A has no level below its top that a product can still reach, so a
// quarter as many circuits run on Set-B's deeper chain, where sums of
// rotations below the top level compile. Bounded outputs place some plans
// below the top level; their inputs still arrive at the top.
func TestPlanRandomDAGs(t *testing.T) {
	circuitCount := 200
	if testing.Short() {
		circuitCount = 40
	}
	sentinels := []error{ErrLevelMismatch, ErrScaleMismatch, ErrKeyMissing, ErrUnencodable, ErrInvalidCircuit}
	total, compiled, refused := 0, 0, make(map[error]int)
	fused, widest, kept := 0, 0, 0    // unrotated dot products, the most factors in one, MulPlain steps left
	mixed := 0                        // unrotated dot products with compact and full plaintexts
	rotSums, lowSums := 0, 0          // RotateSum steps of two or more rotated terms; those below the top level
	conjTerms, rounds := 0, 0         // conjugated terms; InnerSum rounds (x + rot(x) over one bare x)
	placed := 0                       // plans whose inputs enter below the top level
	fusedChains := map[stepKind]int{} // fused chains by producer kind, stepRescale for none
	viewed := map[string]int{}        // operands read through a view, by what made them
	for _, pass := range []struct {
		spec  ParamSpec
		count int
		seed  int64
	}{{SetA, circuitCount, 18}, {SetB, circuitCount / 4, 19}} {
		k := newOracleKit(t, pass.spec, []int{1, 2, 3, -1}, true)
		slots := k.params.Slots()
		rng := rand.New(rand.NewSource(pass.seed))
		bounds := rand.New(rand.NewSource(pass.seed + 100))
		chains := rand.New(rand.NewSource(pass.seed + 200))
		// Set-A has no level below its top that a product can reach, so
		// only Set-B's circuits add values to ones below them.
		var views *rand.Rand
		if pass.spec.Name == SetB.Name {
			views = rand.New(rand.NewSource(pass.seed + 300))
		}
		in := map[string]*Ciphertext{
			"x": k.encrypt(t, []float64{0.5, -0.25, 0.75, 1}),
			"y": k.encrypt(t, []float64{-1, 0.125, 0.5, -0.5}),
		}
		total += pass.count
		for n := 0; n < pass.count; n++ {
			plan, err := randomCircuit(rng, bounds, chains, views, slots).Compile(k.params, k.evk)
			if err != nil {
				typed := false
				for _, s := range sentinels {
					if errors.Is(err, s) {
						typed = true
						refused[s]++
					}
				}
				if !typed {
					t.Fatalf("%s circuit %d: compile failed without a typed sentinel: %v", pass.spec.Name, n, err)
				}
				continue
			}
			compiled++
			if plan.InputLevel() < k.params.MaxLevel() {
				placed++
			}
			for _, st := range plan.steps {
				if st.chain != nil && (st.kind != stepRescale || len(st.chain) > 1) { // a lone Rescale's chain is the step
					fusedChains[st.kind]++
				}
				switch st.kind {
				case stepMulPlain:
					kept++
				case stepRotateSum:
					if len(st.ends) >= 2 && st.ends[1] == 2 && st.args[0] == st.args[1] && st.pts[0] == nil && st.pts[1] == nil && st.rots[0] == 0 {
						rounds++
					}
					rotated, lo := 0, 0
					for j, hi := range st.ends {
						switch {
						case st.rots[j] != 0:
							rotated++
							if st.rots[j] == rotConj {
								conjTerms++
							}
						case st.pts[lo] != nil:
							fused++
							widest = max(widest, hi-lo)
							dot := planStep{kind: stepRotateSum, pts: st.pts[lo:hi]}
							if compact := plan.compactFactors(&dot); compact > 0 && compact < hi-lo {
								mixed++
							}
						}
						lo = hi
					}
					if rotated >= 2 {
						rotSums++
						sumLevel := st.level // before a fused chain's rescales
						for _, stage := range st.chain {
							if stage.Kind == ckks.StageRescale {
								sumLevel++
							}
						}
						if sumLevel < k.params.MaxLevel() {
							lowSums++
						}
					}
				}
			}
			for _, r := range viewReads(plan, in) {
				switch src := plan.producer[plan.steps[r.step].args[r.arg]]; {
				case src < 0:
					viewed["input"]++
				case plan.steps[src].kind == stepRescale:
					viewed["Rescale chain"]++
				case plan.steps[src].kind == stepMulRelin || plan.steps[src].kind == stepRotateSum || plan.steps[src].kind == stepRotateHoisted:
					viewed["producer"]++
				default:
					viewed["plain"]++
				}
			}
			want := replayPlan(t, plan, in)
			same := func(what string, got map[string]*Ciphertext, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s circuit %d, %s: %v\n%s", pass.spec.Name, n, what, err, plan.Describe())
				}
				for name, ct := range want {
					if !ctBitEqual(ct, got[name]) {
						t.Fatalf("%s circuit %d, %s: output %q differs from the sequential replay\n%s", pass.spec.Name, n, what, name, plan.Describe())
					}
				}
			}
			pool := newAuditPool(t, k.params)
			plan.bufs = pool
			for _, crew := range []int{1, 4} {
				setCrew(plan, crew)
				got, err := plan.Run(in)
				same(fmt.Sprintf("crew %d", crew), got, err)
			}
			batch, err := plan.RunBatch([]map[string]*Ciphertext{in, in})
			for _, got := range batch {
				same("RunBatch", got, err)
			}
			if held := pool.outstanding(); held != 0 {
				t.Fatalf("%s circuit %d: %d pooled buffers leaked by clean runs\n%s", pass.spec.Name, n, held, plan.Describe())
			}

			// A fault or a cancel at a random step, under a random shape.
			at := rng.Intn(plan.NumSteps())
			plan.crew, plan.lookahead = 1+rng.Intn(4), 1+rng.Intn(2*plan.NumSteps())
			ctx, cancel := context.WithCancel(context.Background())
			wantErr := errInjected
			if rng.Intn(2) == 0 {
				wantErr = context.Canceled
			}
			plan.failStep = func(i int) error {
				if i != at {
					return nil
				}
				if wantErr == context.Canceled {
					cancel()
					return nil
				}
				return errInjected
			}
			// Cancelling from inside the last step cancels nothing any more.
			if _, err := plan.RunContext(ctx, in); !errors.Is(err, wantErr) && !(err == nil && wantErr == context.Canceled) {
				t.Fatalf("%s circuit %d: %v at step %d reported %v\n%s", pass.spec.Name, n, wantErr, at, err, plan.Describe())
			}
			cancel()
			if held := pool.outstanding(); held != 0 {
				t.Fatalf("%s circuit %d: %d pooled buffers leaked by %v at step %d\n%s", pass.spec.Name, n, held, wantErr, at, plan.Describe())
			}
		}
	}
	// The generator must exercise both sides of the property.
	if compiled < total/4 || compiled > total*9/10 {
		t.Fatalf("%d of %d random circuits compiled: the generator no longer covers both outcomes", compiled, total)
	}
	if placed == 0 {
		t.Fatalf("none of %d plans was placed below the top level: the generator no longer covers placement", compiled)
	}
	if fused < compiled/8 || widest < 16 || kept == 0 || mixed == 0 {
		t.Fatalf("%d fused sums (the widest of %d terms, %d mixing row shapes) and %d unfused products in %d plans: the generator no longer covers the fusion",
			fused, widest, mixed, kept, compiled)
	}
	// A few dozen circuits may draw no sum of rotations that compiles.
	if !testing.Short() && (rotSums == 0 || lowSums == 0 || conjTerms == 0 || rounds == 0) {
		t.Fatalf("%d RotateSum steps of two or more rotations (%d below the top level), %d conjugated terms and %d InnerSum rounds in %d plans: the generator no longer covers the lowering and fusion",
			rotSums, lowSums, conjTerms, rounds, compiled)
	}
	if !testing.Short() && (fusedChains[stepMulRelin] == 0 || fusedChains[stepRotateSum] == 0 || fusedChains[stepRescale] == 0) {
		t.Fatalf("fused chains after a MulRelin, a RotateSum and no producer: %d, %d and %d in %d plans: the generator no longer covers the chain fusion",
			fusedChains[stepMulRelin], fusedChains[stepRotateSum], fusedChains[stepRescale], compiled)
	}
	if !testing.Short() && (viewed["plain"] == 0 || viewed["producer"] == 0 || viewed["Rescale chain"] == 0) {
		t.Fatalf("operands read through a view: %v in %d plans: the generator no longer covers a plain value, a producer's output and a Rescale chain with no producer read below their level",
			viewed, compiled)
	}
	t.Logf("%d of %d random circuits compiled (%d placed below the top level, %d fused sums, the widest of %d terms, %d mixing row shapes, %d products unfused, %d sums of rotations, %d below the top level, %d conjugated terms, %d InnerSum rounds, fused chains %d after a MulRelin, %d after a RotateSum and %d of plain values, view reads %v); refused: %v",
		compiled, total, placed, fused, widest, mixed, kept, rotSums, lowSums, conjTerms, rounds, fusedChains[stepMulRelin], fusedChains[stepRotateSum], fusedChains[stepRescale], viewed, refused)
}
