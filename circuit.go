package heax

import (
	"fmt"
	"math"
	"sort"
)

// Circuit is the build stage of the compile-once / run-many pipeline —
// the host-side analogue of fixing the dataflow a HEAX board will
// stream batches through (Section 5.2). A circuit is a DAG of symbolic
// nodes over named encrypted inputs and plaintext constants, with *no*
// rescale, relinearization or level bookkeeping: Compile infers a
// (level, scale) assignment for every node, inserts the maintenance
// operations itself, and returns an immutable Plan that can execute
// arbitrarily many input batches.
//
//	c := heax.NewCircuit()
//	x := c.Input("x")
//	y := c.Output("y", c.AddConst(c.MulRelin(x, x), 1))
//	plan, err := c.Compile(params, evk)
//	out, err := plan.Run(map[string]*heax.Ciphertext{"x": ct})
//
// Builder methods never fail mid-chain: misuse (a Node from another
// circuit, a bad width) is recorded and surfaced by Compile.
type Circuit struct {
	nodes   []cnode
	inputs  []string       // input names in declaration order
	inputID map[string]int // input name -> node id
	outputs []circuitOut
	outSet  map[string]bool
	err     error
}

type circuitOut struct {
	name string
	node int
}

// Node is an opaque handle to a circuit value. The zero Node is
// invalid; Nodes are only produced by the builder methods of the
// Circuit that owns them.
type Node struct {
	c  *Circuit
	id int
}

type nodeKind uint8

const (
	kindInput nodeKind = iota
	kindAdd
	kindSub
	kindMulRelin
	kindMulPlain
	kindAddPlain
	kindRotate
	kindConjugate
	kindInnerSum
)

var nodeKindNames = [...]string{
	kindInput:     "Input",
	kindAdd:       "Add",
	kindSub:       "Sub",
	kindMulRelin:  "MulRelin",
	kindMulPlain:  "MulPlain",
	kindAddPlain:  "AddPlain",
	kindRotate:    "Rotate",
	kindConjugate: "ConjugateSlots",
	kindInnerSum:  "InnerSum",
}

// cnode is one symbolic operation as the user built it; Compile lowers
// these into plan steps with the maintenance operations inserted.
type cnode struct {
	kind nodeKind
	args []int
	// Plaintext payload for MulPlain/AddPlain: an explicit slot vector,
	// or a scalar broadcast across all slots (the width is only known
	// at Compile, when the parameter set fixes the slot count). A
	// periodic vector is tiled across all slots at compile time (its
	// length must divide the slot count), which is how a circuit that
	// does not know the parameter set expresses "this pattern in every
	// block" — the plaintext layout BSGS linear transforms need.
	vals      []complex128
	scalar    float64
	broadcast bool
	periodic  bool
	name      string // input name
	step      int    // rotation step
	n2        int    // InnerSum width
	// bound is the declared largest magnitude of any slot's real or
	// imaginary part (Circuit.Bound); 0 means none was declared.
	bound float64
}

// NewCircuit returns an empty circuit builder.
func NewCircuit() *Circuit {
	return &Circuit{inputID: make(map[string]int), outSet: make(map[string]bool)}
}

func (c *Circuit) fail(format string, args ...any) Node {
	if c.err == nil {
		c.err = fmt.Errorf("heax: "+format+": %w", append(args, ErrInvalidCircuit)...)
	}
	// A self-owned dummy keeps call chains alive; Compile reports err.
	return Node{c: c, id: 0}
}

func (c *Circuit) push(n cnode) Node {
	c.nodes = append(c.nodes, n)
	return Node{c: c, id: len(c.nodes) - 1}
}

func (c *Circuit) arg(n Node, op string) (int, bool) {
	if n.c != c {
		c.fail("%s: operand is the zero Node or belongs to another circuit", op)
		return 0, false
	}
	return n.id, true
}

func (c *Circuit) args2(a, b Node, op string) ([]int, bool) {
	ia, ok1 := c.arg(a, op)
	ib, ok2 := c.arg(b, op)
	return []int{ia, ib}, ok1 && ok2
}

// Input declares a named encrypted input. Inputs enter at the default
// scale and at the plan's InputLevel: the parameter set's top level,
// unless every output carries a Bound and Compile could start the plan
// lower. Plan.Run takes ciphertexts at that level or above (a higher one
// is read through a view of the first rows each step needs, neither
// copied nor modified). Declaring the same name twice returns the same
// node.
func (c *Circuit) Input(name string) Node {
	if name == "" {
		return c.fail("Input: empty name")
	}
	if id, ok := c.inputID[name]; ok {
		return Node{c: c, id: id}
	}
	n := c.push(cnode{kind: kindInput, name: name})
	c.inputID[name] = n.id
	c.inputs = append(c.inputs, name)
	return n
}

// Add returns a + b. Operand levels and scales need not match: the
// compiler reconciles them.
func (c *Circuit) Add(a, b Node) Node {
	ids, ok := c.args2(a, b, "Add")
	if !ok {
		return Node{c: c}
	}
	return c.push(cnode{kind: kindAdd, args: ids})
}

// Sub returns a - b.
func (c *Circuit) Sub(a, b Node) Node {
	ids, ok := c.args2(a, b, "Sub")
	if !ok {
		return Node{c: c}
	}
	return c.push(cnode{kind: kindSub, args: ids})
}

// MulRelin returns the relinearized product a · b. The compiler
// rescales the operands to the level's canonical scale first and keeps
// every intermediate at degree 1.
func (c *Circuit) MulRelin(a, b Node) Node {
	ids, ok := c.args2(a, b, "MulRelin")
	if !ok {
		return Node{c: c}
	}
	return c.push(cnode{kind: kindMulRelin, args: ids})
}

// MulPlain returns a ⊙ values (slot-wise product with a plaintext
// vector, encoded by the compiler at the level and scale inference
// assigns). len(values) must not exceed the parameter set's slot count.
func (c *Circuit) MulPlain(a Node, values []float64) Node {
	return c.plainNode(kindMulPlain, a, realToComplex(values), false)
}

// AddPlain returns a + values, slot-wise.
func (c *Circuit) AddPlain(a Node, values []float64) Node {
	return c.plainNode(kindAddPlain, a, realToComplex(values), false)
}

// MulPlainComplex is MulPlain with a complex payload, exercising both
// halves of the canonical embedding.
func (c *Circuit) MulPlainComplex(a Node, values []complex128) Node {
	return c.plainNode(kindMulPlain, a, append([]complex128(nil), values...), false)
}

// AddPlainComplex is AddPlain with a complex payload.
func (c *Circuit) AddPlainComplex(a Node, values []complex128) Node {
	return c.plainNode(kindAddPlain, a, append([]complex128(nil), values...), false)
}

// MulPlainPeriodic returns a ⊙ tile(values): the payload is repeated
// across all message slots at compile time, so a circuit built without
// knowing the parameter set can still express a block-periodic plaintext
// (the diagonal layout of heax/circuits.LinearTransform). len(values)
// must divide the slot count once the circuit is compiled; Compile
// rejects lengths that do not.
func (c *Circuit) MulPlainPeriodic(a Node, values []complex128) Node {
	return c.plainNode(kindMulPlain, a, append([]complex128(nil), values...), true)
}

// AddPlainPeriodic returns a + tile(values), slot-wise.
func (c *Circuit) AddPlainPeriodic(a Node, values []complex128) Node {
	return c.plainNode(kindAddPlain, a, append([]complex128(nil), values...), true)
}

func realToComplex(values []float64) []complex128 {
	vals := make([]complex128, len(values))
	for i, v := range values {
		vals[i] = complex(v, 0)
	}
	return vals
}

// plainNode records a vector-payload plain operation. vals is already a
// private copy owned by the node.
func (c *Circuit) plainNode(kind nodeKind, a Node, vals []complex128, periodic bool) Node {
	op := nodeKindNames[kind]
	id, ok := c.arg(a, op)
	if !ok {
		return Node{c: c}
	}
	if len(vals) == 0 {
		return c.fail("%s: empty plaintext vector", op)
	}
	for i, v := range vals {
		if !isFinite(real(v)) || !isFinite(imag(v)) {
			return c.fail("%s: value %d is %g", op, i, v)
		}
	}
	return c.push(cnode{kind: kind, args: []int{id}, vals: vals, periodic: periodic})
}

// MulConst returns v · a — MulPlain with v broadcast across all slots.
func (c *Circuit) MulConst(a Node, v float64) Node {
	return c.constNode(kindMulPlain, a, v)
}

// AddConst returns a + v in every slot.
func (c *Circuit) AddConst(a Node, v float64) Node {
	return c.constNode(kindAddPlain, a, v)
}

func (c *Circuit) constNode(kind nodeKind, a Node, v float64) Node {
	op := nodeKindNames[kind]
	id, ok := c.arg(a, op)
	if !ok {
		return Node{c: c}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return c.fail("%s: constant is %g", op, v)
	}
	return c.push(cnode{kind: kind, args: []int{id}, scalar: v, broadcast: true})
}

// Rotate rotates message slots left by step positions (negative steps
// rotate right). Rotations sharing a source are compiled into one
// hoisted-decomposition batch. Rotate by 0 is the identity; Compile
// reduces every step modulo the parameter set's slot count, so
// Rotate(a, 1) and Rotate(a, 1−slots) dedupe to the same step, share
// one Galois key, and a step that normalizes to 0 compiles to nothing.
func (c *Circuit) Rotate(a Node, step int) Node {
	id, ok := c.arg(a, "Rotate")
	if !ok {
		return Node{c: c}
	}
	if step == 0 {
		return Node{c: c, id: id}
	}
	return c.push(cnode{kind: kindRotate, args: []int{id}, step: step})
}

// ConjugateSlots applies complex conjugation to every slot.
func (c *Circuit) ConjugateSlots(a Node) Node {
	id, ok := c.arg(a, "ConjugateSlots")
	if !ok {
		return Node{c: c}
	}
	return c.push(cnode{kind: kindConjugate, args: []int{id}})
}

// InnerSum replaces every slot with the sum of n2 consecutive slots
// (n2 a power of two), compiled onto log2(n2) rotations.
func (c *Circuit) InnerSum(a Node, n2 int) Node {
	id, ok := c.arg(a, "InnerSum")
	if !ok {
		return Node{c: c}
	}
	if n2 < 1 || n2&(n2-1) != 0 {
		return c.fail("InnerSum: width %d must be a power of two", n2)
	}
	if n2 == 1 {
		return Node{c: c, id: id}
	}
	return c.push(cnode{kind: kindInnerSum, args: []int{id}, n2: n2})
}

// Output names a node as a circuit result and returns the node
// unchanged, so it can close a build chain. Each output name must be
// unique.
func (c *Circuit) Output(name string, a Node) Node {
	id, ok := c.arg(a, "Output")
	if !ok {
		return Node{c: c}
	}
	if name == "" {
		return c.fail("Output: empty name")
	}
	if c.outSet[name] {
		return c.fail("Output: duplicate name %q", name)
	}
	c.outSet[name] = true
	c.outputs = append(c.outputs, circuitOut{name: name, node: id})
	return Node{c: c, id: id}
}

// Bound declares that, for every input set the plan will run, the real
// and the imaginary part of every slot of n have magnitude at most
// maxAbs, and returns n. It is a promise the caller makes, not a check:
// a value past its bound may wrap modulo the ciphertext modulus and
// decrypt to garbage.
//
// Compile reads the bound only on an output's own node. When every output
// is bounded, it starts the plan as low in the modulus chain as still
// compiles and leaves each output at least 2 bits of modulus above
// log2(scale · bound), so the circuit runs on fewer primes (Plan.InputLevel
// reports where); a circuit with any unbounded output starts at the top
// level. Intermediate values keep the compiler's fixed rule of 4 bits of
// headroom above their scale, bounded or not. A non-finite or
// non-positive maxAbs is a builder error (ErrInvalidCircuit).
func (c *Circuit) Bound(n Node, maxAbs float64) Node {
	id, ok := c.arg(n, "Bound")
	if !ok {
		return Node{c: c}
	}
	if !isFinite(maxAbs) || maxAbs <= 0 {
		return c.fail("Bound: %g is not a positive finite magnitude", maxAbs)
	}
	c.nodes[id].bound = maxAbs
	return n
}

// RequiredRotations reports the distinct rotation steps the circuit
// needs Galois keys for under the given parameter set: every live
// Rotate step reduced by Params.NormalizeRotation plus the power-of-two
// spans InnerSum lowers onto, after the same deduplication and
// dead-node pruning Compile performs — so rotations that normalize to
// the identity, collapse onto each other, or feed no output are not
// reported. The result is sorted ascending and contains no zero; pass
// it to GenEvaluationKeys to generate exactly the keys a Plan compiled
// from this circuit will look up, instead of guessing.
//
// ConjugateSlots needs the separate conjugation key (the conjugate
// argument of GenEvaluationKeys), not a rotation step, and is not
// reported here.
func (c *Circuit) RequiredRotations(params *Params) ([]int, error) {
	if c.err != nil {
		return nil, c.err
	}
	if len(c.outputs) == 0 {
		return nil, fmt.Errorf("heax: circuit has no outputs: %w", ErrInvalidCircuit)
	}
	rep := c.eliminateCommon(params)
	reach := c.reachable(rep)
	need := make(map[int]bool)
	for id, n := range c.nodes {
		if rep[id] != id || !reach[id] {
			continue
		}
		switch n.kind {
		case kindRotate:
			// eliminateCommon collapsed normalized-0 rotations onto their
			// operand, so the normalized step here is always nonzero.
			need[params.NormalizeRotation(n.step)] = true
		case kindInnerSum:
			for span := n.n2 >> 1; span >= 1; span >>= 1 {
				if norm := params.NormalizeRotation(span); norm != 0 {
					need[norm] = true
				}
			}
		}
	}
	steps := make([]int, 0, len(need))
	for s := range need {
		steps = append(steps, s)
	}
	sort.Ints(steps)
	return steps, nil
}
