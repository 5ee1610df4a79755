package heax

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"heax/internal/ckks"
	"heax/internal/ring"
	"heax/internal/uintmod"
)

// Compile is the middle stage of build → compile → run: it runs scale
// and level inference over the circuit DAG, inserts every Rescale /
// lift / copy the dataflow needs, eliminates common subexpressions,
// prunes dead nodes, groups same-source rotations into hoisted-
// decomposition batches, fuses sums of rotations and products, and runs
// of constants and rescales, into single steps, and returns an
// immutable, concurrency-safe Plan bound to params and evk.
//
// Inference tracks a free per-node (level, scale) pair: a node is
// either *base* (rescaled) or a *product* (unrescaled, carrying the
// full product of its factors' scales). Plaintext factors are encoded
// at the operand's own scale, so plaintext and ciphertext products
// follow the same scale algebra (s·s) and same-level values keep
// bit-identical scales. A rescale that would land below the default
// scale Δ — the fate of every product on parameter sets whose primes
// outsize Δ, such as Set-C's 49-bit primes against Δ = 2^40 — is
// preceded by a multiplication with an encoded 1 at an exact power of
// two (a "lift"), so every rescaled value keeps ≈Δ bits of precision
// above the rounding noise and deep circuits use the whole modulus
// chain. Additions meet mismatched operands by descending to a common
// level — a product rescales, a rescaled value is read through a view of
// its first rows, with no step — and lifting the smaller-scale side by
// the scale ratio (exact for integer ratios; boosted above 2^30 otherwise
// so the rounding of the encoded 1 stays below scheme noise). No valid
// assignment — a multiplication below level 0, a scale outgrowing the
// level's modulus or underflowing 1, a key the EvaluationKeySet lacks
// — fails here, before anything runs, with the usual sentinels
// (ErrLevelMismatch, ErrScaleMismatch, ErrKeyMissing).
//
// Inputs enter at the top level unless every output carries a Bound;
// then the plan starts as low in the modulus chain as those bounds allow
// (Circuit.Bound has the rule, Plan.InputLevel the result).
func (c *Circuit) Compile(params *Params, evk *EvaluationKeySet) (*Plan, error) {
	if c.err != nil {
		return nil, c.err
	}
	if len(c.outputs) == 0 {
		return nil, fmt.Errorf("heax: circuit has no outputs: %w", ErrInvalidCircuit)
	}
	if evk == nil {
		evk = &EvaluationKeySet{}
	}

	rep := c.eliminateCommon(params)
	k := &compiler{
		circ:   c,
		params: params,
		evk:    evk,
		enc:    NewEncoder(params),
		rep:    rep,
		reach:  c.reachable(rep),
	}
	k.modBits = make([]float64, params.K())
	bits := 0.0
	for i, q := range params.Q {
		bits += math.Log2(float64(q))
		k.modBits[i] = bits
	}

	top := params.MaxLevel()
	level := top - k.placement()
	err := k.lowerAll(level, false)
	if err != nil && level < top {
		// The trials skipped only the encoding, so what failed is an
		// encoding: a payload that rounds to zero at the smaller plaintext
		// scale of a lower level (ErrUnencodable), or a malformed one that
		// fails at every level. Compile as if unbounded.
		level = top
		err = k.lowerAll(level, false)
	}
	if err != nil {
		return nil, err
	}

	outputs, err := k.bindOutputs()
	if err != nil {
		return nil, err
	}
	k.hoistRotations()
	k.fuseRotateSums(outputs)
	k.fuseChains(outputs)
	k.renumberSlots(outputs) // so nSlots and the footprint describe the fused plan

	eval := NewEvaluator(params, evk)
	p := &Plan{
		params:     params,
		eval:       eval,
		inputLevel: level,
		steps:      k.steps,
		nSlots:     k.nSlots,
		inputs:     k.inputSlots,
		outputs:    outputs,
		consumers:  make([]int, k.nSlots),
		escapes:    make([]bool, k.nSlots),
		producer:   make([]int, k.nSlots),
		needs:      make([]int, len(k.steps)),
		readers:    make([][]int, len(k.steps)),
		argOff:     make([]int, len(k.steps)+1),
		crew:       eval.Workers(),
		lookahead:  windowPerWorker * eval.Workers(),
	}
	for _, in := range p.inputs {
		p.producer[in.slot] = -1
	}
	// Steps are in topological order: an operand's producer comes first.
	for i, st := range p.steps {
		p.argOff[i+1] = p.argOff[i] + len(st.args)
		for _, a := range st.args {
			p.consumers[a]++
			if src := p.producer[a]; src >= 0 {
				p.needs[i]++
				p.readers[src] = append(p.readers[src], i)
			}
		}
		for _, o := range st.outs {
			p.producer[o] = i
		}
	}
	for _, o := range p.outputs {
		p.escapes[o.slot] = true
	}
	p.footprint = p.windowSlots()
	// Prove the pool's buffer shape constructible once, here, where an
	// error can still be returned; the pool's New then runs panic-free
	// on the request path (a plan buffer that cannot be represented is a
	// compile-time rejection, not a runtime crash).
	if _, err := NewCiphertext(params, 1, params.MaxLevel(), 0); err != nil {
		return nil, fmt.Errorf("heax: compile: plan buffer shape (degree 1, level %d) rejected: %w",
			params.MaxLevel(), errors.Join(ErrUnencodable, err))
	}
	p.bufs = sharedBufPool(params)
	return p, nil
}

// The executor's fixed shape. The computing is done by one set of
// workers, the ring pool's: a run has at most as many members as its
// evaluator has workers (the caller and the pool workers that join it),
// and callers only decide how many input sets are in flight — RunBatch
// keeps batchWindow of them (the paper's double-buffered host queue; the
// two goroutines it starts are callers, and bound its memory), a server
// its admission count. The reorder window is windowPerWorker steps per
// worker — wide enough that interleaved dependent and independent steps
// keep every member busy (one BSGS matvec run, Set-A, 2 CPUs: 8 per
// worker costs ~30 % latency, 16 and 32 are level with no window).
const (
	batchWindow     = 2
	windowPerWorker = 32
)

// --- CSE and pruning -------------------------------------------------------

// eliminateCommon maps every node to its representative: the earliest
// node computing the same value. Add and MulRelin are commutative, so
// their operands are compared order-insensitively; plaintext payloads
// are compared by value. Rotation steps are reduced modulo the slot
// count first — Rotate(a, 1) and Rotate(a, 1−slots) are the same slot
// permutation — so equivalent rotations share one step (and one Galois
// key), and a rotation that normalizes to 0 collapses onto its operand.
func (c *Circuit) eliminateCommon(params *Params) []int {
	rep := make([]int, len(c.nodes))
	seen := make(map[string][]int)
	for id, n := range c.nodes {
		rep[id] = id
		if n.kind == kindInput {
			continue // inputs are already deduplicated by name
		}
		step := n.step
		if n.kind == kindRotate {
			step = params.NormalizeRotation(step)
			if step == 0 { // identity: the node IS its operand
				rep[id] = rep[n.args[0]]
				continue
			}
		}
		args := make([]int, len(n.args))
		for i, a := range n.args {
			args[i] = rep[a]
		}
		if n.kind == kindAdd || n.kind == kindMulRelin {
			sort.Ints(args)
		}
		key := fmt.Sprintf("%d|%v|%d|%d", n.kind, args, step, n.n2)
		for _, prior := range seen[key] {
			if samePayload(&c.nodes[prior], &n) {
				rep[id] = prior
				break
			}
		}
		if rep[id] == id {
			seen[key] = append(seen[key], id)
		}
	}
	return rep
}

func samePayload(a, b *cnode) bool {
	if a.broadcast != b.broadcast || a.scalar != b.scalar ||
		a.periodic != b.periodic || len(a.vals) != len(b.vals) {
		return false
	}
	for i := range a.vals {
		if a.vals[i] != b.vals[i] {
			return false
		}
	}
	return true
}

// reachable marks the nodes whose values flow into an output.
func (c *Circuit) reachable(rep []int) []bool {
	reach := make([]bool, len(c.nodes))
	var stack []int
	for _, o := range c.outputs {
		stack = append(stack, rep[o.node])
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reach[id] {
			continue
		}
		reach[id] = true
		for _, a := range c.nodes[id].args {
			stack = append(stack, rep[a])
		}
	}
	return reach
}

// --- Inference and lowering ------------------------------------------------

type tier uint8

const (
	tierBase    tier = iota // rescaled: feed multiplications as-is
	tierProduct             // an unrescaled product: rescale before multiplying again
)

// minLiftScale is the smallest plaintext scale a compiler-inserted
// multiplier (an encoded constant) may carry when the requested scale
// ratio is not an exact integer: at t ≥ 2^30 the encoded round(t)/t
// deviates from the intended multiplier by at most 2^-31, below scheme
// noise. Exact-integer ratios encode exactly at any magnitude.
const minLiftScale = float64(1 << 30)

// minPlainBits is the minimum scale headroom (in bits) a plaintext
// factor must get; below this the payload would be quantized to junk,
// so compilation fails with ErrScaleMismatch instead.
const minPlainBits = 12.0

// valState is the inferred placement of one circuit value.
type valState struct {
	slot  int
	level int
	scale float64
	tier  tier
}

// liftKey identifies one compiler-inserted multiply-by-encoded-1: the
// source slot and the bit pattern of the plaintext scale it was lifted
// by (different ratios are different steps; same ratio is shared).
type liftKey struct {
	slot int
	t    uint64
}

type compiler struct {
	circ   *Circuit
	params *Params
	evk    *EvaluationKeySet
	enc    *Encoder
	// modBits[ℓ] is log2 of the ciphertext modulus at level ℓ, for the
	// scale-overflow guard.
	modBits []float64
	rep     []int
	reach   []bool

	// Per lowering (lowerAll resets them): the level the inputs enter at,
	// and whether this is a trial, which runs every check but encodes no
	// plaintext.
	inputLevel int
	trial      bool
	state      []valState
	// canon caches the rescaled (base) form per slot; lifted caches the
	// ones-multiplied forms per (slot, scale) — so shared consumers pay
	// each maintenance op once.
	canon  map[int]valState
	lifted map[liftKey]valState

	steps      []planStep
	nSlots     int
	inputSlots []planInput
	isInput    map[int]bool
	// jobs are the payload encodings of a non-trial lowering, in the
	// order it reached them (encodeVals, lowerAll).
	jobs []encodeJob
}

// encodeJob is one deferred payload encoding: node's payload at level
// and pt.Scale into pt, the step's plaintext, whose rows are stored
// compacted when compact (a multiplier) and they qualify.
type encodeJob struct {
	node    *cnode
	level   int
	compact bool
	pt      *Plaintext
}

func (k *compiler) st(node int) valState { return k.state[k.rep[node]] }

func (k *compiler) newSlot() int {
	k.nSlots++
	return k.nSlots - 1
}

func (k *compiler) emit(s planStep) int {
	out := k.newSlot()
	s.outs = []int{out}
	k.steps = append(k.steps, s)
	return out
}

// checkScale guards the inferred assignment: a scale that underflows 1
// or outgrows the level's modulus cannot decrypt to anything useful, so
// the circuit is rejected at compile time.
func (k *compiler) checkScale(what string, level int, scale float64) error {
	if scale < 1 {
		return fmt.Errorf("heax: compile: %s at level %d underflows to scale %g (modulus chain too shallow for this depth): %w",
			what, level, scale, ErrScaleMismatch)
	}
	if math.Log2(scale) > k.modBits[level]-4 {
		return fmt.Errorf("heax: compile: %s at level %d needs scale 2^%.1f but the modulus holds only 2^%.1f: %w",
			what, level, math.Log2(scale), k.modBits[level], ErrScaleMismatch)
	}
	return nil
}

// canonical returns v in base form, inserting the Rescale when v is a
// product (memoized per slot). When the rescale would land below the
// default scale — a product of already-rescaled operands divided by a
// prime that outsizes them — the value is first lifted by an exact
// power of two so the result keeps ≈Δ bits of precision above the
// rescale's rounding noise.
func (k *compiler) canonical(v valState) (valState, error) {
	if v.tier == tierBase {
		return v, nil
	}
	if cached, ok := k.canon[v.slot]; ok {
		return cached, nil
	}
	if v.level == 0 {
		return v, fmt.Errorf("heax: compile: circuit needs a rescale below level 0 — more multiplicative depth than the parameter set provides: %w",
			ErrLevelMismatch)
	}
	orig := v.slot
	q := float64(k.params.Q[v.level])
	if target := k.params.DefaultScale(); v.scale/q < target {
		r := math.Exp2(math.Ceil(math.Log2(target * q / v.scale)))
		if r > 1 && math.Log2(v.scale*r) <= k.modBits[v.level]-4 {
			var err error
			if v, err = k.liftBy(v, r); err != nil {
				return v, err
			}
		}
	}
	scale := v.scale / q
	out := valState{level: v.level - 1, scale: scale, tier: tierBase}
	if err := k.checkScale("rescale", out.level, scale); err != nil {
		return v, err
	}
	out.slot = k.emit(planStep{kind: stepRescale, args: []int{v.slot}, level: out.level, scale: scale})
	k.canon[orig] = out
	return out, nil
}

// liftBy multiplies v by an encoded 1 at plaintext scale t, scaling v
// up to v.scale·t without consuming a level (memoized per slot and
// ratio, for the level last lifted at: a slot is read at its own level
// and through views below it). Lifting is how an addition meets an
// operand at a larger scale, and how a product keeps ≈Δ bits through its
// rescale.
func (k *compiler) liftBy(v valState, t float64) (valState, error) {
	key := liftKey{slot: v.slot, t: math.Float64bits(t)}
	if cached, ok := k.lifted[key]; ok && cached.level == v.level {
		return cached, nil
	}
	var pt *Plaintext
	if !k.trial {
		var err error
		if pt, err = k.enc.EncodeConst(1, v.level, t); err != nil {
			return v, err
		}
		compactRows(pt)
	}
	out := valState{level: v.level, scale: v.scale * t, tier: tierProduct}
	if err := k.checkScale("lift", out.level, out.scale); err != nil {
		return v, err
	}
	out.slot = k.emit(planStep{kind: stepMulPlain, args: []int{v.slot}, pt: pt, level: out.level, scale: out.scale, lifted: true})
	k.lifted[key] = out
	return out, nil
}

// descend lowers v to the target level: a product rescales once, and a
// base value above the target keeps its slot and scale and is read there
// through a view of its first rows (Plan.Run), with no step — what a lift
// by q_ℓ and a Rescale would give, bit for bit, without the transforms.
func (k *compiler) descend(v valState, level int) (valState, error) {
	if v.level > level && v.tier == tierProduct {
		var err error
		if v, err = k.canonical(v); err != nil {
			return v, err
		}
	}
	if v.level > level {
		v.level = level
		return v, k.checkScale("descent", level, v.scale)
	}
	return v, nil
}

// reconcile places two addition operands on a common level and
// runtime-compatible (ScalesClose) scales: both descend to the lower
// operand's level, then the smaller-scale side is lifted by the exact
// scale ratio. Integer ratios (the common case — power-of-two scales)
// encode exactly; fractional ratios below minLiftScale are boosted on
// both sides so the rounding of the encoded constants stays below
// scheme noise. Operand order is preserved (Sub is order-sensitive).
func (k *compiler) reconcile(a, b valState) (valState, valState, error) {
	level := min(a.level, b.level)
	var err error
	if a, err = k.descend(a, level); err != nil {
		return a, b, err
	}
	if b, err = k.descend(b, level); err != nil {
		return a, b, err
	}
	if ckks.ScalesClose(a.scale, b.scale) {
		return a, b, nil
	}
	lo, hi := &a, &b
	if lo.scale > hi.scale {
		lo, hi = hi, lo
	}
	r := hi.scale / lo.scale
	if r == math.Trunc(r) || r >= minLiftScale {
		*lo, err = k.liftBy(*lo, r)
		return a, b, err
	}
	if *lo, err = k.liftBy(*lo, r*minLiftScale); err != nil {
		return a, b, err
	}
	*hi, err = k.liftBy(*hi, minLiftScale)
	return a, b, err
}

// encodeVals returns the plaintext of a node's payload at level and
// scale, to be filled in by the encoding job it records; a multiplier
// (compact) is stored compacted when its rows qualify. A trial records
// nothing and returns nil. Nothing is encoded or checked here: lowerAll
// runs the jobs once the lowering is done, every check with them.
func (k *compiler) encodeVals(n *cnode, level int, scale float64, compact bool) *Plaintext {
	if k.trial {
		return nil
	}
	pt := &Plaintext{Scale: scale}
	k.jobs = append(k.jobs, encodeJob{node: n, level: level, compact: compact, pt: pt})
	return pt
}

// encode runs one job: it checks the payload's shape, encodes it (a
// broadcast through EncodeConst, a vector through ckks.EncodeInto, a
// multiplier into a pooled poly it then compacts or copies out), and
// refuses a nonzero payload that encodes to the zero plaintext.
func (k *compiler) encode(j *encodeJob) error {
	n, scale := j.node, j.pt.Scale
	op := nodeKindNames[n.kind]
	slots := k.params.Slots()
	vals := n.vals
	switch {
	case n.broadcast:
		vals = []complex128{complex(n.scalar, 0)} // for the zero-payload check
	case n.periodic && slots%len(vals) != 0:
		return fmt.Errorf("heax: compile: %s: periodic payload of %d values does not divide the %d slots of %s: %w",
			op, len(vals), slots, k.paramName(), ErrInvalidCircuit)
	case !n.periodic && len(vals) > slots:
		return fmt.Errorf("heax: compile: %d plaintext values exceed the %d slots of %s: %w",
			len(vals), slots, k.paramName(), ErrInvalidCircuit)
	}
	ctx := k.params.RingQP
	var poly *ring.Poly
	switch {
	case n.broadcast:
		pt, err := k.enc.EncodeConst(n.scalar, j.level, scale)
		if err != nil {
			return err
		}
		poly = pt.Value
	case j.compact:
		poly = ctx.GetPolyNoZero(j.level + 1)
		defer ctx.PutPoly(poly)
		if err := ckks.EncodeInto(k.enc, poly, vals, n.periodic, scale); err != nil {
			return err
		}
	default:
		poly = ctx.NewPoly(j.level + 1)
		if err := ckks.EncodeInto(k.enc, poly, vals, n.periodic, scale); err != nil {
			return err
		}
	}
	// A nonzero payload whose every coefficient rounds to zero at this
	// scale would silently turn the operation into ⊙0 / +0; that is a
	// compile error, not a plaintext (exact check: the encoded polynomial
	// itself, so slot patterns that merely lose precision still pass).
	if !zeroPayload(vals) && zeroPlaintext(poly) {
		return fmt.Errorf("heax: compile: %s: payload with max magnitude %g encodes to the zero plaintext at level-%d scale 2^%.1f: %w",
			op, maxMagnitude(vals), j.level, math.Log2(scale), ErrUnencodable)
	}
	j.pt.Value = poly
	if !j.compact {
		return nil
	}
	if rows := compacted(poly); rows != nil {
		j.pt.Value = &ring.Poly{Coeffs: rows}
	} else if !n.broadcast {
		j.pt.Value = ctx.NewPoly(j.level + 1)
		for i, row := range poly.Coeffs {
			copy(j.pt.Value.Coeffs[i], row)
		}
	}
	return nil
}

func zeroPayload(vals []complex128) bool {
	for _, v := range vals {
		if v != 0 {
			return false
		}
	}
	return true
}

func maxMagnitude(vals []complex128) float64 {
	m := 0.0
	for _, v := range vals {
		m = math.Max(m, math.Max(math.Abs(real(v)), math.Abs(imag(v))))
	}
	return m
}

// zeroPlaintext reports whether an encoded plaintext is identically
// zero (the NTT is linear, so zero in evaluation form is zero in
// coefficient form).
func zeroPlaintext(p *ring.Poly) bool {
	for _, row := range p.Coeffs {
		for _, c := range row {
			if c != 0 {
				return false
			}
		}
	}
	return true
}

// compactRows stores a multiplying plaintext as one value per aligned
// block of uintmod.Lanes coefficients when every row of it is exactly
// constant on those blocks, and leaves it full otherwise. A payload of
// period n in the slots encodes to rows constant on blocks of N/(2n)
// lanes, so a BSGS diagonal (n ≤ N/16) and every constant qualify. The
// plaintext kernels broadcast each stored value into the lanes it
// stands for, so results are bit-identical, and the plan holds and
// streams an eighth of the bytes (DESIGN.md, "Plaintext rows").
func compactRows(pt *Plaintext) {
	if rows := compacted(pt.Value); rows != nil {
		pt.Value.Coeffs = rows
	}
}

// compacted returns p's rows stored one value per block, in fresh
// memory, when they qualify (compactRows), and nil otherwise.
func compacted(p *ring.Poly) [][]uint64 {
	rows := p.Coeffs
	for _, row := range rows {
		if len(row)%uintmod.Lanes != 0 {
			return nil
		}
		for j := 0; j < len(row); j += uintmod.Lanes {
			blk := (*[uintmod.Lanes]uint64)(row[j:])
			var d uint64
			for _, v := range blk[1:] {
				d |= v ^ blk[0]
			}
			if d != 0 {
				return nil
			}
		}
	}
	n := len(rows[0]) / uintmod.Lanes
	backing := make([]uint64, len(rows)*n)
	short := make([][]uint64, len(rows))
	for i, row := range rows {
		short[i] = backing[i*n : (i+1)*n : (i+1)*n]
		for j := range short[i] {
			short[i][j] = row[j*uintmod.Lanes]
		}
	}
	return short
}

func (k *compiler) paramName() string { return fmt.Sprintf("LogN=%d", k.params.LogN) }

// lowerAll lowers every representative, reachable node with the inputs
// entering at level, from a clean slate. A trial emits no plaintexts.
//
// A non-trial lowering defers its encodings (encodeVals) and runs them
// afterwards, fanned out through the ring's RunRows: each job fills only
// its own plaintext, so the plan does not depend on the worker count.
// Errors keep the precedence of encoding each payload where lowering
// reaches it: the first failing job in lowering order wins, and a
// lowering that fails at some node still runs the jobs recorded before
// that failure, whose error comes first.
func (k *compiler) lowerAll(level int, trial bool) error {
	n := len(k.circ.nodes)
	k.inputLevel, k.trial = level, trial
	k.state = make([]valState, n)
	k.canon = make(map[int]valState)
	k.lifted = make(map[liftKey]valState)
	k.steps, k.nSlots, k.inputSlots, k.jobs = nil, 0, nil, nil
	k.isInput = make(map[int]bool)
	var err error
	for id := 0; id < n && err == nil; id++ {
		if k.rep[id] == id && k.reach[id] {
			err = k.lower(id)
		}
	}
	if jerr := k.runJobs(); jerr != nil {
		return jerr
	}
	return err
}

// runJobs runs the recorded encoding jobs and returns the first error in
// recording order.
func (k *compiler) runJobs() error {
	errs := make([]error, len(k.jobs))
	k.params.RingQP.RunRows(len(k.jobs), func(i int) { errs[i] = k.encode(&k.jobs[i]) })
	k.jobs = nil
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// placement is how many levels below the top the circuit can start: 0
// unless every output carries a Bound, and otherwise the largest d for
// which trial lowerings at the top−1, …, top−d all compile and leave
// every output 2 bits of modulus above log2(scale · bound). Trials skip
// the encoding, which is nearly all of a lowering's time.
func (k *compiler) placement() int {
	for _, o := range k.circ.outputs {
		if k.circ.nodes[o.node].bound == 0 {
			return 0
		}
	}
	d := 0
	for level := k.params.MaxLevel() - 1; level >= 0; level-- {
		if k.lowerAll(level, true) != nil || !k.outputsFit() {
			break
		}
		d++
	}
	return d
}

// outputsFit reports whether every output, at the level and scale the
// last lowering gave it, holds its declared bound with 2 bits to spare.
func (k *compiler) outputsFit() bool {
	for _, o := range k.circ.outputs {
		st := k.st(o.node)
		if math.Log2(st.scale*k.circ.nodes[o.node].bound) > k.modBits[st.level]-2 {
			return false
		}
	}
	return true
}

// lower emits the plan steps for one representative, reachable node.
func (k *compiler) lower(id int) error {
	n := &k.circ.nodes[id]
	name := nodeKindNames[n.kind]
	switch n.kind {
	case kindInput:
		slot := k.newSlot()
		k.inputSlots = append(k.inputSlots, planInput{name: n.name, slot: slot})
		k.isInput[slot] = true
		k.state[id] = valState{slot: slot, level: k.inputLevel, scale: k.params.DefaultScale(), tier: tierBase}
		return nil

	case kindMulRelin:
		if k.evk.Relin == nil {
			return fmt.Errorf("heax: compile: circuit multiplies ciphertexts but the evaluation keys have no relinearization key: %w", ErrKeyMissing)
		}
		a, err := k.canonical(k.st(n.args[0]))
		if err != nil {
			return err
		}
		b, err := k.canonical(k.st(n.args[1]))
		if err != nil {
			return err
		}
		level := min(a.level, b.level)
		if a, err = k.descend(a, level); err != nil {
			return err
		}
		if b, err = k.descend(b, level); err != nil {
			return err
		}
		scale := a.scale * b.scale
		if err := k.checkScale(name, level, scale); err != nil {
			if level == 0 {
				// The product can't be held and there is no level left to
				// rescale into: the chain is out of depth, not out of scale.
				return fmt.Errorf("heax: compile: circuit needs a rescale below level 0 — more multiplicative depth than the parameter set provides: %w",
					ErrLevelMismatch)
			}
			return err
		}
		slot := k.emit(planStep{kind: stepMulRelin, args: []int{a.slot, b.slot}, level: level, scale: scale})
		k.state[id] = valState{slot: slot, level: level, scale: scale, tier: tierProduct}
		return nil

	case kindMulPlain:
		a, err := k.canonical(k.st(n.args[0]))
		if err != nil {
			return err
		}
		// Encode the factor at the operand's own scale, so a plaintext
		// product carries scale s² exactly like a ciphertext product of
		// equal operands — same-level values keep bit-identical scales
		// and additions reconcile without inserted lifts. When the
		// modulus can't hold s², fall back to the largest power-of-two
		// scale that fits (a power of two keeps downstream scale ratios
		// exact integers).
		t := a.scale
		if head := k.modBits[a.level] - 4 - math.Log2(a.scale); math.Log2(t) > head {
			if head < minPlainBits {
				return fmt.Errorf("heax: compile: %s at level %d has only 2^%.1f of modulus headroom for a plaintext factor (operand scale 2^%.1f, modulus 2^%.1f): %w",
					name, a.level, head, math.Log2(a.scale), k.modBits[a.level], ErrScaleMismatch)
			}
			t = math.Exp2(math.Floor(head))
		}
		pt := k.encodeVals(n, a.level, t, true)
		scale := a.scale * t
		if err := k.checkScale(name, a.level, scale); err != nil {
			return err
		}
		slot := k.emit(planStep{kind: stepMulPlain, args: []int{a.slot}, pt: pt, level: a.level, scale: scale})
		k.state[id] = valState{slot: slot, level: a.level, scale: scale, tier: tierProduct}
		return nil

	case kindAddPlain:
		a := k.st(n.args[0])
		pt := k.encodeVals(n, a.level, a.scale, false)
		slot := k.emit(planStep{kind: stepAddPlain, args: []int{a.slot}, pt: pt, level: a.level, scale: a.scale})
		k.state[id] = valState{slot: slot, level: a.level, scale: a.scale, tier: a.tier}
		return nil

	case kindAdd, kindSub:
		a, b, err := k.reconcile(k.st(n.args[0]), k.st(n.args[1]))
		if err != nil {
			return err
		}
		kind := stepAdd
		if n.kind == kindSub {
			kind = stepSub
		}
		// A sum with a product operand is itself an unrescaled product:
		// rescale before it feeds another multiplication.
		tr := a.tier
		if b.tier == tierProduct {
			tr = tierProduct
		}
		slot := k.emit(planStep{kind: kind, args: []int{a.slot, b.slot}, level: a.level, scale: a.scale})
		k.state[id] = valState{slot: slot, level: a.level, scale: a.scale, tier: tr}
		return nil

	case kindRotate, kindConjugate:
		// eliminateCommon collapsed normalized-0 rotations onto their
		// operand, so a rotation here always needs a key.
		step := rotConj
		if n.kind == kindRotate {
			step = k.params.NormalizeRotation(n.step)
		}
		var err error
		k.state[id], err = k.galois(k.st(n.args[0]), step, false)
		return err

	case kindInnerSum:
		v := k.st(n.args[0])
		for span := n.n2 >> 1; span >= 1; span >>= 1 {
			var err error
			if v, err = k.galois(v, span, true); err != nil {
				return err
			}
		}
		k.state[id] = v
		return nil
	}
	return fmt.Errorf("heax: compile: unknown node kind %d: %w", n.kind, ErrInternal)
}

// rotConj is the step of a conjugated RotateSum term; no rotation
// normalizes to it.
const rotConj = -1

// galois emits a RotateSum step computing σ(a), σ the rotation by step (a
// raw step must not be rotConj) or, for rotConj, the conjugation, or with
// self a + σ(a), one InnerSum round, and returns the result's state. A
// missing key fails here.
func (k *compiler) galois(a valState, step int, self bool) (valState, error) {
	g, key := k.evk.Galois, (*GaloisKey)(nil)
	if step == rotConj {
		if g == nil || g.Conjugate == nil {
			return a, fmt.Errorf("heax: compile: circuit conjugates slots but the evaluation keys have no conjugation key: %w", ErrKeyMissing)
		}
		key = g.Conjugate
	} else if step = k.params.NormalizeRotation(step); step != 0 {
		// Keys are stored under normalized steps; looking up the raw step
		// would falsely reject negative rotations whose key is present.
		if g == nil || g.Rotations[step] == nil {
			return a, fmt.Errorf("heax: compile: circuit rotates by %d but the evaluation keys have no Galois key for it: %w", step, ErrKeyMissing)
		}
		key = g.Rotations[step]
	}
	st := planStep{kind: stepRotateSum, level: a.level, scale: a.scale}
	if self {
		st.addTerm([]int{a.slot}, []*Plaintext{nil}, 0, nil)
	}
	st.addTerm([]int{a.slot}, []*Plaintext{nil}, step, key)
	a.slot = k.emit(st)
	return a, nil
}

// bindOutputs assigns each named output its slot, copying when an
// output would otherwise share a slot with an input or another output
// (plan outputs are always caller-owned, distinct ciphertexts).
func (k *compiler) bindOutputs() ([]planOutput, error) {
	used := make(map[int]bool)
	outs := make([]planOutput, 0, len(k.circ.outputs))
	for _, o := range k.circ.outputs {
		st := k.st(o.node)
		slot := st.slot
		if k.isInput[slot] || used[slot] {
			slot = k.emit(planStep{kind: stepCopy, args: []int{st.slot}, level: st.level, scale: st.scale})
		}
		used[slot] = true
		outs = append(outs, planOutput{name: o.name, slot: slot, level: st.level, scale: st.scale})
	}
	return outs, nil
}

// hoistRotations merges rotations (bareGalois steps) sharing a source slot
// into one hoisted-decomposition batch: the merged step pays the per-digit
// INTT and cross-modulus NTTs of Algorithm 7 once for the whole group
// (Halevi–Shoup hoisting), each member keeping the Galois key its
// rotation was lowered with. Merging at the group's earliest position is
// dependency-safe: every member depends only on the shared source, and
// every consumer appears after its member's original position.
func (k *compiler) hoistRotations() {
	groups := make(map[int][]int) // source slot -> step indices
	for i := range k.steps {
		if s := &k.steps[i]; s.bareGalois() && s.rots[0] != rotConj {
			groups[s.args[0]] = append(groups[s.args[0]], i)
		}
	}
	drop := make([]bool, len(k.steps))
	for src, members := range groups {
		if len(members) < 2 {
			continue
		}
		merged := planStep{
			kind:  stepRotateHoisted,
			args:  []int{src},
			level: k.steps[members[0]].level,
			scale: k.steps[members[0]].scale,
		}
		for _, i := range members {
			merged.rots = append(merged.rots, k.steps[i].rots[0])
			merged.keys = append(merged.keys, k.steps[i].keys[0])
			merged.outs = append(merged.outs, k.steps[i].outs[0])
			drop[i] = true
		}
		k.steps[members[0]] = merged
		drop[members[0]] = false
	}
	k.dropSteps(drop)
}

// fuseRotateSums turns every sum of single-use RotateSums (a rotation, a
// conjugation and an InnerSum round are lowered to one) and plaintext
// products into one RotateSum step. An Add fuses when either operand comes
// from a RotateSum, or both from a MulPlain (a compiler lift is one too),
// at the Add's level, read by nothing else and not named outputs; the
// other operand joins as the unrotated addend, whatever value it is. The
// sum goes at the Add's position — after every term's own operand, so the
// list stays topological — and the producers go. A lowered rotation or
// conjugation whose operand (or the addend itself) is a single-use
// MulPlain, or a sum that is one unrotated dot product, at that level
// takes its plaintext factors over too, so no inner sum of a giant step is
// ever a plan buffer; every unrotated factor joins the sum's one unrotated
// dot product, so a chain of products stays one wide accumulation. The
// kernel reduces each dot product once and floors all the key switches
// once, which is bit for bit the unfused steps (ckks/rotsum.go);
// RotateHoisted outputs, Sub, and a value read twice or named an output
// stay as they were. A sum holds at most as many key-switched terms as
// its tail sum fits (ring.TailSumTerms of the special prime): where fusing
// an Add would pass that, the left operand stays its own step and joins
// the new sum as its unrotated term.
func (k *compiler) fuseRotateSums(outputs []planOutput) {
	single, producer := k.singleUse(outputs)
	dropped := make([]bool, len(k.steps))
	most := k.params.RingQP.TailSumTerms(k.params.SpecialRow())
	keyed := func(t *planStep) (n int) {
		for j := 0; t != nil && j < len(t.keys); j++ {
			if t.keys[j] != nil {
				n++
			}
		}
		return n
	}
	// factors lists what a sum reads for slot: the operands and
	// plaintexts of its single-use dot-product producer, which goes, or
	// the slot itself with no plaintext.
	factors := func(slot, level int) ([]int, []*Plaintext) {
		switch f := single(slot, level, stepMulPlain, stepRotateSum); {
		case f == nil:
		case f.kind == stepMulPlain:
			dropped[producer[slot]] = true
			return f.args, []*Plaintext{f.pt}
		case len(f.ends) == 1 && f.rots[0] == 0 && f.pts[0] != nil:
			dropped[producer[slot]] = true
			return f.args, f.pts
		}
		return []int{slot}, []*Plaintext{nil}
	}
	for i := range k.steps {
		add := &k.steps[i]
		if add.kind != stepAdd {
			continue
		}
		var rotated [2]*planStep
		products := 0
		for j, a := range add.args {
			rotated[j] = single(a, add.level, stepRotateSum)
			if single(a, add.level, stepMulPlain) != nil {
				products++
			}
		}
		if rotated[0] == nil && rotated[1] == nil && products < 2 {
			continue
		}
		if keyed(rotated[0])+keyed(rotated[1]) > most {
			rotated[0] = nil
		}
		sum := planStep{kind: stepRotateSum, outs: add.outs, level: add.level, scale: add.scale}
		for j, a := range add.args {
			switch t := rotated[j]; {
			case t == nil:
				args, pts := factors(a, add.level)
				sum.addTerm(args, pts, 0, nil)
			case t.bareGalois():
				dropped[producer[a]] = true
				args, pts := factors(t.args[0], add.level)
				sum.addTerm(args, pts, t.rots[0], t.keys[0])
			case j == 0:
				// A fused left operand is dropped, so the sum takes its lists
				// over and a chain of n terms fuses in O(n).
				dropped[producer[a]] = true
				sum.args, sum.pts, sum.ends, sum.rots, sum.keys = t.args, t.pts, t.ends, t.rots, t.keys
			default:
				dropped[producer[a]] = true
				lo := 0
				for u, hi := range t.ends {
					sum.addTerm(t.args[lo:hi], t.pts[lo:hi], t.rots[u], t.keys[u])
					lo = hi
				}
			}
		}
		*add = sum
	}
	k.dropSteps(dropped)
}

// maxChainStages bounds the stages one fused chain takes, within what a
// ring.FloorChain holds beside its value and a key switch's floor.
const maxChainStages = ring.MaxChainOps - 3

// fuseChains folds every run of single-use steps that ends in a Rescale
// into one step (DESIGN.md, "Floor chains"). Walking back from the
// Rescale, a run takes MulPlains whose plaintext is one nonzero value per
// row (compiler lifts and MulConst), at most one AddPlain and earlier
// Rescales, each read by nothing else and not a named output; it stops at
// its producer — a MulRelin, or a RotateSum with a key-switched term,
// whose kind the fused step keeps — or at a plain value, which makes the
// step a Rescale of that value (read at the chain's input level, so a
// value descended to it is a view, as for every step); a lone Rescale is
// such a step, its chain [Rescale]. The step goes at the last
// Rescale's position, after everything it reads, and carries the stages
// for the kernel (ckks.Stage), which closes them with one flooring tail,
// bit for bit the steps one by one. Later Rescales are walked first, so
// a run is as long as it can be.
func (k *compiler) fuseChains(outputs []planOutput) {
	single, producer := k.singleUse(outputs)
	dropped := make([]bool, len(k.steps))
	for i := len(k.steps) - 1; i >= 0; i-- {
		end := &k.steps[i]
		if dropped[i] || end.kind != stepRescale {
			continue
		}
		stages := []ckks.Stage{{Kind: ckks.StageRescale}}
		var members []int
		slot, level, added := end.args[0], end.level+1, false
		var head *planStep // the producer, if any
	walk:
		for len(stages) < maxChainStages {
			t := single(slot, level, stepMulPlain, stepAddPlain, stepRescale, stepMulRelin, stepRotateSum)
			switch {
			case t == nil:
				break walk
			case t.kind == stepMulPlain && rowConstant(t.pt):
				stages = append(stages, ckks.Stage{Kind: ckks.StageMulPlain, Pt: t.pt})
			case t.kind == stepAddPlain && !added:
				added = true
				stages = append(stages, ckks.Stage{Kind: ckks.StageAddPlain, Pt: t.pt})
			case t.kind == stepRescale:
				stages = append(stages, ckks.Stage{Kind: ckks.StageRescale})
				level++
			case t.kind == stepMulRelin || t.kind == stepRotateSum && slices.ContainsFunc(t.keys, func(g *GaloisKey) bool { return g != nil }):
				head = t
				members = append(members, producer[slot])
				break walk
			default:
				break walk
			}
			members = append(members, producer[slot])
			slot = t.args[0]
		}
		slices.Reverse(stages)
		fused := planStep{kind: stepRescale, args: []int{slot}, outs: end.outs, level: end.level, scale: end.scale, chain: stages}
		if head != nil {
			fused = *head
			fused.outs, fused.level, fused.scale, fused.chain = end.outs, end.level, end.scale, stages
		}
		for _, m := range members {
			dropped[m] = true
		}
		*end = fused
	}
	k.dropSteps(dropped)
}

// rowConstant reports whether every row of pt holds one nonzero value: a
// multiplier a floor chain can weigh its rows by.
func rowConstant(pt *Plaintext) bool {
	for _, row := range pt.Value.Coeffs {
		if row[0] == 0 {
			return false
		}
		for _, v := range row {
			if v != row[0] {
				return false
			}
		}
	}
	return true
}

// addTerm appends a term to a RotateSum: args, with one plaintext each
// (nil for a bare operand), under rot and its key (0, nil: unrotated). An
// unrotated dot product joins the sum's own if it has one, after its
// factors, so the sum's first factor — whose scale the kernel gives the
// result — never moves.
func (s *planStep) addTerm(args []int, pts []*Plaintext, rot int, key *GaloisKey) {
	if rot == 0 && pts[0] != nil {
		lo := 0
		for t, hi := range s.ends {
			if s.rots[t] == 0 && s.pts[lo] != nil {
				s.args = slices.Insert(s.args, hi, args...)
				s.pts = slices.Insert(s.pts, hi, pts...)
				for u := t; u < len(s.ends); u++ {
					s.ends[u] += len(args)
				}
				return
			}
			lo = hi
		}
	}
	s.args = append(s.args, args...)
	s.pts = append(s.pts, pts...)
	s.ends = append(s.ends, len(s.args))
	s.rots = append(s.rots, rot)
	s.keys = append(s.keys, key)
}

// bareGalois reports whether s is a RotateSum of one bare term under a
// Galois key: a rotation or a conjugation as lowered, not yet fused.
func (s *planStep) bareGalois() bool {
	return s.kind == stepRotateSum && len(s.ends) == 1 && s.pts[0] == nil && s.keys[0] != nil
}

// singleUse indexes the step list for the fusion pass: single(slot,
// level, kinds...) is the step producing slot when it is one of kinds at
// level and slot has no other reader (a named output counts as one), and
// producer maps each slot to its step, -1 for an input.
func (k *compiler) singleUse(outputs []planOutput) (single func(slot, level int, kinds ...stepKind) *planStep, producer []int) {
	reads := make([]int, k.nSlots)
	producer = make([]int, k.nSlots)
	for i := range producer {
		producer[i] = -1
	}
	for i, s := range k.steps {
		for _, a := range s.args {
			reads[a]++
		}
		for _, o := range s.outs {
			producer[o] = i
		}
	}
	for _, o := range outputs {
		reads[o.slot]++ // a named output is read by the caller
	}
	single = func(slot, level int, kinds ...stepKind) *planStep {
		if src := producer[slot]; src >= 0 && reads[slot] == 1 {
			if t := &k.steps[src]; t.level == level && slices.Contains(kinds, t.kind) {
				return t
			}
		}
		return nil
	}
	return single, producer
}

// dropSteps removes the steps marked dropped.
func (k *compiler) dropSteps(dropped []bool) {
	kept := k.steps[:0]
	for i, s := range k.steps {
		if !dropped[i] {
			kept = append(kept, s)
		}
	}
	k.steps = kept
}

// plainFactors lists the plaintexts of a MulPlain or RotateSum step.
func plainFactors(s *planStep) []*Plaintext {
	if s.kind == stepMulPlain {
		return []*Plaintext{s.pt}
	}
	var pts []*Plaintext
	for _, pt := range s.pts {
		if pt != nil {
			pts = append(pts, pt)
		}
	}
	return pts
}

// renumberSlots numbers the slots the final step list uses in order of
// appearance (the inputs first), dropping those whose producers fusion
// removed.
func (k *compiler) renumberSlots(outputs []planOutput) {
	renum := make([]int, k.nSlots)
	for i := range renum {
		renum[i] = -1
	}
	k.nSlots = 0
	slot := func(old int) int {
		if renum[old] < 0 {
			renum[old] = k.newSlot()
		}
		return renum[old]
	}
	for i := range k.inputSlots {
		k.inputSlots[i].slot = slot(k.inputSlots[i].slot)
	}
	for _, s := range k.steps {
		for j, a := range s.args {
			s.args[j] = slot(a)
		}
		for j, o := range s.outs {
			s.outs[j] = slot(o)
		}
	}
	for i := range outputs {
		outputs[i].slot = slot(outputs[i].slot)
	}
}
