package heax

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"heax/internal/ckks"
)

// Tracer receives the wall-clock latency of every executed plan step,
// keyed by step kind ("MulRelin", "RotateSum", "Rescale", ... — see
// StepKinds; a rotation, conjugation or InnerSum round outside a hoisted
// batch is a RotateSum step, and a step that closes a fused chain of
// constants and rescales reports under its producer's kind, or as a
// Rescale when the chain starts from a plain value). It is the software
// analogue of HEAX's per-core occupancy counters: aggregate step latency
// tells you which kernel class bounds a circuit's throughput.
// Implementations must be safe for concurrent use — steps from one run
// (and from overlapping runs) report in parallel. ObserveStep must be
// cheap; it runs on the goroutine that executed the step, before it takes
// the next one.
type Tracer interface {
	ObserveStep(kind string, d time.Duration)
}

// tracerBox wraps a Tracer so the Plan can hold it in an
// atomic.Pointer: the executor's fast path is a single pointer load
// and nil check, adding zero allocations and no synchronization when
// tracing is off.
type tracerBox struct{ t Tracer }

// SetTracer installs (or, with nil, removes) the plan's step tracer.
// Safe to call concurrently with running steps; in-flight steps may
// report to either the old or new tracer.
func (p *Plan) SetTracer(t Tracer) {
	if t == nil {
		p.tracer.Store(nil)
		return
	}
	p.tracer.Store(&tracerBox{t: t})
}

// StepKinds returns the canonical step-kind names a Tracer may
// observe, in a fixed order suitable for pre-registering metric
// children.
func StepKinds() []string {
	out := make([]string, len(stepKindNames))
	copy(out, stepKindNames[:])
	return out
}

// Plan is a compiled circuit: an immutable step list with every level,
// scale, rescale and rotation batch fixed at compile time. A Plan is
// safe for concurrent use — Run may be called from many goroutines and
// RunBatch streams input sets through it two at a time, mirroring the
// paper's double-buffered host queue (Section 5.2). Parallelism is fixed
// at Compile, as HEAX fixes its cores when the design is generated, and
// the cores are shared: a run starts no goroutine. Its caller takes steps
// from one ready list as their operands resolve, and idle workers of the
// pool the kernels fan their rows out to (one per processor, the caller
// among them) join it for as long as more than one step is ready. Every
// intermediate lives in a pooled buffer reshaped in place by the *Into
// kernels. Steps run out of order, but only inside a reorder window of
// lookahead steps, so a wide DAG holds one window's buffers at a time.
type Plan struct {
	params *Params
	eval   *Evaluator
	// inputLevel is the level every input enters at (InputLevel).
	inputLevel int
	steps      []planStep
	nSlots     int
	inputs     []planInput
	outputs    []planOutput
	// consumers[slot] is how many step operands read the slot; a run
	// counts it down and recycles non-escaping buffers at zero.
	consumers []int
	// escapes[slot]: a named output — caller-owned, never pooled.
	escapes []bool
	// producer[slot] is the step that writes the slot, -1 for a circuit
	// input (resolved before the run starts, and never pooled).
	producer []int
	// needs[step] counts the step's operands that earlier steps produce
	// (a run counts it down as they finish); readers[step] lists the
	// steps reading its outputs, ascending, once per operand read.
	needs   []int
	readers [][]int
	// argOff[step] is where the step's operands start in a run's gather
	// array (planRun.ins); argOff[len(steps)] is its length.
	argOff []int
	crew   int // most members working one run: the caller and pool workers
	// lookahead bounds how far past a run's oldest unfinished step (in
	// plan order, which is the order the circuit was written in) its
	// steps may start, so a circuit with many terms ready at once and a
	// serial chain consuming them holds one window's buffers, not one per
	// term (DESIGN.md, "Execution"). Sums of plaintext products — a BSGS
	// matvec's 256 MulPlains, the shape this was built for — no longer
	// need it: Compile fuses each, and a giant step with its inner sums,
	// into one RotateSum step.
	lookahead int
	footprint int // windowSlots() as of Compile, for FootprintBytes
	// bufs pools top-level intermediate ciphertexts (sharedBufPool, shared
	// by every plan of the shape). Ownership protocol
	// (audited by plan_fail_test.go's instrumented pool): a buffer is held
	// by exactly one party at a time — the pool, exec between get and the
	// slot handoff (on kernel failure exec puts it straight back), or the
	// run slot until the last consumer's refcount decrement puts it back.
	// Poisoned steps never draw buffers and failed steps publish none, so
	// dependents can never return a buffer their producer reclaimed.
	bufs ctBufPool
	// tracer, when set, observes per-step kernel latency. Held boxed
	// behind an atomic pointer so the untraced hot path costs one load.
	tracer atomic.Pointer[tracerBox]
	// failStep, when non-nil, injects an error into the named step after
	// its output buffers are drawn — a test seam for the executor's error
	// paths (recycling, poisoning) with kernels otherwise unable to fail.
	failStep func(idx int) error
}

// ctBufPool is the plan's intermediate-buffer pool behind an interface,
// so tests can swap in an instrumented implementation that detects
// double-put and leaked buffers.
type ctBufPool interface {
	get() *Ciphertext
	put(*Ciphertext)
}

type syncCtPool struct{ p sync.Pool }

func (s *syncCtPool) get() *Ciphertext   { return s.p.Get().(*Ciphertext) }
func (s *syncCtPool) put(ct *Ciphertext) { s.p.Put(ct) }

// bufPools holds one buffer pool per buffer shape {N, rows}, shared by
// every plan of that shape whatever its Params: a server's cached plans
// and an in-process plan of the same set keep one stock of idle buffers,
// and what a finished run left behind serves the next run of any of
// them, as the ring's polynomial pool does (ring.shapePool has why).
var bufPools sync.Map // [2]int{N, rows} → *syncCtPool

// sharedBufPool returns the pool of degree-1 buffers at params' top
// level. Its New knows only the shape, so the pool pins no Params.
func sharedBufPool(params *Params) *syncCtPool {
	n, rows := params.N, params.MaxLevel()+1
	p, _ := bufPools.LoadOrStore([2]int{n, rows}, &syncCtPool{p: sync.Pool{New: func() any {
		return newBuffer(n, rows)
	}}})
	return p.(*syncCtPool)
}

// newBuffer is a zero degree-1 ciphertext of rows rows of n coefficients,
// both components on one backing array.
func newBuffer(n, rows int) *Ciphertext {
	backing := make([]uint64, 2*rows*n)
	ct := &Ciphertext{Polys: make([]*Poly, 2), Level: rows - 1}
	for c := range ct.Polys {
		q := &Poly{Coeffs: make([][]uint64, rows)}
		for i := range q.Coeffs {
			q.Coeffs[i], backing = backing[:n:n], backing[n:]
		}
		ct.Polys[c] = q
	}
	return ct
}

type planInput struct {
	name string
	slot int
}

type planOutput struct {
	name  string
	slot  int
	level int
	scale float64
}

type stepKind uint8

const (
	stepAdd stepKind = iota
	stepSub
	stepMulRelin
	stepMulPlain
	stepAddPlain
	stepRescale
	stepRotateHoisted
	stepCopy
	stepRotateSum
)

var stepKindNames = [...]string{
	stepAdd:           "Add",
	stepSub:           "Sub",
	stepMulRelin:      "MulRelin",
	stepMulPlain:      "MulPlain",
	stepAddPlain:      "AddPlain",
	stepRescale:       "Rescale",
	stepRotateHoisted: "RotateHoisted",
	stepCopy:          "Copy",
	stepRotateSum:     "RotateSum",
}

// planStep is one executable operation of a compiled plan.
type planStep struct {
	kind stepKind
	args []int
	outs []int
	// pt is the payload of plain operations, encoded once at compile
	// time at the inferred level and scale; a RotateSum holds one per
	// operand of a dot-product term in pts, nil for a bare one. A
	// multiplier's rows may be compact (compactRows); an AddPlain
	// payload's are always full.
	pt  *Plaintext
	pts []*Plaintext
	// rots is a hoisted batch's steps, or a RotateSum's step per term (0:
	// unrotated, rotConj: conjugated), and keys the Galois key of each
	// (nil: unrotated), resolved at Compile; a RotateSum's term t reads
	// args[ends[t−1]:ends[t]].
	rots   []int
	keys   []*GaloisKey
	ends   []int
	level  int
	scale  float64
	lifted bool // compiler-inserted multiply-by-one
	// chain is the single-use MulPlain, AddPlain and Rescale steps fused
	// after the step's own operation (fuseChains), in order, the last a
	// Rescale; level and scale are then the last's. A Rescale step is a
	// chain with no producer, [Rescale] at the least: the chain is all it
	// runs.
	chain []ckks.Stage
}

// inLevel is the level the step reads every operand at: its own, plus one
// for each rescale it runs.
func (s *planStep) inLevel() int {
	level := s.level
	for _, c := range s.chain {
		if c.Kind == ckks.StageRescale {
			level++
		}
	}
	return level
}

// Params returns the parameter set the plan was compiled for.
func (p *Plan) Params() *Params { return p.params }

// NumSteps reports how many executable steps the plan holds after CSE,
// pruning and hoisting.
func (p *Plan) NumSteps() int { return len(p.steps) }

// InputLevel reports the level at which every input enters the plan: the
// parameter set's top level, or lower when every output of the circuit
// carries a Bound and Compile could start the plan lower (Circuit.Bound).
// Run accepts inputs at this level or above; each step reads a higher one
// through a view of the first rows it needs, as it reads every operand.
func (p *Plan) InputLevel() int { return p.inputLevel }

// InputNames lists the circuit inputs the plan requires, in declaration
// order. Inputs that do not reach any output are pruned with the rest
// of the dead graph and are not required (Run ignores them if passed).
func (p *Plan) InputNames() []string {
	names := make([]string, len(p.inputs))
	for i, in := range p.inputs {
		names[i] = in.name
	}
	return names
}

// OutputNames lists the circuit outputs in declaration order.
func (p *Plan) OutputNames() []string {
	names := make([]string, len(p.outputs))
	for i, o := range p.outputs {
		names[i] = o.name
	}
	return names
}

func (p *Plan) output(name string) (planOutput, error) {
	for _, o := range p.outputs {
		if o.name == name {
			return o, nil
		}
	}
	return planOutput{}, fmt.Errorf("heax: plan has no output %q: %w", name, ErrUnknownOutput)
}

// OutputLevel reports the level inference assigned to a named output.
func (p *Plan) OutputLevel(name string) (int, error) {
	o, err := p.output(name)
	return o.level, err
}

// OutputScale reports the scale inference assigned to a named output.
func (p *Plan) OutputScale(name string) (float64, error) {
	o, err := p.output(name)
	return o.scale, err
}

// Describe renders the compiled step list — one line per step with its
// slots, level and log2 scale — the plan analogue of an assembly
// listing, for tests and debugging.
func (p *Plan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %d steps, %d slots, inputs %v\n", len(p.steps), p.nSlots, p.InputNames())
	for i, s := range p.steps {
		fmt.Fprintf(&b, "%3d  %-14s %v -> %v  @L%d scale=2^%.2f", i, stepKindNames[s.kind], s.args, s.outs, s.level, math.Log2(s.scale))
		if len(s.rots) > 0 {
			// Every step is normalized into [0, slots), so the only minus
			// sign is rotConj's.
			fmt.Fprintf(&b, " rot%s", strings.ReplaceAll(fmt.Sprint(s.rots), fmt.Sprint(rotConj), "conj"))
		}
		if s.kind == stepRotateSum {
			fmt.Fprintf(&b, " terms=%d factors=%d", len(s.ends), len(plainFactors(&s)))
		}
		if s.kind == stepMulPlain || s.kind == stepRotateSum {
			fmt.Fprintf(&b, " compact=%d", p.compactFactors(&s))
		}
		if s.lifted {
			b.WriteString(" (lift)")
		}
		if len(s.chain) > 0 && (s.kind != stepRescale || len(s.chain) > 1) { // a lone Rescale's chain is the step
			b.WriteString(" chain[")
			for j, c := range s.chain {
				if j > 0 {
					b.WriteByte(' ')
				}
				switch c.Kind {
				case ckks.StageMulPlain:
					fmt.Fprintf(&b, "MulPlain(2^%.2f)", math.Log2(c.Pt.Scale))
				case ckks.StageAddPlain:
					b.WriteString("AddPlain")
				case ckks.StageRescale:
					b.WriteString("Rescale")
				}
			}
			b.WriteByte(']')
		}
		b.WriteByte('\n')
	}
	outs := make([]string, len(p.outputs))
	for i, o := range p.outputs {
		outs[i] = fmt.Sprintf("%s=s%d@L%d", o.name, o.slot, o.level)
	}
	sort.Strings(outs)
	fmt.Fprintf(&b, "outputs: %s\n", strings.Join(outs, " "))
	return b.String()
}

// compactFactors counts the plaintexts of a MulPlain or RotateSum step
// that Compile stored compact (compactRows).
func (p *Plan) compactFactors(s *planStep) int {
	n := 0
	for _, pt := range plainFactors(s) {
		if len(pt.Value.Coeffs[0]) < p.params.N {
			n++
		}
	}
	return n
}

func (p *Plan) validateInputs(in map[string]*Ciphertext) error {
	for _, pi := range p.inputs {
		ct, ok := in[pi.name]
		if !ok || ct == nil {
			return fmt.Errorf("heax: plan input %q missing: %w", pi.name, ErrInputMissing)
		}
		if ct.Degree() != 1 {
			return fmt.Errorf("heax: plan input %q has degree %d, want 1: %w", pi.name, ct.Degree(), ErrDegreeMismatch)
		}
		if ct.Level < p.inputLevel || ct.Level > p.params.MaxLevel() {
			return fmt.Errorf("heax: plan input %q at level %d, want the plan's input level %d or above (top level %d): %w",
				pi.name, ct.Level, p.inputLevel, p.params.MaxLevel(), ErrLevelMismatch)
		}
		for _, poly := range ct.Polys {
			if poly == nil || poly.Rows() <= p.inputLevel {
				return fmt.Errorf("heax: plan input %q has a component with fewer than the %d rows its input level %d needs: %w",
					pi.name, p.inputLevel+1, p.inputLevel, ErrLevelMismatch)
			}
		}
		if !ckks.ScalesClose(ct.Scale, p.params.DefaultScale()) {
			return fmt.Errorf("heax: plan input %q at scale %g, want the default scale %g: %w",
				pi.name, ct.Scale, p.params.DefaultScale(), ErrScaleMismatch)
		}
	}
	return nil
}

// Run executes the plan on one input set and returns the named output
// ciphertexts (always freshly allocated — inputs are never modified).
// Each input must be at the default scale and at InputLevel() or above.
// Every step reads each operand at the level it works at (its own, plus
// one per rescale it runs), an operand above that through a view of its
// first rows, with no copy and no step: an input given above InputLevel,
// and a value Compile lowered a level without arithmetic. Concurrent Runs
// share the buffer pool and the process's workers.
func (p *Plan) Run(in map[string]*Ciphertext) (map[string]*Ciphertext, error) {
	return p.RunContext(context.Background(), in)
}

// RunContext is Run with cancellation: when ctx is cancelled, steps
// that have not started skip their kernels and resolve with ctx's error
// (wrapping context.Canceled / DeadlineExceeded), steps already
// executing run to completion, and every pooled buffer is still
// reclaimed — cancellation aborts the dataflow, never its accounting.
// This is how a serving front end drops a plan when a client disconnects.
func (p *Plan) RunContext(ctx context.Context, in map[string]*Ciphertext) (map[string]*Ciphertext, error) {
	if err := p.validateInputs(in); err != nil {
		return nil, err
	}
	n := len(p.steps) // always >= 1: binding an output emits at least one step
	// One array holds the slot values and, behind them, every step's
	// operand list.
	vals := make([]*Ciphertext, p.nSlots+p.argOff[n])
	r := &planRun{
		p:       p,
		ctx:     ctx,
		pending: slices.Clone(p.needs),
		errs:    make([]error, n),
		vals:    vals[:p.nSlots:p.nSlots],
		ins:     vals[p.nSlots:],
		refs:    slices.Clone(p.consumers),
		ready:   make([]int, 0, n),
		wake:    make(chan struct{}, 1),
	}
	for _, pi := range p.inputs {
		r.vals[pi.slot] = in[pi.name]
	}
	for i, need := range p.needs {
		if need == 0 {
			r.ready = append(r.ready, i)
		}
	}
	r.mu.Lock()
	for r.work(); r.oldest < n; r.work() {
		// Helpers hold every step that can run. Their kernels are fanning
		// out rows, so serve those rather than sleep (on two processors
		// the sleeping caller was the only other hands: -7 % lr-serve-C),
		// until a helper has a step to give back or finishes the last.
		r.parked = true
		r.mu.Unlock()
		p.eval.inner.HelpUntil(r.wake)
		r.mu.Lock()
	}
	r.mu.Unlock()
	// The first failing step in plan order is the root cause: dependents
	// always appear after the step that poisoned them.
	for _, err := range r.errs {
		if err != nil {
			return nil, err
		}
	}
	out := make(map[string]*Ciphertext, len(p.outputs))
	for _, o := range p.outputs {
		out[o.name] = r.vals[o.slot]
	}
	return out, nil
}

// planRun is one RunContext call: its members — the caller, and the
// pool workers that answered an offer — working one ready list under one
// lock. Kernels run with the lock released; the fields below mu are
// otherwise touched only with it held, except that a step reads its
// operands' vals and errs (published before it became ready, never
// rewritten) and writes its own outputs' vals (unread until it has
// finished) unlocked.
//
// Why no offer is ever needed for progress: a step becomes ready only
// inside some member's finish, and that member's loop in work takes it
// next; step oldest is always ready or running; so a ready step inside
// the window always has a member coming for it, and a plan of one member
// or a window of one step runs to the end on the caller alone.
type planRun struct {
	p   *Plan
	ctx context.Context

	mu sync.Mutex
	// helpers counts the handles offered to the pool and not yet done with
	// (queued, or a worker inside Help), so the members never exceed
	// p.crew and a burst of finishes does not flood the pool's lane.
	// parked: the caller has nothing to take and is serving rows until
	// wake, which is sent to exactly once per parking.
	helpers int
	parked  bool
	wake    chan struct{}
	// Per step: producers still to finish (-1: the step has finished), its error.
	pending []int
	errs    []error
	// Per slot: the published ciphertext, operand reads still to come.
	vals []*Ciphertext
	refs []int
	// ins holds every step's gathered operands, step i's at
	// argOff[i]:argOff[i+1] — written and read by that step alone, so a
	// step of any fan-in allocates nothing.
	ins []*Ciphertext
	// ready: steps whose producers have all finished and that no member
	// has taken, ascending, so the earliest in plan order goes first.
	// oldest ends the finished prefix; step oldest is always ready or
	// running (its producers precede it), so the window cannot stall.
	ready  []int
	oldest int
}

// Help is a pool worker answering an offer: a member until the run has
// nothing ready, which is at once if the run is already over.
func (r *planRun) Help() {
	r.mu.Lock()
	r.work()
	r.helpers--
	r.mu.Unlock()
}

// work is one member, entered and left with the lock held: take the
// earliest ready step inside the reorder window, run it, publish it;
// return when there is none.
func (r *planRun) work() {
	p := r.p
	for len(r.ready) > 0 && r.ready[0] < r.oldest+p.lookahead {
		idx := r.ready[0]
		r.ready = slices.Delete(r.ready, 0, 1)
		// Each further ready step inside the window is worth one more
		// member: the parked caller first, then a pool worker.
		for i := 0; i < len(r.ready) && r.ready[i] < r.oldest+p.lookahead; i++ {
			if r.parked {
				r.unpark()
			} else if r.helpers+1 < p.crew && p.eval.inner.Offer(r) {
				r.helpers++
			} else {
				break
			}
		}
		r.mu.Unlock()
		err := r.step(idx)
		r.mu.Lock()
		r.finish(idx, err)
	}
}

func (r *planRun) unpark() {
	r.parked = false
	r.wake <- struct{}{}
}

// step runs step idx with the lock released. Every step passes through
// here and through finish — a poisoned or cancelled one only skips its
// kernel — so the accounting never depends on how a step ended.
func (r *planRun) step(idx int) error {
	p, st := r.p, &r.p.steps[idx]
	in := r.ins[p.argOff[idx]:p.argOff[idx+1]]
	level := st.inLevel()
	var err error
	for i, a := range st.args {
		if src := p.producer[a]; err == nil && src >= 0 && r.errs[src] != nil {
			err = errors.Join(ErrDependency, r.errs[src])
		}
		in[i] = ckks.AtLevel(r.vals[a], level)
	}
	if err == nil {
		err = r.ctx.Err() // a cancelled run admits no more kernels
	}
	if err == nil {
		// Timed only around the kernel, so the tracer sees compute
		// latency, not the wait for a member.
		if tb := p.tracer.Load(); tb != nil {
			t0 := time.Now()
			err = p.exec(idx, st, in, r.vals)
			tb.t.ObserveStep(stepKindNames[st.kind], time.Since(t0))
		} else {
			err = p.exec(idx, st, in, r.vals)
		}
	}
	if err != nil {
		err = fmt.Errorf("heax: plan step %d (%s): %w", idx, stepKindNames[st.kind], err)
	}
	return err
}

// finish publishes step idx with the lock held. Its operand releases
// are the ONLY place consumed buffers are reclaimed, on every path —
// success, kernel failure, poisoning and cancellation: a non-escaping
// buffer with no reads left returns to the pool, and since a failed
// producer put its own drawn outputs back in exec and published nil,
// the guard cannot return a buffer twice.
func (r *planRun) finish(idx int, err error) {
	p := r.p
	r.errs[idx], r.pending[idx] = err, -1
	for _, a := range p.steps[idx].args {
		if r.refs[a]--; r.refs[a] == 0 && p.producer[a] >= 0 && !p.escapes[a] && r.vals[a] != nil {
			p.bufs.put(r.vals[a])
		}
	}
	for _, rd := range p.readers[idx] {
		if r.pending[rd]--; r.pending[rd] == 0 {
			at, _ := slices.BinarySearch(r.ready, rd)
			r.ready = slices.Insert(r.ready, at, rd)
		}
	}
	for r.oldest < len(p.steps) && r.pending[r.oldest] < 0 {
		r.oldest++
	}
	if r.oldest == len(p.steps) && r.parked {
		r.unpark() // the run is over
	}
}

// RunBatch streams many input sets through the plan, keeping two of
// them in flight at once (double buffering). Results are returned in
// input order; on failure the first failing batch's error is returned
// and the corresponding result entries are nil.
func (p *Plan) RunBatch(batches []map[string]*Ciphertext) ([]map[string]*Ciphertext, error) {
	return p.RunBatchContext(context.Background(), batches)
}

// RunBatchContext is RunBatch with cancellation: input sets not yet
// started when ctx is cancelled fail immediately with ctx's error, and
// in-flight sets abort as RunContext does.
func (p *Plan) RunBatchContext(ctx context.Context, batches []map[string]*Ciphertext) ([]map[string]*Ciphertext, error) {
	results := make([]map[string]*Ciphertext, len(batches))
	errs := make([]error, len(batches))
	// batchWindow workers drain the queue in order — the double-buffered
	// host loop: while one input set executes, the next is already being
	// fed in.
	var next atomic.Int64
	next.Store(-1)
	workers := min(batchWindow, len(batches))
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(batches) {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				results[i], errs[i] = p.RunContext(ctx, batches[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("heax: plan batch %d: %w", i, err)
		}
	}
	return results, nil
}

// exec runs one step's kernel, drawing output storage from the buffer
// pool (intermediates) or allocating it fresh (named outputs).
func (p *Plan) exec(idx int, st *planStep, in, vals []*Ciphertext) error {
	var outBuf [1]*Ciphertext
	outs := outBuf[:0]
	if len(st.outs) > len(outBuf) {
		outs = make([]*Ciphertext, 0, len(st.outs))
	}
	outs = outs[:len(st.outs)]
	for i, o := range st.outs {
		if p.escapes[o] {
			// Named outputs are allocated exactly at their compiled level
			// (one shared backing array), like the allocating evaluator
			// calls; the *Into kernel fills in scale and level.
			c0, c1 := p.params.RingQP.NewPolyPair(st.level + 1)
			outs[i] = &Ciphertext{Polys: []*Poly{c0, c1}}
		} else {
			//heax:owns handed to the run slot: execKernel publishes it and the consumers' refcount release repools it
			outs[i] = p.bufs.get()
		}
	}
	err := p.execKernel(idx, st, in, outs)
	if err != nil {
		// A failed step owns its drawn buffers and must return every one
		// exactly once, publishing no ciphertext: dependents observe
		// ct == nil and their refcount release skips the pool, so the
		// buffers cannot come back a second time.
		for i, o := range st.outs {
			if !p.escapes[o] {
				p.bufs.put(outs[i])
			}
		}
		return err
	}
	for i, o := range st.outs {
		vals[o] = outs[i]
	}
	return nil
}

// execKernel dispatches one step to its kernel behind a recover
// boundary: a panicking kernel (or injected fault) becomes a returned
// error wrapping ErrInternal, so the run poisons through the normal
// dependency path — buffers recycled, dependents resolved — instead of
// killing the process. This is the executor's own boundary: the step
// may be running on a pool worker, where no caller could recover for it.
func (p *Plan) execKernel(idx int, st *planStep, in, outs []*Ciphertext) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("recovered panic in %s kernel: %v: %w", stepKindNames[st.kind], r, ErrInternal)
		}
	}()
	e := p.eval
	if p.failStep != nil {
		// Injected failure (test seam): taken after the output buffers
		// are drawn, so it exercises exactly the recycling a real kernel
		// failure would. It may also panic, to drive the recover path.
		err = p.failStep(idx)
	}
	if err == nil {
		switch st.kind {
		case stepAdd:
			err = e.inner.AddInto(in[0], in[1], outs[0])
		case stepSub:
			err = e.inner.SubInto(in[0], in[1], outs[0])
		case stepMulRelin:
			err = e.inner.MulRelinChainInto(in[0], in[1], e.keys.Relin, st.chain, outs[0])
		case stepMulPlain:
			err = e.inner.MulPlainInto(in[0], st.pt, outs[0])
		case stepAddPlain:
			err = e.inner.AddPlainInto(in[0], st.pt, outs[0])
		case stepRescale:
			err = e.inner.RescaleChainInto(in[0], st.chain, outs[0])
		case stepRotateHoisted:
			err = e.inner.RotateHoistedKeysInto(in[0], st.keys, outs)
		case stepCopy:
			err = e.inner.CopyInto(in[0], outs[0])
		case stepRotateSum:
			err = e.inner.RotateSumChainInto(in, st.pts, st.ends, st.keys, st.chain, outs[0])
		default:
			err = fmt.Errorf("unknown step kind %d: %w", st.kind, ErrInternal)
		}
	}
	return err
}

// FootprintBytes bounds one run's working set: the most pooled
// full-basis degree-1 ciphertexts (2 polynomials × K rows × N
// coefficients × 8 bytes) the reorder window lets it hold at once, plus
// its named outputs. Serving front ends budget tenant memory against it.
func (p *Plan) FootprintBytes() int64 {
	return int64(p.footprint) * 2 * int64(p.params.K()) * int64(p.params.N) * 8
}

// windowSlots counts the buffers behind FootprintBytes. While step i is
// the oldest unfinished, only steps before i+lookahead have started and
// every read by a step before i is over, so the live pooled slots are
// among those produced before i+lookahead and last read at or after i:
// a slot counts from i = producer−lookahead+1 through i = its last reader.
func (p *Plan) windowSlots() int {
	last := make([]int, p.nSlots)
	for i, st := range p.steps {
		for _, a := range st.args {
			last[a] = i
		}
	}
	delta := make([]int, len(p.steps)+1) // change in the count from i−1 to i
	for s, src := range p.producer {
		if src >= 0 && !p.escapes[s] {
			delta[max(src-p.lookahead+1, 0)]++
			delta[last[s]+1]--
		}
	}
	peak, held := 0, 0
	for _, d := range delta {
		held += d
		peak = max(peak, held)
	}
	return peak + len(p.outputs)
}
