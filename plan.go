package heax

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"heax/internal/ckks"
)

// Tracer receives the wall-clock latency of every executed plan step,
// keyed by step kind ("MulRelin", "Rotate", "Rescale", ... — see
// StepKinds). It is the software analogue of HEAX's per-core occupancy
// counters: aggregate step latency tells you which kernel class bounds
// a circuit's throughput. Implementations must be safe for concurrent
// use — steps from one run (and from overlapping runs) report in
// parallel. ObserveStep must be cheap; it runs inside the executor's
// kernel slot.
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
// RunBatch streams many input sets through the same bounded in-flight
// window, mirroring the paper's double-buffered host queue (Section
// 5.2): steps execute as their operands resolve, out of order across
// independent branches, on the evaluator's worker-pool scheduler, and
// every intermediate lives in a pooled buffer reshaped in place by the
// *Into kernels. Out of order, but not arbitrarily far: a step starts
// only once every step more than lookahead places before it in plan
// order has finished (a reorder window), so a wide DAG holds the
// buffers of one window, not of its whole width.
type Plan struct {
	params  *Params
	eval    *Evaluator
	steps   []planStep
	nSlots  int
	inputs  []planInput
	outputs []planOutput
	// consumers[slot] is how many steps read the slot; the executor
	// refcounts it down and recycles non-escaping buffers at zero.
	consumers []int
	// escapes[slot]: the slot is a named output, so its ciphertext is
	// caller-owned and never pooled.
	escapes []bool
	// inputSlot[slot]: the slot is fed by a caller ciphertext and needs
	// no per-run signalling state.
	inputSlot []bool
	// sem bounds concurrently executing steps across all runs.
	sem chan struct{}
	// lookahead bounds how far past a run's oldest unfinished step (in
	// plan order, which is the order the circuit was written in) its
	// steps may start. Without it every ready step races for sem the
	// moment its operands resolve: a BSGS matvec ran all 256 of its
	// MulPlain steps ahead of the Add chain that consumes them, held
	// ~100 buffers per run where ~15 suffice, and left sync.Pool
	// retaining a working set whose size depended on scheduler and GC
	// timing.
	lookahead int
	// window bounds how many input sets RunBatch keeps in flight.
	window int
	// bufs pools full-basis intermediate ciphertexts. Ownership protocol
	// (audited by TestPlanFailingStepPoolIntegrity with an instrumented
	// pool): a buffer is held by exactly one party at a time — the pool,
	// exec between get and the slot handoff (on kernel failure exec puts
	// it straight back), or the run slot until the last consumer's
	// refcount decrement puts it back. Poisoned steps never draw
	// buffers, and failed steps publish no ciphertext, so dependents
	// can never return a buffer their producer already reclaimed.
	bufs ctBufPool
	// slotStates recycles the per-run slot-state slices across Run
	// calls, so a steady serving loop does not reallocate executor
	// state per request (the done channels are per-run by construction:
	// a closed channel cannot be reused).
	slotStates sync.Pool
	// tracer, when set, observes per-step kernel latency. Held boxed
	// behind an atomic pointer so the untraced hot path costs one load.
	tracer atomic.Pointer[tracerBox]
	// failStep, when non-nil, injects an error into the named step
	// after its output buffers are drawn — a test seam for exercising
	// the executor's error paths (buffer recycling, ErrDependency
	// poisoning) with real kernels otherwise unable to fail.
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
	stepRotate
	stepRotateHoisted
	stepConjugate
	stepInnerSum
	stepCopy
)

var stepKindNames = [...]string{
	stepAdd:           "Add",
	stepSub:           "Sub",
	stepMulRelin:      "MulRelin",
	stepMulPlain:      "MulPlain",
	stepAddPlain:      "AddPlain",
	stepRescale:       "Rescale",
	stepRotate:        "Rotate",
	stepRotateHoisted: "RotateHoisted",
	stepConjugate:     "ConjugateSlots",
	stepInnerSum:      "InnerSum",
	stepCopy:          "Copy",
}

// planStep is one executable operation of a compiled plan.
type planStep struct {
	kind stepKind
	args []int
	outs []int
	// pt is the payload of plain operations, encoded once at compile
	// time at the inferred level and scale.
	pt     *Plaintext
	rots   []int // rotation step (len 1) or hoisted batch (len > 1)
	n2     int
	level  int
	scale  float64
	lifted bool // compiler-inserted multiply-by-one
}

// Params returns the parameter set the plan was compiled for.
func (p *Plan) Params() *Params { return p.params }

// NumSteps reports how many executable steps the plan holds after CSE,
// pruning and hoisting.
func (p *Plan) NumSteps() int { return len(p.steps) }

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
			fmt.Fprintf(&b, " rot%v", s.rots)
		}
		if s.n2 > 0 {
			fmt.Fprintf(&b, " n2=%d", s.n2)
		}
		if s.lifted {
			b.WriteString(" (lift)")
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

// runSlot is the per-run state of one value slot.
type runSlot struct {
	done   chan struct{}
	ct     *Ciphertext
	err    error
	refs   int32
	pooled bool
}

// resolvedSlot is the shared already-closed done channel of input slots.
var resolvedSlot = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

func (p *Plan) validateInputs(in map[string]*Ciphertext) error {
	for _, pi := range p.inputs {
		ct, ok := in[pi.name]
		if !ok || ct == nil {
			return fmt.Errorf("heax: plan input %q missing: %w", pi.name, ErrInputMissing)
		}
		if ct.Degree() != 1 {
			return fmt.Errorf("heax: plan input %q has degree %d, want 1: %w", pi.name, ct.Degree(), ErrDegreeMismatch)
		}
		if ct.Level != p.params.MaxLevel() {
			return fmt.Errorf("heax: plan input %q at level %d, want the top level %d: %w",
				pi.name, ct.Level, p.params.MaxLevel(), ErrLevelMismatch)
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
// Concurrent Runs share the plan's in-flight window and buffer pool.
func (p *Plan) Run(in map[string]*Ciphertext) (map[string]*Ciphertext, error) {
	return p.RunContext(context.Background(), in)
}

// RunContext is Run with cancellation: when ctx is cancelled, steps
// that have not started skip their kernels and resolve with ctx's
// error (wrapping context.Canceled / DeadlineExceeded), steps already
// executing run to completion, and every pooled buffer is still
// reclaimed — cancellation aborts the dataflow, never its accounting.
// This is how a serving front end drops a plan mid-flight when the
// client disconnects.
func (p *Plan) RunContext(ctx context.Context, in map[string]*Ciphertext) (map[string]*Ciphertext, error) {
	if err := p.validateInputs(in); err != nil {
		return nil, err
	}
	slots := p.getSlots()
	defer p.putSlots(slots)
	for i := range slots {
		slots[i].refs = int32(p.consumers[i])
		// Input slots share the one resolved channel; slots nobody reads
		// (pure outputs) need no signal at all — wg.Wait already orders
		// the final scan after every step.
		switch {
		case p.inputSlot[i]:
			slots[i].done = resolvedSlot
		case p.consumers[i] > 0:
			slots[i].done = make(chan struct{})
		}
	}
	for _, pi := range p.inputs {
		slots[pi.slot].ct = in[pi.name]
	}
	// fin[i] is closed once steps 0..i have all finished; step
	// i+lookahead waits for it. Plans no longer than the window need
	// none.
	var fin []chan struct{}
	if n := len(p.steps) - p.lookahead; n > 0 {
		fin = make([]chan struct{}, n)
		for i := range fin {
			fin[i] = make(chan struct{})
		}
	}
	// Every step but the last gets a goroutine; the last (which nothing
	// depends on, by topological order) runs inline, so a single-step
	// plan spawns nothing.
	var wg sync.WaitGroup
	last := len(p.steps) - 1 // always >= 0: binding an output emits at least one step
	wg.Add(last)
	for i := 0; i < last; i++ {
		go func(idx int) {
			defer wg.Done()
			p.runStep(ctx, idx, slots, fin)
		}(i)
	}
	p.runStep(ctx, last, slots, fin)
	wg.Wait()
	// The first failing step in plan order is the root cause: dependents
	// always appear after the step that poisoned them.
	for i := range p.steps {
		if err := slots[p.steps[i].outs[0]].err; err != nil {
			return nil, err
		}
	}
	out := make(map[string]*Ciphertext, len(p.outputs))
	for _, o := range p.outputs {
		out[o.name] = slots[o.slot].ct
	}
	return out, nil
}

// getSlots draws a zeroed per-run slot-state slice from the recycler.
func (p *Plan) getSlots() []runSlot {
	if s, ok := p.slotStates.Get().([]runSlot); ok {
		return s
	}
	return make([]runSlot, p.nSlots)
}

// putSlots clears a run's slot states (dropping ciphertext and channel
// references so they do not outlive the run) and recycles the slice.
func (p *Plan) putSlots(slots []runSlot) {
	for i := range slots {
		slots[i] = runSlot{}
	}
	p.slotStates.Put(slots)
}

// RunBatch streams many input sets through the plan, keeping the
// configured window of them in flight at once (WithBatchWindow,
// default 2 — double buffering). Results are returned in input order;
// on failure the first failing batch's error is returned and the
// corresponding result entries are nil.
func (p *Plan) RunBatch(batches []map[string]*Ciphertext) ([]map[string]*Ciphertext, error) {
	return p.RunBatchContext(context.Background(), batches)
}

// RunBatchContext is RunBatch with cancellation: input sets not yet
// started when ctx is cancelled fail immediately with ctx's error, and
// in-flight sets abort as RunContext does.
func (p *Plan) RunBatchContext(ctx context.Context, batches []map[string]*Ciphertext) ([]map[string]*Ciphertext, error) {
	results := make([]map[string]*Ciphertext, len(batches))
	errs := make([]error, len(batches))
	// A fixed crew of window workers drains the queue in order — the
	// double-buffered host loop: while one input set executes, the next
	// is already being fed in.
	var next atomic.Int64
	next.Store(-1)
	workers := min(p.window, len(batches))
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

func (p *Plan) runStep(ctx context.Context, idx int, slots []runSlot, fin []chan struct{}) {
	// The reorder window: wait until every step more than lookahead
	// places back has finished, and on the way out (operands released)
	// extend the finished prefix. Steps always run to the end — poisoned
	// and cancelled ones only skip their kernel — and wait only on lower
	// indices, so the chain cannot stall.
	if idx >= p.lookahead {
		<-fin[idx-p.lookahead]
	}
	if idx < len(fin) {
		defer func() {
			if idx > 0 {
				<-fin[idx-1]
			}
			close(fin[idx])
		}()
	}
	st := &p.steps[idx]
	var inBuf [2]*Ciphertext
	in := inBuf[:0]
	if len(st.args) > len(inBuf) {
		in = make([]*Ciphertext, 0, len(st.args))
	}
	// Always wait for every operand, even when poisoned or cancelled:
	// the refcount release below must not race the producer's handoff,
	// and upstream steps resolve promptly under cancellation anyway.
	var depErr error
	for _, a := range st.args {
		<-slots[a].done
		if err := slots[a].err; err != nil && depErr == nil {
			depErr = err
		}
		in = append(in, slots[a].ct)
	}
	var err error
	if depErr != nil {
		err = fmt.Errorf("heax: plan step %d (%s): %w", idx, stepKindNames[st.kind], errors.Join(ErrDependency, depErr))
	} else {
		select {
		case p.sem <- struct{}{}:
			// Re-check after the (possibly long) semaphore wait so a
			// cancelled run stops admitting kernels.
			if err = ctx.Err(); err == nil {
				// Timed only around kernel execution (inside the
				// semaphore), so the tracer sees compute latency, not
				// queueing.
				if tb := p.tracer.Load(); tb != nil {
					t0 := time.Now()
					err = p.exec(idx, st, in, slots)
					tb.t.ObserveStep(stepKindNames[st.kind], time.Since(t0))
				} else {
					err = p.exec(idx, st, in, slots)
				}
			}
			<-p.sem
		case <-ctx.Done():
			err = ctx.Err()
		}
		if err != nil {
			err = fmt.Errorf("heax: plan step %d (%s): %w", idx, stepKindNames[st.kind], err)
		}
	}
	for _, o := range st.outs {
		if err != nil {
			slots[o].err = err
		}
		if slots[o].done != nil {
			close(slots[o].done)
		}
	}
	// Release operand references; a non-escaping buffer with no readers
	// left returns to the pool for a later step (or the next run). This
	// runs on every path — success, kernel failure, poisoning and
	// cancellation — and is the ONLY place consumed buffers are
	// reclaimed: a failed producer puts its own drawn outputs back in
	// exec and publishes ct == nil, so the guard below cannot return a
	// buffer twice.
	for _, a := range st.args {
		if atomic.AddInt32(&slots[a].refs, -1) == 0 && slots[a].pooled && slots[a].ct != nil {
			p.bufs.put(slots[a].ct)
		}
	}
}

// exec runs one step's kernel, drawing output storage from the buffer
// pool (intermediates) or allocating it fresh (named outputs).
func (p *Plan) exec(idx int, st *planStep, in []*Ciphertext, slots []runSlot) error {
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
		slots[o].ct = outs[i]
		slots[o].pooled = !p.escapes[o]
	}
	return nil
}

// execKernel dispatches one step to its kernel behind a recover
// boundary: a panicking kernel (or injected fault) becomes a returned
// error wrapping ErrInternal, so the run poisons through the normal
// dependency path — buffers recycled, dependents resolved — instead of
// killing the process. This is the step-goroutine's own boundary; a
// serving front end cannot recover for it.
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
			err = e.inner.MulRelinInto(in[0], in[1], e.keys.Relin, outs[0])
		case stepMulPlain:
			err = e.inner.MulPlainInto(in[0], st.pt, outs[0])
		case stepAddPlain:
			err = e.inner.AddPlainInto(in[0], st.pt, outs[0])
		case stepRescale:
			err = e.inner.RescaleInto(in[0], outs[0])
		case stepRotate:
			err = e.inner.RotateLeftInto(in[0], st.rots[0], e.keys.Galois, outs[0])
		case stepRotateHoisted:
			err = e.inner.RotateHoistedInto(in[0], st.rots, e.keys.Galois, outs)
		case stepConjugate:
			err = e.inner.ConjugateSlotsInto(in[0], e.keys.Galois, outs[0])
		case stepInnerSum:
			err = e.inner.InnerSumInto(in[0], st.n2, e.keys.Galois, outs[0])
		case stepCopy:
			err = e.inner.CopyInto(in[0], outs[0])
		default:
			err = fmt.Errorf("unknown step kind %d: %w", st.kind, ErrInternal)
		}
	}
	return err
}

// FootprintBytes is a conservative estimate of one run's working set:
// every value slot holding a pooled full-basis degree-1 ciphertext at
// once (2 polynomials × K rows × N coefficients × 8 bytes). Serving
// front ends budget per-tenant memory against it before admitting a
// run.
func (p *Plan) FootprintBytes() int64 {
	return int64(p.nSlots) * 2 * int64(p.params.K()) * int64(p.params.N) * 8
}
