package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"heax"
	"heax/internal/ckks"
	"heax/internal/core"
	"heax/internal/ring"
	"heax/serve"
	"heax/serve/durable"
)

// scratchDir is where the durable-store floor writes; it lies inside
// the checkout the benchmark runs from and is removed afterwards.
const scratchDir = ".bench_build"

const (
	sec2ms = 1e3
	sec2us = 1e6
	sec2ns = 1e9
	mb     = 1e6
)

// ladder prices the workload's operation at every floor it passes
// through, from one NTT row up to a served call, timing calls into each
// layer's existing public functions from outside. m collects the
// per-layer metrics by name.
type ladder struct {
	r   *rig
	n   int // samples per timed kernel
	rec *recorder
	m   map[string]float64
	err error
	// keyBlob is the workload's serialized key set, for the durable floor.
	keyBlob []byte
}

// sample records under name the median time of n calls of f (after one
// untimed call) in reference-host seconds — wall time scaled by the
// host speed read before and after the batch — multiplied by scale.
func (l *ladder) sample(name string, scale float64, f func() error) {
	l.sampleN(name, scale, l.n, f)
}

// sampleN returns the host speed it scaled by.
func (l *ladder) sampleN(name string, scale float64, n int, f func() error) (speed float64) {
	if l.err != nil {
		return 1
	}
	secs := make([]float64, 0, n)
	l.r.probe.burst()
	start := time.Now()
	for i := -1; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			l.err = fmt.Errorf("%s: %w", name, err)
			return 1
		}
		if i >= 0 {
			secs = append(secs, time.Since(t0).Seconds())
		}
	}
	end := time.Now()
	l.r.probe.burst()
	speed = l.r.probe.speed(start, end)
	l.m[name] = median(secs) * scale * speed
	return speed
}

// allocsPer returns the mean heap allocations and bytes of one call.
func allocsPer(n int, f func() error) (allocs, bytes float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		if err := f(); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n), nil
}

func noErr(f func()) func() error { return func() error { f(); return nil } }

// runLadder runs the traced phase: `seconds` of traced calls, then the
// floors beneath them.
func runLadder(r *rig, seconds float64, samples int, rec *recorder) (map[string]float64, *phase, error) {
	l := &ladder{r: r, n: samples, rec: rec, m: map[string]float64{}}
	for name, secs := range map[string]float64{
		"ckks.keygen_s":         r.stage["ckks.keygen"],
		"circuits.build_ms":     r.stage["circuits.build"] * sec2ms,
		"heax.compile_ms":       r.stage["heax.compile"] * sec2ms,
		"serve.register_s":      r.stage["serve.register"],
		"serve.compile_miss_ms": r.stage["serve.compile_miss"] * sec2ms,
	} {
		l.m[name] = secs
	}
	if r.evk.Galois != nil {
		l.m["circuits.rotation_keys"] = float64(len(r.evk.Galois.Rotations))
	}
	var p *phase
	if r.w.served {
		p = l.servedCalls(seconds)
		l.planFloor()
		// The 1-client traced call minus the same sets run in process.
		l.m["serve.overhead_ms"] = median(p.latenciesMS()) - l.m["heax.plan_run_ms"]
	} else {
		p = l.kernelCalls(seconds)
	}
	l.runtimeFacts(p)
	l.nttFloor()
	l.ringFloor()
	l.ckksFloor()
	l.clientSide()
	l.serialization()
	l.durableFloor()
	return l.m, p, l.err
}

// servedCalls is the top floor: one client, one set per call, through a
// time-stamping connection. Each call becomes a serve.call span with
// send/wait/recv children.
func (l *ladder) servedCalls(seconds float64) *phase {
	r := l.r
	raw, err := net.Dial("tcp", r.addr)
	if err != nil {
		l.err = err
		return &phase{}
	}
	conn := &stampConn{Conn: raw}
	cl, err := serve.NewClient(conn)
	if err != nil {
		raw.Close()
		l.err = err
		return &phase{}
	}
	defer cl.Close()
	defer cl.Params().RingQP.Close()

	// Control plane first: the same circuit again is a plan-cache hit.
	circ := r.model.circuit
	l.sample("serve.compile_hit_ms", sec2ms, func() error {
		info, err := cl.Compile(tenant, circ)
		if err == nil && !info.Cached {
			err = fmt.Errorf("second compile was not a cache hit")
		}
		return err
	})

	s0, run0 := r.srv.Stats(), l.scrapeRunSeconds()
	var send, wait, recv, wire []float64
	p := runPhase(r, seconds, 1, 1, func(_ int, sets []int) ([]ctSet, error) {
		conn.reset()
		start := time.Now()
		out, err := cl.Run(tenant, r.planID, []ctSet{r.pool[sets[0]]})
		end := time.Now()
		if err != nil {
			return nil, err
		}
		id := l.rec.open("serve.call", 0, sets[0], start)
		l.rec.add("serve.send", id, sets[0], conn.firstW, conn.lastW)
		l.rec.add("serve.wait", id, sets[0], conn.lastW, conn.firstR)
		l.rec.add("serve.recv", id, sets[0], conn.firstR, conn.lastR)
		l.rec.close(id, end)
		send = append(send, conn.lastW.Sub(conn.firstW).Seconds())
		wait = append(wait, conn.firstR.Sub(conn.lastW).Seconds())
		recv = append(recv, conn.lastR.Sub(conn.firstR).Seconds())
		wire = append(wire, float64(conn.bytes))
		return out, nil
	})
	s1, run1 := r.srv.Stats(), l.scrapeRunSeconds()

	// One caller, so p.calls is in call order and carries each call's
	// host speed.
	var speeds []float64
	for i, c := range p.calls {
		if i < len(send) {
			send[i], wait[i], recv[i] = send[i]*c.speed, wait[i]*c.speed, recv[i]*c.speed
		}
		speeds = append(speeds, c.speed)
	}
	tail, pct := tailPercentile(p.latenciesMS())
	l.m["serve.call_tail_ms"], l.m["serve.call_tail_pct"] = tail, float64(pct)
	l.m["serve.send_ms"] = median(send) * sec2ms
	l.m["serve.wait_ms"] = median(wait) * sec2ms
	l.m["serve.recv_ms"] = median(recv) * sec2ms
	l.m["serve.wire_mb_per_set"] = median(wire) / mb
	if n := run1.count - run0.count; n > 0 {
		l.m["serve.server_run_mean_ms"] = (run1.sum - run0.sum) / n * sec2ms * median(speeds)
	}
	if sets := p.okSets(); sets > 0 {
		// Whole process: client, server and the benchmark's own checks.
		l.m["serve.allocs_per_set"] = float64(p.mem1.Mallocs-p.mem0.Mallocs) / sets
		l.m["serve.alloc_mb_per_set"] = float64(p.mem1.TotalAlloc-p.mem0.TotalAlloc) / sets / mb
	}
	l.m["serve.completed_runs"] = float64(s1.CompletedRuns - s0.CompletedRuns)
	l.m["serve.shed_runs"] = float64(s1.ShedRuns - s0.ShedRuns)
	l.m["serve.canceled_runs"] = float64(s1.CanceledRuns - s0.CanceledRuns)
	l.m["serve.panics_recovered"] = float64(s1.PanicsRecovered - s0.PanicsRecovered)

	// obs: what one scrape of the server's registry costs after load.
	var size int64
	l.sample("obs.scrape_ms", sec2ms, func() error {
		n, err := r.srv.MetricsRegistry().WriteTo(io.Discard)
		size = n
		return err
	})
	l.m["obs.scrape_kb"] = float64(size) / 1e3
	return p
}

type histTotals struct{ sum, count float64 }

// scrapeRunSeconds sums heax_serve_run_seconds over its label sets from
// the server's own exposition — the server-side view of a run.
func (l *ladder) scrapeRunSeconds() histTotals {
	var buf bytes.Buffer
	if _, err := l.r.srv.MetricsRegistry().WriteTo(&buf); err != nil && l.err == nil {
		l.err = err
	}
	var t histTotals
	for _, line := range strings.Split(buf.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(line, "heax_serve_run_seconds_sum"):
			t.sum += v
		case strings.HasPrefix(line, "heax_serve_run_seconds_count"):
			t.count += v
		}
	}
	return t
}

// planFloor replays pooled sets one floor down: in-process Plan.Run on
// the oracle plan, its steps reported through Plan.SetTracer.
func (l *ladder) planFloor() {
	r := l.r
	tr := &stepTracer{rec: l.rec, busy: map[string]float64{}}
	r.plan.SetTracer(tr)
	defer r.plan.SetTracer(nil)

	runs, set := 0, 0
	var walls []float64
	var roots []int
	speed := l.sampleN("heax.plan_run_ms", sec2ms, l.n, func() error {
		start := time.Now()
		id := l.rec.open("heax.plan_run", 0, set, start)
		tr.begin(id, set)
		_, err := r.plan.Run(r.pool[set])
		end := time.Now()
		l.rec.close(id, end)
		walls = append(walls, end.Sub(start).Seconds())
		roots = append(roots, id)
		runs++
		set = (set + 1) % len(r.pool)
		return err
	})
	if l.err != nil {
		return
	}
	n := float64(runs)
	var busy, wall float64
	for _, w := range walls {
		wall += w
	}
	for kind, secs := range tr.busy {
		busy += secs
		ms := secs / n * sec2ms * speed
		switch kind {
		case "MulRelin":
			l.m["heax.step_mulrelin_ms"] += ms
		case "Rotate":
			l.m["heax.step_rotate_ms"] += ms
		case "RotateHoisted":
			l.m["heax.step_hoisted_ms"] += ms
		case "Rescale":
			l.m["heax.step_rescale_ms"] += ms
		default:
			l.m["heax.step_plain_ms"] += ms
		}
	}
	l.m["heax.plan_step_busy_ms"] = busy / n * sec2ms * speed
	l.m["heax.plan_parallelism"] = busy / wall
	// Self time of plan_run: the part of the run in which no step was
	// executing — what the executor itself costs.
	self := selfTimes(l.rec.spans)
	var selfs []float64
	for _, id := range roots {
		selfs = append(selfs, self[id]/1e3*speed)
	}
	l.m["heax.plan_self_ms"] = median(selfs)
	l.m["heax.plan_steps"] = float64(r.plan.NumSteps())
	l.m["heax.plan_footprint_mb"] = float64(r.plan.FootprintBytes()) / mb
	r.plan.SetTracer(nil)
	allocs, bytes, err := allocsPer(3, func() error {
		_, err := r.plan.Run(r.pool[0])
		return err
	})
	if err != nil {
		l.err = err
		return
	}
	l.m["heax.plan_run_allocs"], l.m["heax.plan_run_alloc_mb"] = allocs, bytes/mb
	l.sampleN("heax.plan_runbatch_ms_per_set", sec2ms/float64(len(r.pool)), 3, func() error {
		_, err := r.plan.RunBatch(r.pool)
		return err
	})
}

// kernelCalls is the traced phase of the in-process workload: the same
// MulRelinInto+RescaleInto pair, with a span around each half.
func (l *ladder) kernelCalls(seconds float64) *phase {
	r := l.r
	return runPhase(r, seconds, 1, 1, func(_ int, sets []int) ([]ctSet, error) {
		in := r.pool[sets[0]]
		t0 := time.Now()
		if err := r.eval.MulRelinInto(in["x"], in["y"], r.tmp); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if err := r.eval.RescaleInto(r.tmp, r.out); err != nil {
			return nil, err
		}
		t2 := time.Now()
		id := l.rec.open("heax.mulrelin_rescale", 0, sets[0], t0)
		l.rec.add("heax.mulrelin_into", id, sets[0], t0, t1)
		l.rec.add("heax.rescale_into", id, sets[0], t1, t2)
		l.rec.close(id, t2)
		return []ctSet{{"p": r.out}}, nil
	})
}

// runtimeFacts reports the Go runtime's and the kernel's share of the
// traced calls.
func (l *ladder) runtimeFacts(p *phase) {
	l.m["trace.call_p50_ms"] = median(p.latenciesMS())
	l.m["runtime.gc_cycles"] = float64(p.mem1.NumGC - p.mem0.NumGC)
	l.m["runtime.gc_pause_ms"] = float64(p.mem1.PauseTotalNs-p.mem0.PauseTotalNs) / 1e6
	l.m["runtime.heap_inuse_mb"] = float64(p.mem1.HeapInuse) / mb
	if cpu := p.cpu.cpu(); cpu > 0 {
		l.m["runtime.sys_cpu_share"] = p.cpu.sys / cpu
	}
	if p.attempted > 0 {
		l.m["check.failed_share"] = float64(p.failed) / float64(p.attempted)
	}
	l.m["check.max_abs_err"] = l.r.maxAbsErr
}

// nttFloor prices one residue row at the workload's N (Table 7).
func (l *ladder) nttFloor() {
	params := l.r.params
	tb := params.RingQP.Tables[0]
	row := randomRow(params.N, tb.Mod.P, 1)
	l.sample("ntt.fwd_row_us", sec2us, noErr(func() { tb.Forward(row) }))
	l.sample("ntt.inv_row_us", sec2us, noErr(func() { tb.Inverse(row) }))
	l.sample("ntt.strict_fwd_row_us", sec2us, noErr(func() { tb.ForwardStrict(row) }))
	rows := make([][]uint64, tb.BatchRows())
	for i := range rows {
		rows[i] = randomRow(params.N, tb.Mod.P, int64(i)+2)
	}
	l.sample("ntt.fwd_batch_row_us", sec2us/float64(len(rows)), noErr(func() { tb.ForwardBatch(rows...) }))
}

// ringFloor prices whole-polynomial operations over the workload's
// top-level rows. rns, uintmod and primes have no request-time entry
// point of their own; their cost is inside these.
func (l *ladder) ringFloor() {
	params := l.r.params
	ctx := params.RingQP
	k := params.K()
	x := firstCT(l.r.pool[0])
	a, b := ring.CopyOf(x.Polys[0]), ring.CopyOf(x.Polys[1])
	out := ctx.NewPoly(k)
	l.sample("ring.ntt_poly_us", sec2us, noErr(func() { ctx.NTT(a) }))
	l.sample("ring.intt_poly_us", sec2us, noErr(func() { ctx.INTT(a) }))
	l.sample("ring.mulcoeffs_poly_us", sec2us, noErr(func() { ctx.MulCoeffs(a, b, out) }))
	table := ctx.AutomorphismNTTTable(ring.GaloisElement(1, params.N))
	l.sample("ring.automorphism_ntt_poly_us", sec2us, noErr(func() { ctx.AutomorphismNTT(a, table, out) }))
	if k > 1 {
		idx := make([]int, k)
		for i := range idx {
			idx[i] = i
		}
		low0, low1 := ctx.NewPolyPair(k - 1)
		l.sample("ring.floordrop_pair_us", sec2us, noErr(func() {
			ctx.FloorDropRowsPairInto(a, b, low0, low1, idx, true, false)
		}))
	}
	const batch = 1000
	l.sample("ring.pool_getput_ns", sec2ns/batch, noErr(func() {
		for i := 0; i < batch; i++ {
			ctx.PutPoly(ctx.GetPolyNoZero(k))
		}
	}))
	l.m["ring.poly_mb"] = float64(k*params.N*8) / mb
}

// ckksFloor prices the evaluator kernels on fresh top-level
// ciphertexts, with keys of its own: a relinearization key and the
// Galois keys for steps 1..8.
func (l *ladder) ckksFloor() {
	r := l.r
	params := r.params
	kg := heax.NewKeyGenerator(params, 7)
	rlk := kg.GenRelinearizationKey(r.sk)
	steps := []int{1, 2, 3, 4, 5, 6, 7, 8}
	gks := kg.GenGaloisKeySet(r.sk, steps, false)
	x, y := firstCT(r.pool[0]), firstCT(r.pool[1])
	level, scale := params.MaxLevel(), params.DefaultScale()
	newCT := func() *heax.Ciphertext {
		ct, err := heax.NewCiphertext(params, 1, level, scale)
		if err != nil && l.err == nil {
			l.err = err
		}
		return ct
	}
	tmp, out := newCT(), newCT()
	outs := make([]*heax.Ciphertext, len(steps))
	for i := range outs {
		outs[i] = newCT()
	}
	if l.err != nil {
		return
	}

	ev := ckks.NewEvaluator(params)
	ev1 := ckks.NewEvaluator(params)
	ev1.SetWorkers(1)
	keySwitch := func(ev *ckks.Evaluator) func() error {
		return noErr(func() { ev.KeySwitchPoly(x.Polys[1], &rlk.SwitchingKey) })
	}
	l.sample("ckks.keyswitch_ms", sec2ms, keySwitch(ev))
	l.sample("ckks.keyswitch_w1_ms", sec2ms, keySwitch(ev1))
	if l.m["ckks.keyswitch_ms"] > 0 {
		l.m["ckks.keyswitch_par_speedup"] = l.m["ckks.keyswitch_w1_ms"] / l.m["ckks.keyswitch_ms"]
	}
	if allocs, _, err := allocsPer(l.n, keySwitch(ev)); err == nil {
		l.m["ckks.keyswitch_allocs"] = allocs
	}
	l.sample("ckks.mulrelin_into_ms", sec2ms, func() error { return ev.MulRelinInto(x, y, rlk, tmp) })
	l.sample("ckks.rescale_into_ms", sec2ms, func() error { return ev.RescaleInto(tmp, out) })
	l.sample("ckks.rotate_into_ms", sec2ms, func() error { return ev.RotateLeftInto(x, 1, gks, out) })
	l.sample("ckks.rotate_hoisted8_ms", sec2ms, func() error { return ev.RotateHoistedInto(x, steps, gks, outs) })
	l.sample("ckks.add_into_us", sec2us, func() error { return ev.AddInto(x, y, out) })
	pt, err := r.enc.Encode(uniformSlots(newRand(8), params.Slots(), 1), level, scale)
	if err != nil {
		l.err = err
		return
	}
	l.sample("ckks.mulplain_into_us", sec2us, func() error { return ev.MulPlainInto(x, pt, out) })

	// The paper's Table 8 CPU column is the fixed outside yardstick:
	// this host's operations per second over the paper's.
	for _, row := range core.PaperHighLevel {
		if row.Set == r.w.spec.Name && l.m["ckks.keyswitch_ms"] > 0 && l.m["ckks.mulrelin_into_ms"] > 0 {
			l.m["ckks.keyswitch_vs_paper_cpu"] = sec2ms / l.m["ckks.keyswitch_ms"] / row.KeySwitchCPU
			l.m["ckks.mulrelin_vs_paper_cpu"] = sec2ms / l.m["ckks.mulrelin_into_ms"] / row.MulRelinCPU
			break
		}
	}

	// One floor up: the same kernel through the public heax.Evaluator.
	hev := heax.NewEvaluator(params, &heax.EvaluationKeySet{Relin: rlk, Galois: gks})
	l.sample("heax.evaluator_mulrelin_ms", sec2ms, func() error { return hev.MulRelinInto(x, y, tmp) })
}

// clientSide prices what a caller does around a request.
func (l *ladder) clientSide() {
	r := l.r
	params := r.params
	level, scale := params.MaxLevel(), params.DefaultScale()
	values := uniformSlots(newRand(9), params.Slots(), 1)
	kg := heax.NewKeyGenerator(params, 10)
	encryptor := heax.NewEncryptor(params, kg.GenPublicKey(r.sk), 11)
	var pt *heax.Plaintext
	var ct *heax.Ciphertext
	l.sample("ckks.encode_ms", sec2ms, func() (err error) {
		pt, err = r.enc.Encode(values, level, scale)
		return err
	})
	l.sample("ckks.encrypt_ms", sec2ms, func() (err error) {
		ct, err = encryptor.Encrypt(pt)
		return err
	})
	l.sample("ckks.decrypt_decode_ms", sec2ms, func() error {
		pt, err := r.dec.Decrypt(ct)
		if err == nil {
			r.enc.Decode(pt)
		}
		return err
	})
}

// serialization prices the wire format of one ciphertext and of the
// workload's evaluation key set.
func (l *ladder) serialization() {
	r := l.r
	ct := firstCT(r.pool[0])
	var buf bytes.Buffer
	l.sample("ckks.ct_write_ms", sec2ms, func() error {
		buf.Reset()
		return heax.WriteCiphertext(&buf, ct)
	})
	l.m["ckks.ct_mb"] = float64(buf.Len()) / mb
	blob := buf.Bytes()
	l.sample("ckks.ct_read_ms", sec2ms, func() error {
		_, err := heax.ReadCiphertext(bytes.NewReader(blob), r.params)
		return err
	})

	// A Set-C key set is tens of megabytes: three samples, not l.n.
	var keys bytes.Buffer
	l.sampleN("ckks.evk_write_ms", sec2ms, 3, func() error {
		keys.Reset()
		return heax.WriteEvaluationKeySet(&keys, r.evk)
	})
	l.m["ckks.evk_mb"] = float64(keys.Len()) / mb
	l.sampleN("ckks.evk_read_ms", sec2ms, 3, func() error {
		_, err := heax.ReadEvaluationKeySet(bytes.NewReader(keys.Bytes()), r.params)
		return err
	})
	l.keyBlob = keys.Bytes()
}

// durableFloor prices the -state-dir boot path for the workload's key
// set: one fsynced append, then a reopen that replays it. Nothing timed
// by the end-to-end metrics goes through it today.
func (l *ladder) durableFloor() {
	if l.err != nil {
		return
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		l.err = err
		return
	}
	var appends, opens []float64
	for i := 0; i < 3 && l.err == nil; i++ {
		l.err = func() error {
			dir, err := os.MkdirTemp(scratchDir, "durable-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			st, err := durable.Open(dir, durable.Options{})
			if err != nil {
				return err
			}
			t0 := time.Now()
			err = st.AppendRegister(tenant, l.keyBlob)
			appends = append(appends, time.Since(t0).Seconds())
			if cerr := st.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			t0 = time.Now()
			st, err = durable.Open(dir, durable.Options{})
			if err != nil {
				return err
			}
			opens = append(opens, time.Since(t0).Seconds())
			if len(st.Tenants()) != 1 {
				err = fmt.Errorf("durable: replay found %d tenants, want 1", len(st.Tenants()))
			}
			if cerr := st.Close(); err == nil {
				err = cerr
			}
			return err
		}()
	}
	os.Remove(scratchDir) // only if nothing else is using it
	l.m["durable.append_register_ms"] = median(appends) * sec2ms
	l.m["durable.open_replay_ms"] = median(opens) * sec2ms
}
