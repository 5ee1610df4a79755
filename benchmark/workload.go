package main

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"time"

	"heax"
	"heax/circuits"
	"heax/serve"
)

// poolSets is how many encrypted input sets a workload cycles through.
// Eight Set-C sets are 16–32 MB: larger than the L2 cache of one core,
// so a served call never finds its inputs warm, and small enough that
// set-up stays a few seconds.
const poolSets = 8

const tenant = "bench"

// workload describes one benchmark workload. Names are fixed: later
// issues cite them.
type workload struct {
	name string
	why  string
	spec heax.ParamSpec
	// errBound is the largest |decrypted − cleartext| a correct run may
	// show on any checked slot.
	errBound float64
	// served workloads go through serve.Client over TCP loopback; the
	// others call the evaluator in process.
	served bool
	// keyless workloads register an empty evaluation key set: their
	// circuit has no MulRelin and no rotation.
	keyless     bool
	clients     int // concurrent closed-loop callers
	setsPerCall int
	// build makes the workload's model from the seed-derived rng.
	build func(rng *rand.Rand, params *heax.Params) (*model, error)
}

// model is the cleartext side of a workload: the circuit (nil for the
// kernel-only workload), how to draw one input set, and what the
// decrypted outputs must be.
type model struct {
	circuit *heax.Circuit
	// draw returns one input set as slot vectors keyed by input name.
	draw func(rng *rand.Rand) map[string][]complex128
	// want returns, per output name, the expected real part of every
	// slot; NaN marks a slot the workload does not define.
	want func(in map[string][]complex128) map[string][]float64
}

var workloads = []*workload{
	{
		name:     "lr-serve-C",
		why:      "served Set-C logistic regression: a deep chain of MulRelin/Rescale at N=16384, so key switch and NTT do nearly all the work and serve adds almost none",
		spec:     heax.SetC,
		errBound: 3.2e-2,
		served:   true, clients: 1, setsPerCall: 1,
		build: buildLogistic,
	},
	{
		name:     "matvec-serve-A",
		why:      "served Set-A 256x256 BSGS matvec from 2 clients x 4 sets: a wide DAG of sub-millisecond rotations, so executor, pools, hoisting and admission carry a real share",
		spec:     heax.SetA,
		errBound: 2e-3,
		served:   true, clients: 2, setsPerCall: 4,
		build: buildMatvec,
	},
	{
		name:     "wire-addsub-C",
		why:      "served Set-C x+y and x-y with no key switch: framing, serialization and the allocator do the work, so a kernel change must show nothing here",
		spec:     heax.SetC,
		errBound: 1e-6,
		served:   true, keyless: true, clients: 1, setsPerCall: 1,
		build: buildAddSub,
	},
	{
		name:     "mulrelin-C",
		why:      "in-process Set-C MulRelinInto+RescaleInto from one caller (paper Table 8): kernels only, so a Plan or serve change must show nothing here",
		spec:     heax.SetC,
		errBound: 1e-4,
		served:   false, clients: 1, setsPerCall: 1,
		build: buildMulRelin,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// buildLogistic is examples/lrserve: a BatchedDot over 8 features, a
// bias, and the degree-7 Chebyshev sigmoid; one sample per 8-slot block.
func buildLogistic(rng *rand.Rand, params *heax.Params) (*model, error) {
	const features, degree, bias = 8, 7, 0.25
	w := make([]float64, features)
	for i := range w {
		w[i] = rng.Float64() - 0.5
	}
	dot, err := circuits.BatchedDot(w)
	if err != nil {
		return nil, err
	}
	c := heax.NewCircuit()
	scores, err := dot.Apply(c, c.Input("x"))
	if err != nil {
		return nil, err
	}
	prob, err := circuits.Sigmoid(degree).Apply(c, c.AddConst(scores, bias))
	if err != nil {
		return nil, err
	}
	c.Output("p", prob)
	slots := params.Slots()
	return &model{
		circuit: c,
		draw: func(rng *rand.Rand) map[string][]complex128 {
			return map[string][]complex128{"x": uniformSlots(rng, slots, 2)}
		},
		want: func(in map[string][]complex128) map[string][]float64 {
			p := nanSlots(slots)
			for s := 0; s+features <= slots; s += features {
				score := bias
				for j := 0; j < features; j++ {
					score += w[j] * real(in["x"][s+j])
				}
				p[s] = 1 / (1 + math.Exp(-score))
			}
			return map[string][]float64{"p": p}
		},
	}, nil
}

// buildMatvec is circuits.BenchmarkCircuits_MatVec: a dense 256x256
// real matrix through the BSGS diagonal method.
func buildMatvec(rng *rand.Rand, params *heax.Params) (*model, error) {
	const n = 256
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			m[i][j] = rng.Float64()*2 - 1
		}
	}
	lt, err := circuits.FromRealMatrix(m)
	if err != nil {
		return nil, err
	}
	c := heax.NewCircuit()
	y, err := lt.Apply(c, c.Input("x"))
	if err != nil {
		return nil, err
	}
	c.Output("y", y)
	slots := params.Slots()
	return &model{
		circuit: c,
		draw: func(rng *rand.Rand) map[string][]complex128 {
			// Replicated [x | x | ...] so slot rotations wrap inside x.
			x := uniformSlots(rng, n, 1)
			rep := make([]complex128, slots)
			for i := range rep {
				rep[i] = x[i%n]
			}
			return map[string][]complex128{"x": rep}
		},
		want: func(in map[string][]complex128) map[string][]float64 {
			y := nanSlots(slots)
			for i := 0; i < n; i++ {
				y[i] = 0
				for j := 0; j < n; j++ {
					y[i] += m[i][j] * real(in["x"][j])
				}
			}
			return map[string][]float64{"y": y}
		},
	}, nil
}

func buildAddSub(_ *rand.Rand, params *heax.Params) (*model, error) {
	c := heax.NewCircuit()
	x, y := c.Input("x"), c.Input("y")
	c.Output("s", c.Add(x, y))
	c.Output("d", c.Sub(x, y))
	m := pairModel(params.Slots(), func(x, y float64) map[string]float64 {
		return map[string]float64{"s": x + y, "d": x - y}
	})
	m.circuit = c
	return m, nil
}

func buildMulRelin(_ *rand.Rand, params *heax.Params) (*model, error) {
	return pairModel(params.Slots(), func(x, y float64) map[string]float64 {
		return map[string]float64{"p": x * y}
	}), nil
}

// pairModel draws two full-width inputs x, y in [-1, 1) and expects f
// slot by slot.
func pairModel(slots int, f func(x, y float64) map[string]float64) *model {
	return &model{
		draw: func(rng *rand.Rand) map[string][]complex128 {
			return map[string][]complex128{"x": uniformSlots(rng, slots, 1), "y": uniformSlots(rng, slots, 1)}
		},
		want: func(in map[string][]complex128) map[string][]float64 {
			out := map[string][]float64{}
			for i := 0; i < slots; i++ {
				for name, v := range f(real(in["x"][i]), real(in["y"][i])) {
					if out[name] == nil {
						out[name] = make([]float64, slots)
					}
					out[name][i] = v
				}
			}
			return out
		},
	}
}

func uniformSlots(rng *rand.Rand, n int, amp float64) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex((rng.Float64()*2-1)*amp, 0)
	}
	return v
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// randomRow returns n residues modulo p.
func randomRow(n int, p uint64, seed int64) []uint64 {
	rng := newRand(seed)
	row := make([]uint64, n)
	for i := range row {
		row[i] = rng.Uint64() % p
	}
	return row
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// firstCT returns the set's ciphertext with the smallest name.
func firstCT(set ctSet) *heax.Ciphertext { return set[sortedKeys(set)[0]] }

func nanSlots(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.NaN()
	}
	return v
}

type ctSet = map[string]*heax.Ciphertext

// rig is a workload set up and ready to take calls.
type rig struct {
	w      *workload
	probe  *prober
	params *heax.Params // the client's view (from the wire for served workloads)
	evk    *heax.EvaluationKeySet
	sk     *heax.SecretKey
	enc    *heax.Encoder
	dec    *heax.Decryptor
	model  *model

	pool   []ctSet                // encrypted input sets
	oracle []ctSet                // in-process outputs every response must equal bit for bit
	want   []map[string][]float64 // cleartext outputs
	// bad[i]: set i's decrypted oracle output misses the cleartext by
	// more than errBound; every response for it counts as failed.
	bad       []bool
	maxAbsErr float64

	// call runs the given pool sets as one closed-loop call of caller k.
	call func(k int, sets []int) ([]ctSet, error)

	srv     *serve.Server
	addr    string
	planID  serve.PlanID
	clients []*serve.Client
	plan    *heax.Plan       // oracle plan (served workloads)
	eval    *heax.Evaluator  // kernel-only workload, with its reused
	tmp     *heax.Ciphertext // product and
	out     *heax.Ciphertext // rescaled output
	rings   []*heax.Params   // every parameter set built, for close

	// stage holds the seconds each set-up stage took.
	stage map[string]float64
}

// setUp builds everything a workload needs before its first call:
// parameters, circuit, keys, server, clients, registration, compile,
// the encrypted input pool, the in-process oracle outputs and the
// cleartext references. Its wall time is the setup_s metric.
func setUp(w *workload, seed int64, probe *prober) (r *rig, err error) {
	r = &rig{w: w, probe: probe, stage: map[string]float64{}}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	timed := func(name string, f func() error) error {
		t0 := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("%s: %s: %w", w.name, name, err)
		}
		r.stage[name] += time.Since(t0).Seconds()
		return nil
	}

	var params *heax.Params
	if err = timed("params", func() (err error) {
		params, err = heax.NewParams(w.spec)
		return err
	}); err != nil {
		return nil, err
	}
	r.rings = append(r.rings, params)
	r.params = params

	if w.served {
		if err = timed("serve.start", func() error {
			srv, err := serve.NewServer(params)
			if err != nil {
				return err
			}
			r.srv = srv
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			r.addr = ln.Addr().String()
			go srv.Serve(ln) // returns ErrServerClosed once close() runs
			for i := 0; i < w.clients; i++ {
				cl, err := serve.Dial(r.addr)
				if err != nil {
					return err
				}
				r.clients = append(r.clients, cl)
				r.rings = append(r.rings, cl.Params())
			}
			// Clients encode and encrypt against the parameters the
			// server sent, as a remote caller would.
			r.params = r.clients[0].Params()
			return nil
		}); err != nil {
			return nil, err
		}
	}

	var m *model
	if err = timed("circuits.build", func() (err error) {
		m, err = w.build(newRand(seed*1000+1), r.params)
		return err
	}); err != nil {
		return nil, err
	}

	r.model = m
	var pk *heax.PublicKey
	if err = timed("ckks.keygen", func() error {
		kg := heax.NewKeyGenerator(r.params, seed*1000+2)
		r.sk = kg.GenSecretKey()
		pk = kg.GenPublicKey(r.sk)
		if w.keyless {
			r.evk = &heax.EvaluationKeySet{}
			return nil
		}
		var steps []int
		if m.circuit != nil {
			var err error
			if steps, err = m.circuit.RequiredRotations(r.params); err != nil {
				return err
			}
		}
		r.evk = heax.GenEvaluationKeys(kg, r.sk, steps, false)
		return nil
	}); err != nil {
		return nil, err
	}
	r.enc = heax.NewEncoder(r.params)
	r.dec = heax.NewDecryptor(r.params, r.sk)

	if w.served {
		if err = timed("serve.register", func() error {
			return r.clients[0].Register(tenant, r.evk)
		}); err != nil {
			return nil, err
		}
		if err = timed("serve.compile_miss", func() error {
			info, err := r.clients[0].Compile(tenant, m.circuit)
			r.planID = info.ID
			return err
		}); err != nil {
			return nil, err
		}
		if err = timed("heax.compile", func() (err error) {
			r.plan, err = m.circuit.Compile(r.params, r.evk)
			return err
		}); err != nil {
			return nil, err
		}
		r.call = func(k int, sets []int) ([]ctSet, error) {
			in := make([]ctSet, len(sets))
			for i, s := range sets {
				in[i] = r.pool[s]
			}
			return r.clients[k].Run(tenant, r.planID, in)
		}
	} else {
		r.eval = heax.NewEvaluator(r.params, r.evk)
		// One caller, so one pair of reused outputs.
		for _, ct := range []**heax.Ciphertext{&r.tmp, &r.out} {
			if *ct, err = heax.NewCiphertext(r.params, 1, r.params.MaxLevel(), r.params.DefaultScale()); err != nil {
				return nil, err
			}
		}
		r.call = func(_ int, sets []int) ([]ctSet, error) {
			in := r.pool[sets[0]]
			if err := r.eval.MulRelinInto(in["x"], in["y"], r.tmp); err != nil {
				return nil, err
			}
			if err := r.eval.RescaleInto(r.tmp, r.out); err != nil {
				return nil, err
			}
			return []ctSet{{"p": r.out}}, nil
		}
	}

	inputs := make([]map[string][]complex128, poolSets)
	if err = timed("encrypt", func() error {
		rng := newRand(seed*1000 + 3)
		encryptor := heax.NewEncryptor(r.params, pk, seed*1000+4)
		for i := range inputs {
			inputs[i] = m.draw(rng)
			set := ctSet{}
			// Sorted, so the encryptor's randomness is spent in the same
			// order on every run of a seed.
			for _, name := range sortedKeys(inputs[i]) {
				pt, err := r.enc.Encode(inputs[i][name], r.params.MaxLevel(), r.params.DefaultScale())
				if err != nil {
					return err
				}
				if set[name], err = encryptor.Encrypt(pt); err != nil {
					return err
				}
			}
			r.pool = append(r.pool, set)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	if err = timed("oracle", func() (err error) {
		if r.plan != nil {
			r.oracle, err = r.plan.RunBatch(r.pool)
			return err
		}
		// The kernel workload's oracle is the allocating pair.
		for _, in := range r.pool {
			p, err := r.eval.MulRelin(in["x"], in["y"])
			if err != nil {
				return err
			}
			if p, err = r.eval.Rescale(p); err != nil {
				return err
			}
			r.oracle = append(r.oracle, ctSet{"p": p})
		}
		return nil
	}); err != nil {
		return nil, err
	}

	if err = timed("cleartext", func() error {
		for _, in := range inputs {
			r.want = append(r.want, m.want(in))
		}
		return r.checkCleartext()
	}); err != nil {
		return nil, err
	}
	return r, nil
}

// checkCleartext decrypts every oracle output and records, per pooled
// set, whether it is within errBound of the cleartext reference.
func (r *rig) checkCleartext() error {
	r.bad = make([]bool, len(r.oracle))
	r.maxAbsErr = 0
	for i, outs := range r.oracle {
		for name, want := range r.want[i] {
			ct := outs[name]
			if ct == nil {
				return fmt.Errorf("%s: oracle has no output %q", r.w.name, name)
			}
			pt, err := r.dec.Decrypt(ct)
			if err != nil {
				return err
			}
			got := r.enc.Decode(pt)
			for j, v := range want {
				if math.IsNaN(v) {
					continue
				}
				d := math.Abs(real(got[j]) - v)
				if d > r.maxAbsErr {
					r.maxAbsErr = d
				}
				if !(d <= r.w.errBound) {
					r.bad[i] = true
				}
			}
		}
	}
	return nil
}

// verify reports whether a response for pool set i is correct: the set
// passed its cleartext check and every output equals the oracle's bit
// for bit.
func (r *rig) verify(i int, got ctSet) bool {
	if r.bad[i] || len(got) != len(r.oracle[i]) {
		return false
	}
	for name, want := range r.oracle[i] {
		if !ctEqual(got[name], want) {
			return false
		}
	}
	return true
}

func ctEqual(a, b *heax.Ciphertext) bool {
	if a == nil || b == nil || a.Scale != b.Scale || a.Level != b.Level || len(a.Polys) != len(b.Polys) {
		return false
	}
	for i := range a.Polys {
		if !a.Polys[i].Equal(b.Polys[i]) {
			return false
		}
	}
	return true
}

// close stops the server, closes the clients and releases the ring
// worker pools, so a repeated set-up starts from a quiet process.
func (r *rig) close() {
	if r == nil {
		return
	}
	for _, cl := range r.clients {
		cl.Close()
	}
	if r.srv != nil {
		r.srv.Close()
	}
	for _, p := range r.rings {
		p.RingQP.Close()
	}
}
