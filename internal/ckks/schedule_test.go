package ckks

import (
	"math/rand"
	"sync"
	"testing"

	"heax/internal/ring"
)

// schedSpec is a small HEAX-shaped parameter set so the equivalence
// matrix stays fast; the full Table 2 sets are covered by
// TestPipelinedKeySwitchTable2.
var schedSpec = ParamSpec{Name: "sched-test", LogN: 10, QBits: []int{43, 40, 40, 40}, PBits: 46, LogScale: 40}

func schedKit(t testing.TB, spec ParamSpec) (*Params, *RelinearizationKey, *Evaluator) {
	t.Helper()
	params, err := NewParams(spec)
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(params, 11)
	sk := kg.GenSecretKey()
	return params, kg.GenRelinearizationKey(sk), NewEvaluator(params)
}

func schedRandomPoly(ctx *ring.Context, rows int, rng *rand.Rand) *ring.Poly {
	p := ctx.NewPoly(rows)
	for i := 0; i < rows; i++ {
		prime := ctx.Basis.Primes[i]
		for j := range p.Coeffs[i] {
			p.Coeffs[i][j] = rng.Uint64() % prime
		}
	}
	return p
}

// The pipelined tile scheduler must produce bit-identical key-switch
// results to the sequential oracle (SetWorkers(1)) at every level and
// several worker counts.
func TestPipelinedKeySwitchMatchesSequential(t *testing.T) {
	params, rlk, ev := schedKit(t, schedSpec)
	ctx := params.RingQP
	rng := rand.New(rand.NewSource(3))
	for level := 0; level <= params.MaxLevel(); level++ {
		c := schedRandomPoly(ctx, level+1, rng)
		ctx.SetWorkers(1)
		want0, want1 := ev.KeySwitchPoly(c, &rlk.SwitchingKey)
		for _, workers := range []int{2, 3, 8} {
			ctx.SetWorkers(workers)
			got0, got1 := ev.KeySwitchPoly(c, &rlk.SwitchingKey)
			if !got0.Equal(want0) || !got1.Equal(want1) {
				t.Fatalf("level %d workers %d: pipelined key switch differs from sequential oracle", level, workers)
			}
		}
		ctx.SetWorkers(1)
	}
}

// Same equivalence across every Table 2 parameter set at top level —
// the acceptance gate for the scheduler rewrite.
func TestPipelinedKeySwitchTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("full parameter sets skipped in -short mode")
	}
	for _, spec := range StandardSets {
		params, rlk, ev := schedKit(t, spec)
		ctx := params.RingQP
		rng := rand.New(rand.NewSource(5))
		c := schedRandomPoly(ctx, params.K(), rng)
		ctx.SetWorkers(1)
		want0, want1 := ev.KeySwitchPoly(c, &rlk.SwitchingKey)
		ctx.SetWorkers(4)
		got0, got1 := ev.KeySwitchPoly(c, &rlk.SwitchingKey)
		ctx.SetWorkers(1)
		if !got0.Equal(want0) || !got1.Equal(want1) {
			t.Fatalf("%s: pipelined key switch differs from sequential oracle", spec.Name)
		}
	}
}

// The hoisted paths (decomposition and MAC-over-decomposition) must also
// be worker-count invariant, including with an automorphism table.
func TestPipelinedHoistedMatchesSequential(t *testing.T) {
	params, rlk, ev := schedKit(t, schedSpec)
	ctx := params.RingQP
	rng := rand.New(rand.NewSource(9))
	c := schedRandomPoly(ctx, params.K(), rng)
	table := ctx.AutomorphismNTTTable(ring.GaloisElement(3, params.N))

	add := schedRandomPoly(ctx, params.K(), rng)

	// decompose and keySwitchHoistedInto are the two halves of
	// RotateHoistedInto; driving them directly lets the test compare the
	// cached digits and cover the table-less MAC grid.
	decompose := func() *HoistedDecomposition {
		hd := &HoistedDecomposition{level: c.Level(), digits: make([]*ring.Poly, params.K())}
		for i := range hd.digits {
			hd.digits[i] = ctx.NewPoly(params.K() + 1)
		}
		ev.decompose(c, hd, c.Level())
		return hd
	}
	keySwitch := func(hd *HoistedDecomposition, table []int, add *ring.Poly) (*ring.Poly, *ring.Poly) {
		out0, out1 := ctx.NewPolyPair(params.K())
		ev.keySwitchHoistedInto(hd, &rlk.SwitchingKey, table, add, nil, out0, out1)
		return out0, out1
	}

	ctx.SetWorkers(1)
	hdSeq := decompose()
	want0, want1 := keySwitch(hdSeq, table, add)
	wantPlain0, wantPlain1 := keySwitch(hdSeq, nil, nil)

	for _, workers := range []int{2, 8} {
		ctx.SetWorkers(workers)
		hd := decompose()
		for i := range hd.digits {
			if !hd.digits[i].Equal(hdSeq.digits[i]) {
				t.Fatalf("workers %d: hoisted decomposition digit %d differs", workers, i)
			}
		}
		got0, got1 := keySwitch(hd, table, add)
		if !got0.Equal(want0) || !got1.Equal(want1) {
			t.Fatalf("workers %d: hoisted key switch (permuted, fused add) differs", workers)
		}
		got0, got1 = keySwitch(hd, nil, nil)
		if !got0.Equal(wantPlain0) || !got1.Equal(wantPlain1) {
			t.Fatalf("workers %d: hoisted key switch differs", workers)
		}
	}
	ctx.SetWorkers(1)
}

// The fused MulRelin must agree bit-for-bit with Mul followed by
// Relinearize at every worker count.
func TestFusedMulRelinMatchesComposition(t *testing.T) {
	params, rlk, ev := schedKit(t, schedSpec)
	ctx := params.RingQP
	rng := rand.New(rand.NewSource(13))
	ct1 := &Ciphertext{
		Polys: []*ring.Poly{schedRandomPoly(ctx, params.K(), rng), schedRandomPoly(ctx, params.K(), rng)},
		Scale: params.DefaultScale(), Level: params.MaxLevel(),
	}
	ct2 := &Ciphertext{
		Polys: []*ring.Poly{schedRandomPoly(ctx, params.K(), rng), schedRandomPoly(ctx, params.K(), rng)},
		Scale: params.DefaultScale(), Level: params.MaxLevel(),
	}
	for _, workers := range []int{1, 4} {
		ctx.SetWorkers(workers)
		prod, err := ev.Mul(ct1, ct2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ev.Relinearize(prod, rlk)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ev.MulRelin(ct1, ct2, rlk)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Polys[0].Equal(want.Polys[0]) || !got.Polys[1].Equal(want.Polys[1]) {
			t.Fatalf("workers %d: fused MulRelin differs from Mul+Relinearize", workers)
		}
		if got.Scale != want.Scale || got.Level != want.Level {
			t.Fatalf("workers %d: fused MulRelin metadata differs", workers)
		}
	}
	ctx.SetWorkers(1)
}

// SetWorkers(1) must take the degenerate sequential path for every
// evaluator entry point without touching the worker pool (this is also
// the configuration the BENCH baselines pin).
func TestDegenerateSingleWorker(t *testing.T) {
	params, rlk, ev := schedKit(t, schedSpec)
	ctx := params.RingQP
	ctx.SetWorkers(1)
	rng := rand.New(rand.NewSource(17))
	ct := &Ciphertext{
		Polys: []*ring.Poly{schedRandomPoly(ctx, params.K(), rng), schedRandomPoly(ctx, params.K(), rng)},
		Scale: params.DefaultScale(), Level: params.MaxLevel(),
	}
	out, err := ev.MulRelin(ct, ct, rlk)
	if err != nil {
		t.Fatal(err)
	}
	if out.Degree() != 1 || out.Level != params.MaxLevel() {
		t.Fatalf("degenerate MulRelin: degree %d level %d", out.Degree(), out.Level)
	}
	if _, err := ev.Rescale(out); err != nil {
		t.Fatal(err)
	}
}

// One Evaluator hammered from concurrent goroutines (the -race test of
// the satellite checklist): every goroutine must reproduce the
// single-threaded reference results bit for bit.
func TestEvaluatorConcurrentUse(t *testing.T) {
	params, rlk, ev := schedKit(t, schedSpec)
	ctx := params.RingQP
	rng := rand.New(rand.NewSource(23))
	c := schedRandomPoly(ctx, params.K(), rng)
	ct := &Ciphertext{
		Polys: []*ring.Poly{schedRandomPoly(ctx, params.K(), rng), schedRandomPoly(ctx, params.K(), rng)},
		Scale: params.DefaultScale(), Level: params.MaxLevel(),
	}
	ctx.SetWorkers(1)
	wantKS0, wantKS1 := ev.KeySwitchPoly(c, &rlk.SwitchingKey)
	wantMR, err := ev.MulRelin(ct, ct, rlk)
	if err != nil {
		t.Fatal(err)
	}
	ctx.SetWorkers(4)
	defer ctx.SetWorkers(1)

	const goroutines = 6
	const iters = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	wg.Add(goroutines)
	for gor := 0; gor < goroutines; gor++ {
		gor := gor
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				if gor%2 == 0 {
					ks0, ks1 := ev.KeySwitchPoly(c, &rlk.SwitchingKey)
					if !ks0.Equal(wantKS0) || !ks1.Equal(wantKS1) {
						errs <- errMismatch("KeySwitchPoly", gor, it)
						return
					}
				} else {
					mr, err := ev.MulRelin(ct, ct, rlk)
					if err != nil {
						errs <- err
						return
					}
					if !mr.Polys[0].Equal(wantMR.Polys[0]) || !mr.Polys[1].Equal(wantMR.Polys[1]) {
						errs <- errMismatch("MulRelin", gor, it)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type mismatchError struct {
	op        string
	gor, iter int
}

func (e mismatchError) Error() string {
	return e.op + " result diverged under concurrency"
}

func errMismatch(op string, gor, iter int) error { return mismatchError{op, gor, iter} }

// ensureShoup must be safe for concurrent first use on a hand-built key.
func TestEnsureShoupConcurrent(t *testing.T) {
	params, rlk, _ := schedKit(t, schedSpec)
	// Strip the precomputed tables to simulate a hand-built key.
	bare := &SwitchingKey{Digits: rlk.Digits}
	var wg sync.WaitGroup
	results := make([][][2]*ring.Poly, 8)
	for i := range results {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = bare.ensureShoup(params.RingQP)
		}()
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if &results[i][0] != &results[0][0] {
			t.Fatal("concurrent ensureShoup built more than one table set")
		}
	}
}
