package ckks

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"

	"heax/internal/ring"
)

// schedSpec is a small HEAX-shaped parameter set so the equivalence
// matrix stays fast, yet large enough that RunRows really fans out: a
// pass needs 4 rows x 2^12 coefficients, which the MAC pass has at the
// top two levels and the INTT and flooring passes at the top one (below
// that every pass runs inline at any worker count). The full Table 2
// sets are covered by TestKeySwitchWorkerInvariantTable2.
var schedSpec = ParamSpec{Name: "sched-test", LogN: 12, QBits: []int{43, 40, 40, 40}, PBits: 46, LogScale: 40}

// mixedSpec puts rows 0 and P above 2^50 and rows 1-2 below, so one key
// switch runs the MAC's scalar branch and its IFMA branch side by side
// on an IFMA host; every other spec in this package (and every Table 2
// set) is below 2^50 throughout.
var mixedSpec = ParamSpec{Name: "sched-mixed", LogN: 12, QBits: []int{55, 45, 45}, PBits: 58, LogScale: 45}

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

// polyHash is FNV-1a over the rows of the given polynomials.
func polyHash(ps ...*ring.Poly) uint64 {
	h := fnv.New64a()
	var w [8]byte
	for _, p := range ps {
		for _, row := range p.Coeffs {
			for _, v := range row {
				binary.LittleEndian.PutUint64(w[:], v)
				h.Write(w[:])
			}
		}
	}
	return h.Sum64()
}

// The key switch must not depend on how its rows are spread over
// participants: inline (one worker) and fanned out (2, 3, 8 workers —
// more than the level+2 rows there are to hand out, at every level of
// these sets) give the same bits at every level, level 0 included. Each
// level is also pinned to a hash of the one-worker result; it depends on
// the seeded key draws too, so only a change to the sampler may move it.
func TestKeySwitchWorkerInvariant(t *testing.T) {
	keySwitchWorkerInvariant(t, schedSpec, []uint64{0x7fbdfac31ee8d244, 0x7391c0bfd5bb19f3, 0xcc7934e8185d15f2, 0x99bedb490768213e})
	keySwitchWorkerInvariant(t, mixedSpec, []uint64{0x658de45306e8baf5, 0x20f29a66a0f889ea, 0xfde2e34c809866b1})
}

func keySwitchWorkerInvariant(t *testing.T, spec ParamSpec, wantHash []uint64) {
	params, rlk, ev := schedKit(t, spec)
	ctx := params.RingQP
	rng := rand.New(rand.NewSource(3))
	for level := 0; level <= params.MaxLevel(); level++ {
		c := schedRandomPoly(ctx, level+1, rng)
		ctx.SetWorkers(1)
		want0, want1 := ev.KeySwitchPoly(c, &rlk.SwitchingKey)
		if got := polyHash(want0, want1); got != wantHash[level] {
			t.Fatalf("%s level %d: key switch hashes to %#x, want %#x", spec.Name, level, got, wantHash[level])
		}
		for _, workers := range []int{2, 3, 8} {
			ctx.SetWorkers(workers)
			got0, got1 := ev.KeySwitchPoly(c, &rlk.SwitchingKey)
			if !got0.Equal(want0) || !got1.Equal(want1) {
				t.Fatalf("%s level %d workers %d: key switch differs from the one-worker result", spec.Name, level, workers)
			}
		}
	}
}

// Same invariance across every Table 2 parameter set at top level.
func TestKeySwitchWorkerInvariantTable2(t *testing.T) {
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
		if !got0.Equal(want0) || !got1.Equal(want1) {
			t.Fatalf("%s: key switch at 4 workers differs from the one-worker result", spec.Name)
		}
	}
}

// The hoisted paths (decomposition and MAC-over-decomposition) must also
// be worker-count invariant, with and without an automorphism table, at
// every level down to level 0 (two accumulator rows for up to eight
// workers).
func TestHoistedWorkerInvariant(t *testing.T) {
	hoistedWorkerInvariant(t, schedSpec)
	hoistedWorkerInvariant(t, mixedSpec)
}

func hoistedWorkerInvariant(t *testing.T, spec ParamSpec) {
	params, rlk, ev := schedKit(t, spec)
	ctx := params.RingQP
	rng := rand.New(rand.NewSource(9))
	table := ctx.AutomorphismNTTTable(ring.GaloisElement(3, params.N))
	for level := params.MaxLevel(); level >= 0; level-- {
		c := schedRandomPoly(ctx, level+1, rng)
		add := schedRandomPoly(ctx, level+1, rng)

		// decompose and keySwitchAddInto over the decomposition are the
		// two halves of RotateHoistedInto; driving them directly lets the
		// test compare the cached digits and cover the table-less MAC.
		decompose := func() *HoistedDecomposition {
			hd := &HoistedDecomposition{level: level, digits: make([]*ring.Poly, level+1)}
			for i := range hd.digits {
				hd.digits[i] = ctx.NewPoly(level + 2)
			}
			ev.decompose(c, hd, level)
			return hd
		}
		keySwitch := func(hd *HoistedDecomposition, table *ring.Automorphism, add *ring.Poly) (*ring.Poly, *ring.Poly) {
			out0, out1 := ctx.NewPolyPair(level + 1)
			ev.keySwitchAddInto(nil, hd, table, &rlk.SwitchingKey, add, nil, nil, out0, out1)
			return out0, out1
		}

		ctx.SetWorkers(1)
		hdOne := decompose()
		want0, want1 := keySwitch(hdOne, table, add)
		wantPlain0, wantPlain1 := keySwitch(hdOne, nil, nil)
		// Decomposing and MACing is the direct key switch in two halves.
		ks0, ks1 := ev.KeySwitchPoly(c, &rlk.SwitchingKey)
		if !wantPlain0.Equal(ks0) || !wantPlain1.Equal(ks1) {
			t.Fatalf("%s level %d: hoisted key switch differs from the direct one", spec.Name, level)
		}

		for _, workers := range []int{2, 3, 8} {
			ctx.SetWorkers(workers)
			hd := decompose()
			for i := range hd.digits {
				if !hd.digits[i].Equal(hdOne.digits[i]) {
					t.Fatalf("%s level %d workers %d: hoisted decomposition digit %d differs", spec.Name, level, workers, i)
				}
			}
			got0, got1 := keySwitch(hd, table, add)
			if !got0.Equal(want0) || !got1.Equal(want1) {
				t.Fatalf("%s level %d workers %d: hoisted key switch (permuted, fused add) differs", spec.Name, level, workers)
			}
			got0, got1 = keySwitch(hd, nil, nil)
			if !got0.Equal(wantPlain0) || !got1.Equal(wantPlain1) {
				t.Fatalf("%s level %d workers %d: hoisted key switch differs", spec.Name, level, workers)
			}
		}
	}
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

// SetWorkers(1) must run every evaluator entry point inline, without
// touching the worker pool (this is also the configuration the ladder's
// ckks.keyswitch_w1_ms pins).
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

// One Evaluator hammered from concurrent goroutines, each key switch
// fanning its rows out over the shared pool (run under -race in CI):
// every goroutine must reproduce the one-worker results bit for bit.
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

// BenchmarkKeySwitch_ScalarRows prices one key switch on all-55-bit
// primes under a 58-bit special prime: rows the IFMA kernels cannot
// take, so every transform and MAC runs the scalar path — the platform
// path (any non-IFMA host) that no BENCHMARK.json workload reaches.
func BenchmarkKeySwitch_ScalarRows(b *testing.B) {
	for _, spec := range []ParamSpec{
		{Name: "LogN12", LogN: 12, QBits: []int{55, 55}, PBits: 58, LogScale: 45},
		{Name: "LogN14", LogN: 14, QBits: []int{55, 55, 55, 55}, PBits: 58, LogScale: 45},
	} {
		params, rlk, ev := schedKit(b, spec)
		c := schedRandomPoly(params.RingQP, params.K(), rand.New(rand.NewSource(5)))
		for _, w := range []struct {
			name string
			n    int
		}{{"w1", 1}, {"default", ev.Workers()}} {
			ev.SetWorkers(w.n)
			b.Run(spec.Name+"/"+w.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ev.KeySwitchPoly(c, &rlk.SwitchingKey)
				}
			})
		}
	}
}
