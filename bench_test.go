// Package heax_test is the top-level benchmark harness: one bench target
// per table and figure of the paper's evaluation (see DESIGN.md's
// per-experiment index). CPU benches measure this repo's CKKS baseline;
// HEAX benches report the cycle-exact model/simulator rates so that a
// single `go test -bench=. -benchmem` regenerates every comparison.
package heax_test

import (
	"math/rand"
	"sync"
	"testing"

	"heax"
	"heax/internal/bench"
	"heax/internal/ckks"
	"heax/internal/core"
	"heax/internal/hwsim"
	"heax/internal/ring"
)

var (
	paramsMu    sync.Mutex
	paramsCache = map[string]*ckks.Params{}
	kitCache    = map[string]*benchKit{}
)

type benchKit struct {
	params *ckks.Params
	rlk    *ckks.RelinearizationKey
	eval   *ckks.Evaluator
}

func getParams(b *testing.B, spec ckks.ParamSpec) *ckks.Params {
	b.Helper()
	paramsMu.Lock()
	defer paramsMu.Unlock()
	if p, ok := paramsCache[spec.Name]; ok {
		return p
	}
	p, err := ckks.NewParams(spec)
	if err != nil {
		b.Fatal(err)
	}
	paramsCache[spec.Name] = p
	return p
}

func getKit(b *testing.B, spec ckks.ParamSpec) *benchKit {
	b.Helper()
	params := getParams(b, spec)
	paramsMu.Lock()
	defer paramsMu.Unlock()
	if k, ok := kitCache[spec.Name]; ok {
		return k
	}
	kg := ckks.NewKeyGenerator(params, 1)
	sk := kg.GenSecretKey()
	k := &benchKit{params: params, rlk: kg.GenRelinearizationKey(sk), eval: ckks.NewEvaluator(params)}
	kitCache[spec.Name] = k
	return k
}

func randomRow(params *ckks.Params, rng *rand.Rand) []uint64 {
	p := params.RingQP.Basis.Primes[0]
	row := make([]uint64, params.N)
	for i := range row {
		row[i] = rng.Uint64() % p
	}
	return row
}

func randomPoly(params *ckks.Params, rows int, rng *rand.Rand) *ring.Poly {
	poly := params.RingQP.NewPoly(rows)
	for i := 0; i < rows; i++ {
		p := params.RingQP.Basis.Primes[i]
		for j := range poly.Coeffs[i] {
			poly.Coeffs[i][j] = rng.Uint64() % p
		}
	}
	return poly
}

func randomCt(params *ckks.Params, rng *rand.Rand) *ckks.Ciphertext {
	return &ckks.Ciphertext{
		Polys: []*ring.Poly{randomPoly(params, params.K(), rng), randomPoly(params, params.K(), rng)},
		Scale: params.DefaultScale(),
		Level: params.MaxLevel(),
	}
}

// --- Table 7 CPU columns -------------------------------------------------

func BenchmarkTable7_CPU_NTT(b *testing.B) {
	for _, spec := range ckks.StandardSets {
		b.Run(spec.Name, func(b *testing.B) {
			params := getParams(b, spec)
			row := randomRow(params, rand.New(rand.NewSource(1)))
			tb := params.RingQP.Tables[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb.Forward(row)
			}
		})
	}
}

func BenchmarkTable7_CPU_INTT(b *testing.B) {
	for _, spec := range ckks.StandardSets {
		b.Run(spec.Name, func(b *testing.B) {
			params := getParams(b, spec)
			row := randomRow(params, rand.New(rand.NewSource(2)))
			tb := params.RingQP.Tables[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb.Inverse(row)
			}
		})
	}
}

// Strict-reduction oracles, kept as the baseline column so the recorded
// BENCH_1.json shows the lazy-engine speedup directly.

func BenchmarkTable7_CPU_NTT_Strict(b *testing.B) {
	for _, spec := range ckks.StandardSets {
		b.Run(spec.Name, func(b *testing.B) {
			params := getParams(b, spec)
			row := randomRow(params, rand.New(rand.NewSource(1)))
			tb := params.RingQP.Tables[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb.ForwardStrict(row)
			}
		})
	}
}

func BenchmarkTable7_CPU_INTT_Strict(b *testing.B) {
	for _, spec := range ckks.StandardSets {
		b.Run(spec.Name, func(b *testing.B) {
			params := getParams(b, spec)
			row := randomRow(params, rand.New(rand.NewSource(2)))
			tb := params.RingQP.Tables[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb.InverseStrict(row)
			}
		})
	}
}

func BenchmarkTable7_CPU_Dyadic(b *testing.B) {
	for _, spec := range ckks.StandardSets {
		b.Run(spec.Name, func(b *testing.B) {
			params := getParams(b, spec)
			rng := rand.New(rand.NewSource(3))
			x, y := randomRow(params, rng), randomRow(params, rng)
			out := make([]uint64, params.N)
			ctx := params.RingQP
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx.MulCoeffsRow(x, y, out, 0)
			}
		})
	}
}

// --- Table 8 CPU columns -------------------------------------------------

func BenchmarkTable8_CPU_KeySwitch(b *testing.B) {
	for _, spec := range ckks.StandardSets {
		b.Run(spec.Name, func(b *testing.B) {
			kit := getKit(b, spec)
			c := randomPoly(kit.params, kit.params.K(), rand.New(rand.NewSource(4)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kit.eval.KeySwitchPoly(c, &kit.rlk.SwitchingKey)
			}
		})
	}
}

func BenchmarkTable8_CPU_MulRelin(b *testing.B) {
	for _, spec := range ckks.StandardSets {
		b.Run(spec.Name, func(b *testing.B) {
			kit := getKit(b, spec)
			rng := rand.New(rand.NewSource(5))
			ct1, ct2 := randomCt(kit.params, rng), randomCt(kit.params, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := kit.eval.MulRelin(ct1, ct2, kit.rlk); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Multi-op key-switch *throughput* at GOMAXPROCS: many concurrent
// key-switch operations share one evaluator and the ring context's
// persistent worker pool — the serving-shape metric (ops/sec under
// load) as opposed to the single-op latency above. The evaluator is
// safe for concurrent use; per-call state is pooled.

func BenchmarkTable8_CPU_KeySwitchThroughput(b *testing.B) {
	for _, spec := range ckks.StandardSets {
		b.Run(spec.Name, func(b *testing.B) {
			kit := getKit(b, spec)
			c := randomPoly(kit.params, kit.params.K(), rand.New(rand.NewSource(8)))
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					kit.eval.KeySwitchPoly(c, &kit.rlk.SwitchingKey)
				}
			})
		})
	}
}

func BenchmarkTable8_CPU_MulRelinThroughput(b *testing.B) {
	for _, spec := range ckks.StandardSets {
		b.Run(spec.Name, func(b *testing.B) {
			kit := getKit(b, spec)
			rng := rand.New(rand.NewSource(9))
			ct1, ct2 := randomCt(kit.params, rng), randomCt(kit.params, rng)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := kit.eval.MulRelin(ct1, ct2, kit.rlk); err != nil {
						b.Error(err) // Fatal must not be called off the benchmark goroutine
						return
					}
				}
			})
		})
	}
}

// --- HEAX model columns (Tables 7 and 8) ---------------------------------

func BenchmarkTable7_HEAX_Model(b *testing.B) {
	for _, cfg := range core.EvaluatedConfigs() {
		b.Run(cfg.Board.Name+"/"+cfg.Set.Name, func(b *testing.B) {
			d, err := core.StandardDesign(cfg.Board, cfg.Set)
			if err != nil {
				b.Fatal(err)
			}
			p := core.Perf{Design: d}
			var ops float64
			for i := 0; i < b.N; i++ {
				ops = p.NTTOps()
			}
			b.ReportMetric(ops, "NTT-ops/s")
			b.ReportMetric(p.DyadicOps(), "Dyadic-ops/s")
		})
	}
}

func BenchmarkTable8_HEAX_Model(b *testing.B) {
	for _, cfg := range core.EvaluatedConfigs() {
		b.Run(cfg.Board.Name+"/"+cfg.Set.Name, func(b *testing.B) {
			d, err := core.StandardDesign(cfg.Board, cfg.Set)
			if err != nil {
				b.Fatal(err)
			}
			p := core.Perf{Design: d}
			var ops float64
			for i := 0; i < b.N; i++ {
				ops = p.KeySwitchOps()
			}
			b.ReportMetric(ops, "KeySwitch-ops/s")
		})
	}
}

// --- Static/model tables -------------------------------------------------

func BenchmarkTable1_Boards(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if got := bench.Table1Boards(); len(got.Rows) != 2 {
			b.Fatal("bad table 1")
		}
	}
}

func BenchmarkTable2_ParamSets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table2Params(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3_Cores(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if got := bench.Table3Cores(); len(got.Rows) != 3 {
			b.Fatal("bad table 3")
		}
	}
}

func BenchmarkTable4_Modules(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if got := bench.Table4Modules(); len(got.Rows) != 12 {
			b.Fatal("bad table 4")
		}
	}
}

func BenchmarkTable5_ArchGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, cfg := range core.EvaluatedConfigs() {
			if _, err := core.GenerateArch(cfg.Board, cfg.Set); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTable6_FullDesign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table6Designs(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures and ablations -----------------------------------------------

func BenchmarkFig2_AccessPattern(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig2AccessPattern(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4_PipelineAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig4PipelineAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6_KeySwitchPipeline(b *testing.B) {
	for _, cfg := range core.PaperArchitectures {
		b.Run(cfg.Board+"/"+cfg.Set, func(b *testing.B) {
			var set core.ParamSet
			for _, s := range core.ParamSets {
				if s.Name == cfg.Set {
					set = s
				}
			}
			var interval float64
			for i := 0; i < b.N; i++ {
				rep := hwsim.SimulateKeySwitchPipeline(hwsim.PipelineConfig{Arch: cfg.Arch, Set: set}, 64, false)
				interval = rep.Interval
			}
			b.ReportMetric(interval, "cycles/op")
		})
	}
}

func BenchmarkAblation_WordSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := core.WordSizeAblationTable(); len(rows) != 3 {
			b.Fatal("bad ablation")
		}
	}
}

func BenchmarkAblation_Buffers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationBuffers(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSec5_DRAMStreaming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Sec5System(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSec5_HostStreaming(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.HostStreamingTable(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweep_INTT0(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, cfg := range core.EvaluatedConfigs() {
			if pts := core.SweepINTT0(cfg.Board, cfg.Set); len(pts) != 6 {
				b.Fatal("bad sweep")
			}
		}
	}
}

func BenchmarkScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.ScalabilityTable(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Public API: *Into hot path ------------------------------------------
// The serving-shape benchmarks of the public surface: the in-place
// operation variants, whose allocs/op column is the zero-steady-state-
// allocation gate.

type apiBenchKit struct {
	params *heax.Params
	eval   *heax.Evaluator
	x, y   *heax.Ciphertext
}

var (
	apiBenchMu    sync.Mutex
	apiBenchCache = map[string]*apiBenchKit{}
)

func getAPIBenchKit(b *testing.B, spec heax.ParamSpec) *apiBenchKit {
	b.Helper()
	apiBenchMu.Lock()
	defer apiBenchMu.Unlock()
	if k, ok := apiBenchCache[spec.Name]; ok {
		return k
	}
	params, err := heax.NewParams(spec)
	if err != nil {
		b.Fatal(err)
	}
	kg := heax.NewKeyGenerator(params, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	evk := heax.GenEvaluationKeys(kg, sk, []int{1}, false)
	enc := heax.NewEncoder(params)
	encryptor := heax.NewEncryptor(params, pk, 2)
	encrypt := func(seed int64) *heax.Ciphertext {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float64, 16)
		for i := range vals {
			vals[i] = rng.Float64()*2 - 1
		}
		pt, err := enc.EncodeReal(vals, params.MaxLevel(), params.DefaultScale())
		if err != nil {
			b.Fatal(err)
		}
		ct, err := encryptor.Encrypt(pt)
		if err != nil {
			b.Fatal(err)
		}
		return ct
	}
	k := &apiBenchKit{
		params: params,
		eval:   heax.NewEvaluator(params, evk),
		x:      encrypt(10),
		y:      encrypt(11),
	}
	apiBenchCache[spec.Name] = k
	return k
}

func BenchmarkAPI_AddInto(b *testing.B) {
	for _, spec := range heax.StandardSets {
		b.Run(spec.Name, func(b *testing.B) {
			k := getAPIBenchKit(b, spec)
			out, err := heax.NewCiphertext(k.params, 1, k.params.MaxLevel(), 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := k.eval.AddInto(k.x, k.y, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAPI_MulRelinInto(b *testing.B) {
	for _, spec := range heax.StandardSets {
		b.Run(spec.Name, func(b *testing.B) {
			k := getAPIBenchKit(b, spec)
			out, err := heax.NewCiphertext(k.params, 1, k.params.MaxLevel(), 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := k.eval.MulRelinInto(k.x, k.y, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAPI_RescaleInto(b *testing.B) {
	for _, spec := range heax.StandardSets {
		b.Run(spec.Name, func(b *testing.B) {
			k := getAPIBenchKit(b, spec)
			prod, err := k.eval.MulRelin(k.x, k.y)
			if err != nil {
				b.Fatal(err)
			}
			out, err := heax.NewCiphertext(k.params, 1, k.params.MaxLevel()-1, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := k.eval.RescaleInto(prod, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAPI_RotateInto(b *testing.B) {
	for _, spec := range heax.StandardSets {
		b.Run(spec.Name, func(b *testing.B) {
			k := getAPIBenchKit(b, spec)
			out, err := heax.NewCiphertext(k.params, 1, k.params.MaxLevel(), 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := k.eval.RotateInto(k.x, 1, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Hardware-simulator throughput (how fast the simulator itself runs) --

func BenchmarkHWSim_NTTModule(b *testing.B) {
	params := getParams(b, ckks.SetA)
	tb := params.RingQP.Tables[0]
	sim, err := hwsim.NewNTTModuleSim(tb, 16, false)
	if err != nil {
		b.Fatal(err)
	}
	row := randomRow(params, rand.New(rand.NewSource(6)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Transform(row)
	}
}
