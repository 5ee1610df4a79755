// Package heax_test's benchmarks time this repo's CKKS baseline: the
// Table 7/8 CPU operations of internal/bench (the list heax-bench's
// MeasureCPU times, on the same seeded fixture), the public *Into hot
// path, and the hardware simulator's own speed. The model tables are
// rendered by heax-bench and checked by golden tests; DESIGN.md's
// per-experiment index maps each table to both.
package heax_test

import (
	"math/rand"
	"sync"
	"testing"

	"heax"
	"heax/internal/bench"
	"heax/internal/ckks"
	"heax/internal/hwsim"
)

// --- Tables 7 and 8: CPU columns ----------------------------------------

// forEachSet runs body as one sub-benchmark per Table 2 parameter set, on
// that set's CPU fixture.
func forEachSet(b *testing.B, body func(b *testing.B, f *bench.Fixture)) {
	for _, spec := range ckks.StandardSets {
		b.Run(spec.Name, func(b *testing.B) {
			f, err := bench.NewFixture(spec)
			if err != nil {
				b.Fatal(err)
			}
			body(b, f)
		})
	}
}

// runOps times each op on f as a sub-benchmark. With parallel set, each
// runs under RunParallel: many concurrent operations share one evaluator
// and the ring context's persistent worker pool, the serving-shape rate
// (ops/s under load) rather than one operation's latency.
func runOps(b *testing.B, f *bench.Fixture, ops []bench.CPUOp, parallel bool) {
	for _, op := range ops {
		b.Run(op.Name, func(b *testing.B) {
			if !parallel {
				for i := 0; i < b.N; i++ {
					if err := op.Run(f); err != nil {
						b.Fatal(err)
					}
				}
				return
			}
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if err := op.Run(f); err != nil {
						b.Error(err) // Fatal must not be called off the benchmark goroutine
						return
					}
				}
			})
		})
	}
}

func BenchmarkTable7_CPU(b *testing.B) {
	forEachSet(b, func(b *testing.B, f *bench.Fixture) { runOps(b, f, bench.Table7Ops, false) })
}

// BenchmarkTable7_CPU_Strict times the strict-reduction oracles (the
// seed's transforms) on the fixture row, the baseline of the lazy
// engine's speedup.
func BenchmarkTable7_CPU_Strict(b *testing.B) {
	forEachSet(b, func(b *testing.B, f *bench.Fixture) {
		tb := f.Params.RingQP.Tables[0]
		runOps(b, f, []bench.CPUOp{
			{Name: "NTT", Run: func(f *bench.Fixture) error { tb.ForwardStrict(f.Row); return nil }},
			{Name: "INTT", Run: func(f *bench.Fixture) error { tb.InverseStrict(f.Row); return nil }},
		}, false)
	})
}

func BenchmarkTable8_CPU(b *testing.B) {
	forEachSet(b, func(b *testing.B, f *bench.Fixture) { runOps(b, f, bench.Table8Ops, false) })
}

func BenchmarkTable8_CPU_Throughput(b *testing.B) {
	forEachSet(b, func(b *testing.B, f *bench.Fixture) { runOps(b, f, bench.Table8Ops, true) })
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
	f, err := bench.NewFixture(ckks.SetA)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := hwsim.NewNTTModuleSim(f.Params.RingQP.Tables[0], 16, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Transform(f.Row)
	}
}
