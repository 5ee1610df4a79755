package heax_test

// Compiled-plan benchmarks: compile latency, single-run latency on the
// logistic example circuit, and — the acceptance metric of the circuit
// API — RunBatch throughput in ns per MulRelin, directly comparable
// with the imperative API_MulRelinInto row.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"heax"
	"heax/circuits"
)

func mulRelinPlan(b *testing.B, k *apiBenchKit) *heax.Plan {
	b.Helper()
	c := heax.NewCircuit()
	c.Output("z", c.MulRelin(c.Input("x"), c.Input("y")))
	plan, err := c.Compile(k.params, k.eval.Keys())
	if err != nil {
		b.Fatal(err)
	}
	return plan
}

func BenchmarkPlanBatch_MulRelin(b *testing.B) {
	for _, spec := range heax.StandardSets {
		b.Run(spec.Name, func(b *testing.B) {
			k := getAPIBenchKit(b, spec)
			plan := mulRelinPlan(b, k)
			in := map[string]*heax.Ciphertext{"x": k.x, "y": k.y}
			const window = 64
			batch := make([]map[string]*heax.Ciphertext, window)
			for i := range batch {
				batch[i] = in
			}
			b.ResetTimer()
			for done := 0; done < b.N; done += window {
				n := min(window, b.N-done)
				if _, err := plan.RunBatch(batch[:n]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlan_RunMulRelin is the single-run (latency) shape of the
// same workload.
func BenchmarkPlan_RunMulRelin(b *testing.B) {
	for _, spec := range heax.StandardSets {
		b.Run(spec.Name, func(b *testing.B) {
			k := getAPIBenchKit(b, spec)
			plan := mulRelinPlan(b, k)
			in := map[string]*heax.Ciphertext{"x": k.x, "y": k.y}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := plan.Run(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The logistic example circuit end to end: 8 feature inputs, the full
// degree-3 sigmoid dataflow, 27 compiled steps.

type logisticBenchKit struct {
	params *heax.Params
	plan   *heax.Plan
	in     map[string]*heax.Ciphertext
}

var (
	logisticBenchMu   sync.Mutex
	logisticBenchKit_ *logisticBenchKit
)

func getLogisticBenchKit(b *testing.B) *logisticBenchKit {
	b.Helper()
	logisticBenchMu.Lock()
	defer logisticBenchMu.Unlock()
	if logisticBenchKit_ != nil {
		return logisticBenchKit_
	}
	params, err := heax.NewParams(heax.SetB)
	if err != nil {
		b.Fatal(err)
	}
	kg := heax.NewKeyGenerator(params, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	evk := &heax.EvaluationKeySet{Relin: kg.GenRelinearizationKey(sk)}
	enc := heax.NewEncoder(params)
	encryptor := heax.NewEncryptor(params, pk, 2)
	rng := rand.New(rand.NewSource(6))

	const features = 8
	c := heax.NewCircuit()
	var t heax.Node
	for j := 0; j < features; j++ {
		term := c.MulConst(c.Input(fmt.Sprintf("x%d", j)), rng.Float64()*2-1)
		if j == 0 {
			t = term
		} else {
			t = c.Add(t, term)
		}
	}
	t = c.AddConst(t, 0.25)
	cubic := c.MulRelin(c.MulConst(t, -0.004), c.MulRelin(t, t))
	c.Output("score", c.AddConst(c.Add(cubic, c.MulConst(t, 0.197)), 0.5))
	plan, err := c.Compile(params, evk)
	if err != nil {
		b.Fatal(err)
	}

	in := make(map[string]*heax.Ciphertext, features)
	for j := 0; j < features; j++ {
		vals := make([]float64, 16)
		for i := range vals {
			vals[i] = rng.Float64()*2 - 1
		}
		pt, err := enc.EncodeReal(vals, params.MaxLevel(), params.DefaultScale())
		if err != nil {
			b.Fatal(err)
		}
		if in[fmt.Sprintf("x%d", j)], err = encryptor.Encrypt(pt); err != nil {
			b.Fatal(err)
		}
	}
	logisticBenchKit_ = &logisticBenchKit{params: params, plan: plan, in: in}
	return logisticBenchKit_
}

func BenchmarkPlan_CompileLogistic(b *testing.B) {
	k := getLogisticBenchKit(b)
	kg := heax.NewKeyGenerator(k.params, 1)
	sk := kg.GenSecretKey()
	evk := &heax.EvaluationKeySet{Relin: kg.GenRelinearizationKey(sk)}
	rng := rand.New(rand.NewSource(7))
	const features = 8
	c := heax.NewCircuit()
	var t heax.Node
	for j := 0; j < features; j++ {
		term := c.MulConst(c.Input(fmt.Sprintf("x%d", j)), rng.Float64()*2-1)
		if j == 0 {
			t = term
		} else {
			t = c.Add(t, term)
		}
	}
	cubic := c.MulRelin(c.MulConst(t, -0.004), c.MulRelin(t, t))
	c.Output("score", c.AddConst(c.Add(cubic, c.MulConst(t, 0.197)), 0.5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Compile(k.params, evk); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlan_CompileMatVec prices Compile of matvec-serve-A's plan:
// the Set-A 256×256 BSGS matvec, whose 256 periodic diagonals are
// nearly all of a compile.
func BenchmarkPlan_CompileMatVec(b *testing.B) {
	params, err := heax.NewParams(heax.SetA)
	if err != nil {
		b.Fatal(err)
	}
	c := matvecCircuit(b)
	steps, err := c.RequiredRotations(params)
	if err != nil {
		b.Fatal(err)
	}
	kg := heax.NewKeyGenerator(params, 1)
	evk := heax.GenEvaluationKeys(kg, kg.GenSecretKey(), steps, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Compile(params, evk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlan_RunLogistic(b *testing.B) {
	k := getLogisticBenchKit(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.plan.Run(k.in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanBatch_Logistic(b *testing.B) {
	k := getLogisticBenchKit(b)
	const window = 8
	batch := make([]map[string]*heax.Ciphertext, window)
	for i := range batch {
		batch[i] = k.in
	}
	b.ResetTimer()
	for done := 0; done < b.N; done += window {
		n := min(window, b.N-done)
		if _, err := k.plan.RunBatch(batch[:n]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlan_RunServedLogistic is one run of the circuit lr-serve-C
// serves, in process: a BatchedDot of 8 weights, a bias and the degree-7
// sigmoid at Set-C, 15 steps whose rescales all close in fused chains.
func BenchmarkPlan_RunServedLogistic(b *testing.B) {
	params, err := heax.NewParams(heax.SetC)
	if err != nil {
		b.Fatal(err)
	}
	dot, err := circuits.BatchedDot([]float64{0.3, -0.2, 0.1, 0.4, -0.5, 0.25, -0.1, 0.05})
	if err != nil {
		b.Fatal(err)
	}
	c := heax.NewCircuit()
	scores, err := dot.Apply(c, c.Input("x"))
	if err != nil {
		b.Fatal(err)
	}
	prob, err := circuits.Sigmoid(7).Apply(c, c.AddConst(scores, 0.25))
	if err != nil {
		b.Fatal(err)
	}
	c.Output("p", prob)
	steps, err := c.RequiredRotations(params)
	if err != nil {
		b.Fatal(err)
	}
	kg := heax.NewKeyGenerator(params, 1)
	sk := kg.GenSecretKey()
	plan, err := c.Compile(params, heax.GenEvaluationKeys(kg, sk, steps, false))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	xs := make([]float64, params.Slots())
	for i := range xs {
		xs[i] = rng.Float64()*4 - 2
	}
	pt, err := heax.NewEncoder(params).EncodeReal(xs, params.MaxLevel(), params.DefaultScale())
	if err != nil {
		b.Fatal(err)
	}
	ct, err := heax.NewEncryptor(params, kg.GenPublicKey(sk), 2).Encrypt(pt)
	if err != nil {
		b.Fatal(err)
	}
	in := map[string]*heax.Ciphertext{"x": ct}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Run(in); err != nil {
			b.Fatal(err)
		}
	}
}
