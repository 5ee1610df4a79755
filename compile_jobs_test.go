package heax_test

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"heax"
	"heax/circuits"
)

// TestCompileWorkerInvariant: Compile encodes its payloads as jobs fanned
// out over the ring's workers; the matvec plan (Set-A, 256 periodic
// diagonals) and the served logistic plan (Set-C, broadcasts and a
// batched dot product) compiled inline and on every CPU hold the same
// plaintext rows, step by step, and describe the same.
func TestCompileWorkerInvariant(t *testing.T) {
	for _, c := range []struct {
		name  string
		spec  heax.ParamSpec
		build func(t testing.TB) *heax.Circuit
	}{
		{"matvec", heax.SetA, matvecCircuit},
		{"logistic", heax.SetC, servedLogisticCircuit},
	} {
		t.Run(c.name, func(t *testing.T) {
			params, err := heax.NewParams(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			circ := c.build(t)
			steps, err := circ.RequiredRotations(params)
			if err != nil {
				t.Fatal(err)
			}
			kg := heax.NewKeyGenerator(params, 5)
			evk := heax.GenEvaluationKeys(kg, kg.GenSecretKey(), steps, false)
			ring := params.RingQP
			defer ring.SetWorkers(ring.Workers())
			var want []*heax.Plaintext
			var wantDesc string
			for _, workers := range []int{1, max(2, runtime.NumCPU())} {
				ring.SetWorkers(workers)
				plan, err := circ.Compile(params, evk)
				if err != nil {
					t.Fatal(err)
				}
				got := heax.PlanPlaintexts(plan)
				if want == nil {
					want, wantDesc = got, plan.Describe()
					continue
				}
				if desc := plan.Describe(); desc != wantDesc {
					t.Fatalf("%d workers describe\n%s\ninline\n%s", workers, desc, wantDesc)
				}
				if len(got) != len(want) {
					t.Fatalf("%d workers: %d plaintexts, inline %d", workers, len(got), len(want))
				}
				for i := range got {
					if (got[i] == nil) != (want[i] == nil) {
						t.Fatalf("%d workers: plaintext %d present %v, inline %v", workers, i, got[i] != nil, want[i] != nil)
					}
					if got[i] != nil && (got[i].Scale != want[i].Scale || !got[i].Value.Equal(want[i].Value)) {
						t.Fatalf("%d workers: plaintext %d differs from the inline compile", workers, i)
					}
				}
			}
			if len(want) == 0 {
				t.Fatal("plan holds no plaintexts")
			}
		})
	}
}

// matvecCircuit is matvec-serve-A's circuit: a dense 256×256 real
// matrix through circuits' BSGS diagonal method.
func matvecCircuit(t testing.TB) *heax.Circuit {
	rng := rand.New(rand.NewSource(11))
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
		t.Fatal(err)
	}
	c := heax.NewCircuit()
	y, err := lt.Apply(c, c.Input("x"))
	if err != nil {
		t.Fatal(err)
	}
	c.Output("y", y)
	return c
}

// servedLogisticCircuit is lr-serve-C's circuit: a batched dot product
// over 8 features, then the degree-7 sigmoid.
func servedLogisticCircuit(t testing.TB) *heax.Circuit {
	dot, err := circuits.BatchedDot([]float64{0.3, -0.2, 0.1, 0.4, -0.5, 0.25, -0.1, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	c := heax.NewCircuit()
	scores, err := dot.Apply(c, c.Input("x"))
	if err != nil {
		t.Fatal(err)
	}
	prob, err := circuits.Sigmoid(7).Apply(c, c.AddConst(scores, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	c.Output("p", prob)
	return c
}

// TestCompileErrorPrecedence: Compile encodes payloads after lowering,
// yet reports what encoding each payload where lowering reaches it
// reported: the first failing payload in lowering order, ahead of a
// later lowering error (a missing Galois key) and of a later malformed
// payload, with enough valid payloads between them for the encodings to
// fan out, at one worker and at two.
func TestCompileErrorPrecedence(t *testing.T) {
	params, err := heax.NewParams(heax.SetA)
	if err != nil {
		t.Fatal(err)
	}
	ring := params.RingQP
	defer ring.SetWorkers(ring.Workers())
	valid := func(c *heax.Circuit, x heax.Node) heax.Node {
		sum := c.MulPlain(x, []float64{0.5, -0.25})
		for i := 1; i < 8; i++ {
			sum = c.Add(sum, c.MulPlainPeriodic(x, []complex128{complex(float64(i), 1), 0.5}))
		}
		return sum
	}
	tiny := []float64{1e-30}           // encodes to the zero plaintext
	malformed := []complex128{1, 2, 3} // does not divide the slots
	for _, c := range []struct {
		name  string
		build func(c *heax.Circuit, x heax.Node) heax.Node
		want  error
	}{
		{"unencodable before missing key", func(c *heax.Circuit, x heax.Node) heax.Node {
			bad := c.MulPlain(x, tiny)
			return c.Add(c.Rotate(valid(c, x), 1), bad)
		}, heax.ErrUnencodable},
		{"missing key before unencodable", func(c *heax.Circuit, x heax.Node) heax.Node {
			rot := c.Rotate(x, 1)
			return c.Add(valid(c, rot), c.MulPlain(x, tiny))
		}, heax.ErrKeyMissing},
		{"unencodable before malformed", func(c *heax.Circuit, x heax.Node) heax.Node {
			bad := c.MulPlain(x, tiny)
			return c.Add(c.Add(bad, valid(c, x)), c.MulPlainPeriodic(x, malformed))
		}, heax.ErrUnencodable},
		{"malformed before unencodable", func(c *heax.Circuit, x heax.Node) heax.Node {
			bad := c.MulPlainPeriodic(x, malformed)
			return c.Add(c.Add(bad, valid(c, x)), c.MulPlain(x, tiny))
		}, heax.ErrInvalidCircuit},
	} {
		circ := heax.NewCircuit()
		x := circ.Input("x")
		circ.Output("y", c.build(circ, x))
		for _, workers := range []int{1, 2} {
			ring.SetWorkers(workers)
			_, err := circ.Compile(params, &heax.EvaluationKeySet{})
			if !errors.Is(err, c.want) {
				t.Errorf("%s, %d workers: got %v, want %v", c.name, workers, err, c.want)
			}
		}
	}
}
