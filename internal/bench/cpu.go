package bench

import (
	"fmt"
	"math/rand"
	"time"

	"heax/internal/ckks"
	"heax/internal/ring"
)

// CPUMeasurements holds measured single-thread throughput (operations per
// second) of the Go CKKS baseline, per parameter set name — the "CPU"
// columns of Tables 7 and 8. (The paper measured SEAL 3.3 on a 1.8 GHz
// Xeon Silver 4108; absolute numbers differ with hardware and language,
// the comparison shape is what must hold.) The tables only read the maps,
// so the zero value renders placeholders.
type CPUMeasurements struct {
	NTT, INTT, Dyadic, KeySwitch, MulRelin map[string]float64
}

// Fixture is one parameter set's seeded operands for the Table 7/8 CPU
// columns: a residue row modulo the first prime for the low-level
// operations, and a top-level polynomial, ciphertext pair and
// relinearization key for the high-level ones.
type Fixture struct {
	Params *ckks.Params
	// Row is the row the low-level operations transform in place.
	Row []uint64

	row2, out []uint64
	poly      *ring.Poly
	ct1, ct2  *ckks.Ciphertext
	rlk       *ckks.RelinearizationKey
	eval      *ckks.Evaluator
}

// NewFixture realizes spec and draws its operands from a fixed seed.
func NewFixture(spec ckks.ParamSpec) (*Fixture, error) {
	params, err := ckks.NewParams(spec)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", spec.Name, err)
	}
	kg := ckks.NewKeyGenerator(params, 1)
	ctx := params.RingQP
	rng := rand.New(rand.NewSource(2))
	return &Fixture{
		Params: params,
		Row:    randomPoly(ctx, 1, rng).Coeffs[0],
		row2:   randomPoly(ctx, 1, rng).Coeffs[0],
		out:    make([]uint64, params.N),
		poly:   randomPoly(ctx, params.K(), rng),
		ct1:    randomCiphertext(params, rng),
		ct2:    randomCiphertext(params, rng),
		rlk:    kg.GenRelinearizationKey(kg.GenSecretKey()),
		eval:   ckks.NewEvaluator(params),
	}, nil
}

// CPUOp is one operation of the Table 7/8 CPU columns, run on a Fixture.
type CPUOp struct {
	Name string
	Run  func(*Fixture) error
}

// Table7Ops are the low-level operations, each on one residue row (paper
// Table 7). They write the fixture, so one runs at a time on it.
var Table7Ops = []CPUOp{
	{"NTT", func(f *Fixture) error { f.Params.RingQP.Tables[0].Forward(f.Row); return nil }},
	{"INTT", func(f *Fixture) error { f.Params.RingQP.Tables[0].Inverse(f.Row); return nil }},
	{"Dyadic", func(f *Fixture) error { f.Params.RingQP.MulCoeffsRow(f.Row, f.row2, f.out, 0); return nil }},
}

// Table8Ops are the high-level operations at the top level (paper
// Table 8). They only read the fixture, so many may run on it at once.
var Table8Ops = []CPUOp{
	{"KeySwitch", func(f *Fixture) error { f.eval.KeySwitchPoly(f.poly, &f.rlk.SwitchingKey); return nil }},
	{"MulRelin", func(f *Fixture) error { _, err := f.eval.MulRelin(f.ct1, f.ct2, f.rlk); return err }},
}

// MeasureCPU times Table7Ops and Table8Ops on every Table 2 set's
// fixture. quick mode uses shorter measurement windows (for tests); full
// mode gives steadier numbers for reports.
func MeasureCPU(quick bool) (CPUMeasurements, error) {
	window := 400 * time.Millisecond
	if quick {
		window = 40 * time.Millisecond
	}
	rates := map[string]map[string]float64{}
	for _, spec := range ckks.StandardSets {
		f, err := NewFixture(spec)
		if err != nil {
			return CPUMeasurements{}, err
		}
		for _, ops := range [][]CPUOp{Table7Ops, Table8Ops} {
			for _, op := range ops {
				r, err := opsPerSec(window, func() error { return op.Run(f) })
				if err != nil {
					return CPUMeasurements{}, fmt.Errorf("bench: %s %s: %w", spec.Name, op.Name, err)
				}
				if rates[op.Name] == nil {
					rates[op.Name] = map[string]float64{}
				}
				rates[op.Name][spec.Name] = r
			}
		}
	}
	return CPUMeasurements{
		NTT: rates["NTT"], INTT: rates["INTT"], Dyadic: rates["Dyadic"],
		KeySwitch: rates["KeySwitch"], MulRelin: rates["MulRelin"],
	}, nil
}

func randomPoly(ctx *ring.Context, rows int, rng *rand.Rand) *ring.Poly {
	p := ctx.NewPoly(rows)
	for i := 0; i < rows; i++ {
		prime := ctx.Basis.Primes[i]
		for j := range p.Coeffs[i] {
			p.Coeffs[i][j] = rng.Uint64() % prime
		}
	}
	return p
}

func randomCiphertext(params *ckks.Params, rng *rand.Rand) *ckks.Ciphertext {
	rows := params.K()
	return &ckks.Ciphertext{
		Polys: []*ring.Poly{randomPoly(params.RingQP, rows, rng), randomPoly(params.RingQP, rows, rng)},
		Scale: params.DefaultScale(),
		Level: params.MaxLevel(),
	}
}

// opsPerSec runs f once to warm up, then repeatedly for at least the
// window, and returns the rate.
func opsPerSec(window time.Duration, f func() error) (float64, error) {
	if err := f(); err != nil {
		return 0, err
	}
	start := time.Now()
	n := 0
	for time.Since(start) < window {
		if err := f(); err != nil {
			return 0, err
		}
		n++
	}
	return float64(n) / time.Since(start).Seconds(), nil
}
