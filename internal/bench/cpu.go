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
// the comparison shape is what must hold.)
type CPUMeasurements struct {
	NTT, INTT, Dyadic, KeySwitch, MulRelin map[string]float64
}

// MeasureCPU times the baseline for every Table 2 set. quick mode uses
// shorter measurement windows (for tests); full mode gives steadier
// numbers for reports.
func MeasureCPU(quick bool) (CPUMeasurements, error) {
	window := 400 * time.Millisecond
	if quick {
		window = 40 * time.Millisecond
	}
	m := CPUMeasurements{
		NTT: map[string]float64{}, INTT: map[string]float64{}, Dyadic: map[string]float64{},
		KeySwitch: map[string]float64{}, MulRelin: map[string]float64{},
	}
	for _, spec := range ckks.StandardSets {
		params, err := ckks.NewParams(spec)
		if err != nil {
			return m, fmt.Errorf("bench: %s: %w", spec.Name, err)
		}
		kg := ckks.NewKeyGenerator(params, 1)
		sk := kg.GenSecretKey()
		rlk := kg.GenRelinearizationKey(sk)
		eval := ckks.NewEvaluator(params)
		ctx := params.RingQP
		rng := rand.New(rand.NewSource(2))

		// Low-level ops are per single residue polynomial, as in Table 7.
		tb := ctx.Tables[0]
		poly := make([]uint64, params.N)
		for i := range poly {
			poly[i] = rng.Uint64() % tb.Mod.P
		}
		m.NTT[spec.Name] = opsPerSec(window, func() { tb.Forward(poly) })
		m.INTT[spec.Name] = opsPerSec(window, func() { tb.Inverse(poly) })

		a := append([]uint64(nil), poly...)
		out := make([]uint64, params.N)
		m.Dyadic[spec.Name] = opsPerSec(window, func() { ctx.MulCoeffsRow(a, poly, out, 0) })

		// High-level ops (Table 8) at the top level.
		c := randomPoly(ctx, params.K(), rng)
		m.KeySwitch[spec.Name] = opsPerSec(window, func() {
			eval.KeySwitchPoly(c, &rlk.SwitchingKey)
		})

		ct1 := randomCiphertext(params, rng)
		ct2 := randomCiphertext(params, rng)
		m.MulRelin[spec.Name] = opsPerSec(window, func() {
			if _, err := eval.MulRelin(ct1, ct2, rlk); err != nil {
				panic(err)
			}
		})
	}
	return m, nil
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

// opsPerSec runs f repeatedly for at least the window and returns the
// rate.
func opsPerSec(window time.Duration, f func()) float64 {
	// Warm up once.
	f()
	start := time.Now()
	n := 0
	for time.Since(start) < window {
		f()
		n++
	}
	return float64(n) / time.Since(start).Seconds()
}
