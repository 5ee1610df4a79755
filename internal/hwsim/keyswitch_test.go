package hwsim

import (
	"math/rand"
	"testing"

	"heax/internal/ckks"
	"heax/internal/core"
	"heax/internal/ring"
)

// hwSpec is HEAX-shaped (all primes < 2^52) but small enough for unit
// tests, and large enough (4 rows x 2^12 coefficients at the top level)
// that the evaluator's RunRows passes fan out there.
var hwSpec = ckks.ParamSpec{Name: "hw-test", LogN: 12, QBits: []int{43, 40, 40, 40}, PBits: 46, LogScale: 40}

func hwKit(t testing.TB) (*ckks.Params, *ckks.KeyGenerator, *ckks.SecretKey, *ckks.RelinearizationKey, *ckks.Evaluator) {
	t.Helper()
	params, err := ckks.NewParams(hwSpec)
	if err != nil {
		t.Fatal(err)
	}
	kg := ckks.NewKeyGenerator(params, 7)
	sk := kg.GenSecretKey()
	rlk := kg.GenRelinearizationKey(sk)
	return params, kg, sk, rlk, ckks.NewEvaluator(params)
}

// The hardware KeySwitch dataflow — an independent implementation of
// Algorithm 7 — must agree bit for bit with the software evaluator at
// every level, both when the evaluator runs its rows inline (one worker)
// and when it fans them out (three workers).
func TestKeySwitchSimMatchesEvaluator(t *testing.T) {
	params, _, _, rlk, eval := hwKit(t)
	arch := core.DeriveArch(core.BoardStratix10, core.ParamSet{Name: "hw", LogN: hwSpec.LogN, K: len(hwSpec.QBits)}, 8)
	ctx := params.RingQP

	rng := rand.New(rand.NewSource(11))
	for level := params.MaxLevel(); level >= 0; level-- {
		c := ctx.NewPoly(level + 1)
		for i := 0; i <= level; i++ {
			p := ctx.Basis.Primes[i]
			for j := range c.Coeffs[i] {
				c.Coeffs[i][j] = rng.Uint64() % p
			}
		}
		sim := NewKeySwitchSim(ctx, arch)
		wantKs0, wantKs1, err := sim.Run(ring.CopyOf(c), rlk.SwitchingKey.Digits)
		if err != nil {
			t.Fatal(err)
		}
		if sim.INTT0Cycles == 0 || sim.NTT0Cycles == 0 || sim.DyadCycles == 0 ||
			sim.INTT1Cycles == 0 || sim.NTT1Cycles == 0 || sim.MSCycles == 0 {
			t.Fatalf("level %d: some module did no work: %+v", level, sim)
		}
		for _, workers := range []int{1, 3} {
			eval.SetWorkers(workers)
			gotKs0, gotKs1 := eval.KeySwitchPoly(c, &rlk.SwitchingKey)
			if !gotKs0.Equal(wantKs0) || !gotKs1.Equal(wantKs1) {
				t.Fatalf("level %d workers %d: software KeySwitch differs from hardware", level, workers)
			}
		}
	}
}

// End to end through the scheme: relinearize a product with the hardware
// KeySwitch and decrypt correctly.
func TestHardwareRelinearizeEndToEnd(t *testing.T) {
	params, kg, sk, rlk, eval := hwKit(t)
	enc := ckks.NewEncoder(params)
	pk := kg.GenPublicKey(sk)
	encryptor := ckks.NewEncryptor(params, pk, 8)
	dec := ckks.NewDecryptor(params, sk)
	arch := core.DeriveArch(core.BoardStratix10, core.ParamSet{Name: "hw", LogN: hwSpec.LogN, K: len(hwSpec.QBits)}, 8)

	rng := rand.New(rand.NewSource(12))
	slots := params.Slots()
	values := make([]complex128, slots)
	for i := range values {
		values[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	pt, err := enc.Encode(values, params.MaxLevel(), params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := encryptor.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := eval.Mul(ct, ct)
	if err != nil {
		t.Fatal(err)
	}

	// Hardware path: keyswitch c2, then add to (c0, c1).
	sim := NewKeySwitchSim(params.RingQP, arch)
	ks0, ks1, err := sim.Run(prod.Polys[2], rlk.SwitchingKey.Digits)
	if err != nil {
		t.Fatal(err)
	}
	ctx := params.RingQP
	c0 := ring.CopyOf(prod.Polys[0])
	ctx.Add(c0, ks0, c0)
	c1 := ring.CopyOf(prod.Polys[1])
	ctx.Add(c1, ks1, c1)
	hwCt := &ckks.Ciphertext{Polys: []*ring.Poly{c0, c1}, Scale: prod.Scale, Level: prod.Level}

	decPt, err := dec.Decrypt(hwCt)
	if err != nil {
		t.Fatal(err)
	}
	got := enc.Decode(decPt)
	for i := range values {
		want := values[i] * values[i]
		if d := absC(got[i] - want); d > 1e-3 {
			t.Fatalf("slot %d: |%v - %v| = %g", i, got[i], want, d)
		}
	}
}

func absC(c complex128) float64 {
	re, im := real(c), imag(c)
	return re*re + im*im
}

// The per-module cycle counters of the functional simulation must match
// the closed forms the pipeline model uses.
func TestKeySwitchSimCycleAccounting(t *testing.T) {
	params, _, _, rlk, _ := hwKit(t)
	set := core.ParamSet{Name: "hw", LogN: hwSpec.LogN, K: len(hwSpec.QBits)}
	arch := core.DeriveArch(core.BoardStratix10, set, 8)
	ctx := params.RingQP
	n := params.N
	k := params.K()

	c := ctx.NewPoly(k) // top level
	sim := NewKeySwitchSim(ctx, arch)
	if _, _, err := sim.Run(c, rlk.SwitchingKey.Digits); err != nil {
		t.Fatal(err)
	}
	if want := int64(k * core.ModuleCycles(core.INTTModule, arch.NcINTT0, n)); sim.INTT0Cycles != want {
		t.Errorf("INTT0 cycles %d, want %d", sim.INTT0Cycles, want)
	}
	// k digits × k cross-modulus NTTs each.
	if want := int64(k * k * core.ModuleCycles(core.NTTModule, arch.NcNTT0, n)); sim.NTT0Cycles != want {
		t.Errorf("NTT0 cycles %d, want %d", sim.NTT0Cycles, want)
	}
	// k digits × (k+1) targets × 2 columns.
	if want := int64(k * (k + 1) * 2 * core.ModuleCycles(core.MULTModule, arch.NcDyad, n)); sim.DyadCycles != want {
		t.Errorf("Dyad cycles %d, want %d", sim.DyadCycles, want)
	}
	// Two bank sets: one INTT each, k NTT1s and k MS passes each.
	if want := int64(2 * core.ModuleCycles(core.INTTModule, arch.NcINTT1, n)); sim.INTT1Cycles != want {
		t.Errorf("INTT1 cycles %d, want %d", sim.INTT1Cycles, want)
	}
	if want := int64(2 * k * core.ModuleCycles(core.NTTModule, arch.NcNTT1, n)); sim.NTT1Cycles != want {
		t.Errorf("NTT1 cycles %d, want %d", sim.NTT1Cycles, want)
	}
	if want := int64(2 * k * core.ModuleCycles(core.MULTModule, arch.NcMS, n)); sim.MSCycles != want {
		t.Errorf("MS cycles %d, want %d", sim.MSCycles, want)
	}
}

func TestKeySwitchSimErrors(t *testing.T) {
	params, _, _, rlk, _ := hwKit(t)
	set := core.ParamSet{Name: "hw", LogN: hwSpec.LogN, K: len(hwSpec.QBits)}
	arch := core.DeriveArch(core.BoardStratix10, set, 8)
	ctx := params.RingQP
	sim := NewKeySwitchSim(ctx, arch)
	// A poly over the full QP basis leaves no special prime.
	full := ctx.NewPoly(params.QPRows())
	if _, _, err := sim.Run(full, rlk.SwitchingKey.Digits); err == nil {
		t.Error("full-basis poly should fail")
	}
	// Too few digits.
	c := ctx.NewPoly(params.K())
	if _, _, err := sim.Run(c, rlk.SwitchingKey.Digits[:1]); err == nil {
		t.Error("missing digits should fail")
	}
}
