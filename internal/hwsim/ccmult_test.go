package hwsim

import (
	"fmt"
	"math/rand"
	"testing"

	"heax/internal/ckks"
	"heax/internal/core"
	"heax/internal/ring"
)

// Hardware C-C multiplication must agree with the evaluator's Algorithm 5
// bit for bit, including the degree-2 × degree-1 generalization.
func TestSimulateCCMultMatchesEvaluator(t *testing.T) {
	params, _, _, _, eval := hwKit(t)
	ctx := params.RingQP
	rng := rand.New(rand.NewSource(40))

	ct1 := randomCtAt(params, rng, params.MaxLevel())
	ct2 := randomCtAt(params, rng, params.MaxLevel())
	want, err := eval.Mul(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := simulateCCMult(ctx, 16, ct1.Polys, ct2.Polys)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Polys) != 3 {
		t.Fatalf("components = %d, want 3", len(got.Polys))
	}
	for i := range got.Polys {
		if !got.Polys[i].Equal(want.Polys[i]) {
			t.Fatalf("component %d differs from evaluator", i)
		}
	}
	// Cycle cost: α·β products × rows × n/nc.
	n := params.N
	wantCycles := int64(2 * 2 * params.K() * core.ModuleCycles(core.MULTModule, 16, n))
	if got.Cycles != wantCycles {
		t.Fatalf("cycles %d, want %d", got.Cycles, wantCycles)
	}

	// Degree-2 × degree-1 (the "not relinearized yet" case of §4.1).
	d2 := &ckks.Ciphertext{Polys: want.Polys, Scale: want.Scale, Level: want.Level}
	got2, err := simulateCCMult(ctx, 16, d2.Polys, ct1.Polys)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2.Polys) != 4 {
		t.Fatalf("α=3,β=2 should give 4 components, got %d", len(got2.Polys))
	}
	// Oracle: out[t] = Σ_{i+j=t} a_i ⊙ b_j.
	prod := ctx.NewPoly(params.K())
	for tt := 0; tt < 4; tt++ {
		ref := ctx.NewPoly(params.K())
		for i := 0; i < 3; i++ {
			j := tt - i
			if j < 0 || j > 1 {
				continue
			}
			ctx.MulCoeffs(d2.Polys[i], ct1.Polys[j], prod)
			ctx.Add(ref, prod, ref)
		}
		if !got2.Polys[tt].Equal(ref) {
			t.Fatalf("α=3 component %d differs", tt)
		}
	}
}

// C-P multiplication is the β=1 special case of the MULT module
// (Section 4.1): it must agree with the evaluator's MulPlain.
func TestSimulateCPMultMatchesEvaluator(t *testing.T) {
	params, _, _, _, eval := hwKit(t)
	ctx := params.RingQP
	rng := rand.New(rand.NewSource(42))
	ct := randomCtAt(params, rng, params.MaxLevel())
	ptPoly := ctx.NewPoly(params.K())
	for i := range ptPoly.Coeffs {
		p := ctx.Basis.Primes[i]
		for j := range ptPoly.Coeffs[i] {
			ptPoly.Coeffs[i][j] = rng.Uint64() % p
		}
	}
	want, err := eval.MulPlain(ct, &ckks.Plaintext{Value: ptPoly, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := simulateCCMult(ctx, 16, ct.Polys, []*ring.Poly{ptPoly})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Polys) != 2 {
		t.Fatalf("C-P should keep 2 components, got %d", len(got.Polys))
	}
	for i := range got.Polys {
		if !got.Polys[i].Equal(want.Polys[i]) {
			t.Fatalf("C-P component %d differs", i)
		}
	}
}

func TestSimulateCCMultErrors(t *testing.T) {
	params, _, _, _, _ := hwKit(t)
	ctx := params.RingQP
	if _, err := simulateCCMult(ctx, 16, nil, nil); err == nil {
		t.Error("empty operands should fail")
	}
	a := []*ring.Poly{ctx.NewPoly(2)}
	b := []*ring.Poly{ctx.NewPoly(3)}
	if _, err := simulateCCMult(ctx, 16, a, b); err == nil {
		t.Error("level mismatch should fail")
	}
}

// Hardware rotation must agree with the software RotateLeft exactly.
func TestSimulateRotationMatchesEvaluator(t *testing.T) {
	params, kg, sk, _, eval := hwKit(t)
	ctx := params.RingQP
	rng := rand.New(rand.NewSource(41))
	arch := core.DeriveArch(core.BoardStratix10, core.ParamSet{Name: "hw", LogN: params.LogN, K: params.K()}, 8)

	enc := ckks.NewEncoder(params)
	encryptor := ckks.NewSymmetricEncryptor(params, sk, 42)
	values := make([]complex128, params.Slots())
	for i := range values {
		values[i] = complex(rng.Float64()*2-1, 0)
	}
	pt, err := enc.Encode(values, params.MaxLevel(), params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := encryptor.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}

	step := 2
	gks := kg.GenGaloisKeySet(sk, []int{step}, false)
	want, err := eval.RotateLeft(ct, step, gks)
	if err != nil {
		t.Fatal(err)
	}

	key := gks.Rotations[step]
	table := ctx.AutomorphismNTTTable(key.GaloisElt)
	r0, r1, err := simulateRotation(ctx, arch, ct.Polys[0], ct.Polys[1], table, key.SwitchingKey.Digits)
	if err != nil {
		t.Fatal(err)
	}
	if !r0.Equal(want.Polys[0]) || !r1.Equal(want.Polys[1]) {
		t.Fatal("hardware rotation differs from software")
	}
}

// The other Galois operations, against the same model, which runs no
// part of the evaluator's rotation kernel: conjugation under the
// conjugation key's element, rotations at every level below the top, and
// InnerSum as simulateRotation and ring addition round by round — each
// bit for bit, with the evaluator's rows inline and fanned out.
func TestSimulateGaloisOpsMatchEvaluator(t *testing.T) {
	params, kg, sk, _, eval := hwKit(t)
	ctx := params.RingQP
	rng := rand.New(rand.NewSource(43))
	arch := core.DeriveArch(core.BoardStratix10, core.ParamSet{Name: "hw", LogN: params.LogN, K: params.K()}, 8)
	gks := kg.GenGaloisKeySet(sk, []int{1, 2, 3, 4}, true)
	// simulate is one hardware rotation of ct under key.
	simulate := func(t *testing.T, ct *ckks.Ciphertext, key *ckks.GaloisKey) *ckks.Ciphertext {
		t.Helper()
		r0, r1, err := simulateRotation(ctx, arch, ct.Polys[0], ct.Polys[1], ctx.AutomorphismNTTTable(key.GaloisElt), key.SwitchingKey.Digits)
		if err != nil {
			t.Fatal(err)
		}
		return &ckks.Ciphertext{Polys: []*ring.Poly{r0, r1}, Scale: ct.Scale, Level: ct.Level}
	}
	check := func(t *testing.T, op string, want *ckks.Ciphertext, got func() (*ckks.Ciphertext, error)) {
		t.Helper()
		for _, workers := range []int{1, 3} {
			eval.SetWorkers(workers)
			ct, err := got()
			if err != nil {
				t.Fatal(err)
			}
			if ct.Level != want.Level || !ct.Polys[0].Equal(want.Polys[0]) || !ct.Polys[1].Equal(want.Polys[1]) {
				t.Fatalf("workers %d: software %s differs from hardware", workers, op)
			}
		}
	}

	t.Run("ConjugateSlots", func(t *testing.T) {
		ct := randomCtAt(params, rng, params.MaxLevel())
		check(t, "ConjugateSlots", simulate(t, ct, gks.Conjugate), func() (*ckks.Ciphertext, error) {
			return eval.ConjugateSlots(ct, gks)
		})
	})
	t.Run("RotateLeftBelowTop", func(t *testing.T) {
		for level := params.MaxLevel() - 1; level >= 0; level-- {
			ct := randomCtAt(params, rng, level)
			check(t, fmt.Sprintf("RotateLeft at level %d", level), simulate(t, ct, gks.Rotations[3]), func() (*ckks.Ciphertext, error) {
				return eval.RotateLeft(ct, 3, gks)
			})
		}
	})
	t.Run("InnerSum", func(t *testing.T) {
		for _, level := range []int{params.MaxLevel(), 1} {
			ct := randomCtAt(params, rng, level)
			want := ct
			for span := 4; span >= 1; span >>= 1 {
				rot := simulate(t, want, gks.Rotations[span])
				sum := &ckks.Ciphertext{Polys: []*ring.Poly{ctx.NewPoly(level + 1), ctx.NewPoly(level + 1)}, Scale: ct.Scale, Level: level}
				ctx.Add(want.Polys[0], rot.Polys[0], sum.Polys[0])
				ctx.Add(want.Polys[1], rot.Polys[1], sum.Polys[1])
				want = sum
			}
			check(t, fmt.Sprintf("InnerSum at level %d", level), want, func() (*ckks.Ciphertext, error) {
				return eval.InnerSum(ct, 8, gks)
			})
		}
	})
}

func randomCtAt(params *ckks.Params, rng *rand.Rand, level int) *ckks.Ciphertext {
	ctx := params.RingQP
	mk := func() *ring.Poly {
		p := ctx.NewPoly(level + 1)
		for i := range p.Coeffs {
			prime := ctx.Basis.Primes[i]
			for j := range p.Coeffs[i] {
				p.Coeffs[i][j] = rng.Uint64() % prime
			}
		}
		return p
	}
	return &ckks.Ciphertext{Polys: []*ring.Poly{mk(), mk()}, Scale: params.DefaultScale(), Level: level}
}

// ccMultResult carries the product components and the module's cycle
// cost.
type ccMultResult struct {
	Polys  []*ring.Poly
	Cycles int64
}

// simulateCCMult is the MULT module's full homomorphic multiplication
// mode (Section 4.1): a C-C (or C-P) multiply between NTT-form
// ciphertexts of α and β components produces α+β−1 components, all
// pairwise dyadic products per RNS row on a module with nc dyadic cores.
func simulateCCMult(ctx *ring.Context, nc int, a, b []*ring.Poly) (*ccMultResult, error) {
	if len(a) == 0 || len(b) == 0 {
		return nil, fmt.Errorf("hwsim: empty operand")
	}
	rows := a[0].Rows()
	for _, p := range append(append([]*ring.Poly{}, a...), b...) {
		if p.Rows() != rows {
			return nil, fmt.Errorf("hwsim: operand level mismatch")
		}
	}
	alpha, beta := len(a), len(b)
	out := make([]*ring.Poly, alpha+beta-1)
	for t := range out {
		out[t] = ctx.NewPoly(rows)
	}
	var cycles int64
	for i := 0; i < rows; i++ {
		sim, err := NewMULTModuleSim(ctx.Basis.Primes[i], nc)
		if err != nil {
			return nil, err
		}
		for ai := 0; ai < alpha; ai++ {
			for bi := 0; bi < beta; bi++ {
				sim.DyadicAcc(a[ai].Coeffs[i], b[bi].Coeffs[i], out[ai+bi].Coeffs[i])
			}
		}
		cycles += sim.Cycles
	}
	return &ccMultResult{Polys: out, Cycles: cycles}, nil
}

// simulateRotation runs a full homomorphic rotation on the simulated
// hardware: the Galois permutation is pure addressing (applied while
// reading BRAM, costing no datapath cycles), followed by the KeySwitch
// pipeline on the permuted c1 and the final addition into c0.
func simulateRotation(ctx *ring.Context, arch core.KeySwitchArch, c0, c1 *ring.Poly, auto *ring.Automorphism, digits [][2]*ring.Poly) (r0, r1 *ring.Poly, err error) {
	rows := c0.Rows()
	c0g := ctx.NewPoly(rows)
	c1g := ctx.NewPoly(rows)
	ctx.AutomorphismNTT(c0, auto, c0g)
	ctx.AutomorphismNTT(c1, auto, c1g)
	sim := NewKeySwitchSim(ctx, arch)
	ks0, ks1, err := sim.Run(c1g, digits)
	if err != nil {
		return nil, nil, err
	}
	ctx.Add(c0g, ks0, c0g)
	return c0g, ks1, nil
}
