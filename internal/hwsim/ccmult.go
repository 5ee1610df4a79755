package hwsim

import (
	"fmt"

	"heax/internal/core"
	"heax/internal/ring"
)

// This file simulates the MULT module's full homomorphic multiplication
// mode (Section 4.1): a C-C (or C-P) multiply between ciphertexts of α
// and β components produces α+β−1 components, computed as all pairwise
// dyadic products per RNS row — with the BRAM layout that keeps data
// transfer at O((α+β)·n) words instead of O((α·β+min(α,β))·n).

// CCMultResult carries the product components and the module's cycle
// cost.
type CCMultResult struct {
	Polys  []*ring.Poly
	Cycles int64
}

// SimulateCCMult multiplies two NTT-form ciphertext component vectors on
// a MULT module with nc dyadic cores. All component polynomials must
// share one level.
func SimulateCCMult(ctx *ring.Context, nc int, a, b []*ring.Poly) (*CCMultResult, error) {
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
	return &CCMultResult{Polys: out, Cycles: cycles}, nil
}

// CCMultTransferWords quantifies the Section 4.1 memory-layout tradeoff
// for one RNS component: HEAX allocates α+β polynomial memories, so the
// host transfers (α+β)·n words; the minimum-BRAM alternative (one residue
// of each ciphertext at a time) would transfer (α·β+min(α,β))·n words.
func CCMultTransferWords(alpha, beta, n int) (heax, minBRAM int) {
	m := alpha
	if beta < m {
		m = beta
	}
	return (alpha + beta) * n, (alpha*beta + m) * n
}

// SimulateRotation runs a full homomorphic rotation on the simulated
// hardware: the Galois permutation is pure addressing (applied while
// reading BRAM, costing no datapath cycles), followed by the KeySwitch
// pipeline on the permuted c1 and the final addition into c0.
func SimulateRotation(ctx *ring.Context, arch core.KeySwitchArch, c0, c1 *ring.Poly, auto *ring.Automorphism, digits [][2]*ring.Poly) (r0, r1 *ring.Poly, err error) {
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
