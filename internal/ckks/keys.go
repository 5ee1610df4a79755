package ckks

import (
	"fmt"

	"heax/internal/ring"
	"heax/internal/uintmod"
)

// SecretKey is s ← χ in NTT form over the full QP basis.
type SecretKey struct {
	Value *ring.Poly
}

// PublicKey is pk = (b, a) = SymEnc(0, s) over QP in NTT form.
type PublicKey struct {
	B, A *ring.Poly
}

// SwitchingKey is ksk = (D0 | D1) of Section 3.4: one digit per
// ciphertext prime, each digit a pair of polynomials over the full QP
// basis in NTT form. Digit i encrypts g_i·s' where the RNS gadget g_i is
// P·π_i·[π_i^{-1}]_{p_i}: congruent to P modulo p_i and to 0 modulo every
// other prime (including P itself).
type SwitchingKey struct {
	// Digits[i] = (d_{i,0}, d_{i,1}).
	Digits [][2]*ring.Poly
}

// RelinearizationKey switches s^2 → s (CKKS.RlkGen).
type RelinearizationKey struct {
	SwitchingKey
}

// GaloisKey switches s(X^g) → s for one Galois element (CKKS.GlkGen).
type GaloisKey struct {
	SwitchingKey
	GaloisElt uint64
}

// GaloisKeySet holds rotation keys by step plus an optional conjugation
// key.
type GaloisKeySet struct {
	Rotations map[int]*GaloisKey
	Conjugate *GaloisKey
}

// KeyGenerator derives all key material from a sampler and parameters.
type KeyGenerator struct {
	params  *Params
	sampler *ring.Sampler
}

// NewKeyGenerator creates a deterministic key generator (the seed fixes
// all randomness, which the tests rely on).
func NewKeyGenerator(params *Params, seed int64) *KeyGenerator {
	return &KeyGenerator{
		params:  params,
		sampler: ring.NewSampler(params.RingQP, seed),
	}
}

// GenSecretKey samples s ← χ (ternary) and stores it in NTT form.
func (kg *KeyGenerator) GenSecretKey() *SecretKey {
	s := kg.params.RingQP.NewPoly(kg.params.QPRows())
	kg.sampler.TernaryInto(s)
	kg.params.RingQP.NTT(s)
	return &SecretKey{Value: s}
}

// GenPublicKey returns pk = (-a·s + e, a) over QP.
func (kg *KeyGenerator) GenPublicKey(sk *SecretKey) *PublicKey {
	ctx := kg.params.RingQP
	rows := kg.params.QPRows()
	b, a := ctx.NewPolyPair(rows)
	kg.sampler.UniformInto(a)
	e := ctx.GetPolyNoZero(rows)
	kg.sampler.ErrorInto(e)
	ctx.NTT(e)
	ctx.MulCoeffs(a, sk.Value, b)
	ctx.Sub(e, b, b) // b = e - a·s
	ctx.PutPoly(e)
	return &PublicKey{B: b, A: a}
}

// genSwitchingKey implements KskGen(s', s): for each digit i,
// (d_{i,0}, d_{i,1}) = (-a_i·s + e_i + g_i·s', a_i) over QP. Because
// g_i ≡ P (mod p_i) and ≡ 0 elsewhere, adding g_i·s' touches only RNS row
// i, where it adds [P]_{p_i}·s'.
func (kg *KeyGenerator) genSwitchingKey(sPrime, s *ring.Poly) SwitchingKey {
	ctx := kg.params.RingQP
	rows := kg.params.QPRows()
	digits := make([][2]*ring.Poly, kg.params.K())
	e := ctx.GetPolyNoZero(rows)
	for i := range digits {
		d0, a := ctx.NewPolyPair(rows)
		kg.sampler.UniformInto(a)
		kg.sampler.ErrorInto(e)
		ctx.NTT(e)
		ctx.MulCoeffs(a, s, d0)
		ctx.Sub(e, d0, d0) // d0 = e - a·s
		// Add g_i·s' on row i only.
		pi := ctx.Basis.Primes[i]
		pModPi := ctx.Basis.Mods[i].Reduce(kg.params.P)
		pShoup := uintmod.ShoupPrecomp(pModPi, pi)
		row := d0.Coeffs[i]
		sp := sPrime.Coeffs[i]
		for j := range row {
			row[j] = uintmod.AddMod(row[j], uintmod.MulRed(sp[j], pModPi, pShoup, pi), pi)
		}
		digits[i] = [2]*ring.Poly{d0, a}
	}
	ctx.PutPoly(e)
	return SwitchingKey{Digits: digits}
}

// GenSwitchingKey returns the key that re-encrypts ciphertexts under
// skFrom to ciphertexts under skTo (generic KskGen(s_from, s_to) — the
// primitive behind relinearization, rotation, and key rotation/re-keying
// in a multi-tenant cloud).
func (kg *KeyGenerator) GenSwitchingKey(skFrom, skTo *SecretKey) *SwitchingKey {
	swk := kg.genSwitchingKey(skFrom.Value, skTo.Value)
	return &swk
}

// GenRelinearizationKey returns rlk = KskGen(s², s).
func (kg *KeyGenerator) GenRelinearizationKey(sk *SecretKey) *RelinearizationKey {
	ctx := kg.params.RingQP
	s2 := ctx.NewPoly(kg.params.QPRows())
	ctx.MulCoeffs(sk.Value, sk.Value, s2)
	return &RelinearizationKey{SwitchingKey: kg.genSwitchingKey(s2, sk.Value)}
}

// GenGaloisKey returns the key switching s(X^g) → s for the Galois
// element of the given rotation step (Section 3.4's GlkGen).
func (kg *KeyGenerator) GenGaloisKey(sk *SecretKey, step int) *GaloisKey {
	g := ring.GaloisElement(step, kg.params.N)
	return kg.genGaloisKeyForElt(sk, g)
}

// GenConjugationKey returns the key for complex conjugation (X → X^{2n-1}).
func (kg *KeyGenerator) GenConjugationKey(sk *SecretKey) *GaloisKey {
	return kg.genGaloisKeyForElt(sk, ring.GaloisConjugate(kg.params.N))
}

func (kg *KeyGenerator) genGaloisKeyForElt(sk *SecretKey, g uint64) *GaloisKey {
	ctx := kg.params.RingQP
	sG := ctx.NewPoly(kg.params.QPRows())
	ctx.AutomorphismNTT(sk.Value, ctx.AutomorphismNTTTable(g), sG)
	return &GaloisKey{SwitchingKey: kg.genSwitchingKey(sG, sk.Value), GaloisElt: g}
}

// GenGaloisKeySet generates rotation keys for the given steps and,
// optionally, the conjugation key. Steps are normalized into
// [0, Slots()) first — step and step−Slots() are the same slot
// permutation — so equivalent requests share one key and a step that
// normalizes to 0 (the identity) generates none.
func (kg *KeyGenerator) GenGaloisKeySet(sk *SecretKey, steps []int, conjugate bool) *GaloisKeySet {
	set := &GaloisKeySet{Rotations: make(map[int]*GaloisKey, len(steps))}
	for _, s := range steps {
		norm := kg.params.NormalizeRotation(s)
		if norm == 0 {
			continue
		}
		if _, ok := set.Rotations[norm]; ok {
			continue
		}
		set.Rotations[norm] = kg.GenGaloisKey(sk, norm)
	}
	if conjugate {
		set.Conjugate = kg.GenConjugationKey(sk)
	}
	return set
}

// rotationKey fetches the key for a step, with a helpful error. The
// step must already be normalized into [0, Slots()); evaluator call
// sites go through Evaluator.rotationKeyFor, which normalizes.
func (g *GaloisKeySet) rotationKey(step int) (*GaloisKey, error) {
	if g == nil {
		return nil, fmt.Errorf("ckks: no Galois keys provided: %w", ErrKeyMissing)
	}
	k, ok := g.Rotations[step]
	if !ok {
		return nil, fmt.Errorf("ckks: no Galois key for rotation step %d: %w", step, ErrKeyMissing)
	}
	return k, nil
}
