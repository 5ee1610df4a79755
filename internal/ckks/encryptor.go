package ckks

import (
	"fmt"

	"heax/internal/ring"
)

// Ciphertext is a vector of RNS polynomials in NTT form with a scale and a
// level. Fresh ciphertexts have two components; an unrelinearized product
// has three (Section 3.4).
type Ciphertext struct {
	Polys []*ring.Poly
	Scale float64
	Level int
}

// Degree returns the number of components minus one (1 for fresh, 2 for
// an unrelinearized product).
func (ct *Ciphertext) Degree() int { return len(ct.Polys) - 1 }

// CopyOf deep-copies a ciphertext.
func CopyOf(ct *Ciphertext) *Ciphertext {
	out := &Ciphertext{Scale: ct.Scale, Level: ct.Level}
	out.Polys = make([]*ring.Poly, len(ct.Polys))
	for i, p := range ct.Polys {
		out.Polys[i] = ring.CopyOf(p)
	}
	return out
}

// Encryptor encrypts plaintexts under a public key (CKKS.Enc) or directly
// under the secret key (SymEnc).
type Encryptor struct {
	params  *Params
	sampler *ring.Sampler
	pk      *PublicKey
	sk      *SecretKey
}

// NewEncryptor builds a public-key encryptor.
func NewEncryptor(params *Params, pk *PublicKey, seed int64) *Encryptor {
	return &Encryptor{params: params, sampler: ring.NewSampler(params.RingQP, seed), pk: pk}
}

// NewSymmetricEncryptor builds a secret-key encryptor.
func NewSymmetricEncryptor(params *Params, sk *SecretKey, seed int64) *Encryptor {
	return &Encryptor{params: params, sampler: ring.NewSampler(params.RingQP, seed), sk: sk}
}

// Encrypt encrypts a plaintext. Public-key encryption follows the paper:
// (c0', c1') = u·(b, a) + (e0, e1) over QP, then ct = (m, 0) +
// ⌊(c0', c1')/P⌉ over Q. Symmetric encryption is ct = (m - a·s + e, a)
// over Q directly.
func (e *Encryptor) Encrypt(pt *Plaintext) (*Ciphertext, error) {
	if pt.Level() != e.params.MaxLevel() {
		return nil, fmt.Errorf("ckks: encryption requires a top-level plaintext (level %d, got %d): %w",
			e.params.MaxLevel(), pt.Level(), ErrLevelMismatch)
	}
	if e.pk != nil {
		return e.encryptPk(pt), nil
	}
	if e.sk != nil {
		return e.encryptSym(pt), nil
	}
	return nil, fmt.Errorf("ckks: encryptor has no key")
}

func (e *Encryptor) encryptPk(pt *Plaintext) *Ciphertext {
	ctx := e.params.RingQP
	rows := e.params.QPRows()
	u, e0, e1 := ctx.GetPolyNoZero(rows), ctx.GetPolyNoZero(rows), ctx.GetPolyNoZero(rows)
	c0, c1 := ctx.GetPolyNoZero(rows), ctx.GetPolyNoZero(rows)
	e.sampler.TernaryInto(u)
	e.sampler.ErrorInto(e0)
	e.sampler.ErrorInto(e1)
	ctx.NTT(u)
	ctx.NTT(e0)
	ctx.NTT(e1)
	ctx.MulCoeffsPair(e.pk.B, e.pk.A, u, c0, c1)

	// ct = (m, 0) + ⌊(u·b + e0, u·a + e1)/P⌉ over Q: at the top level the
	// QP rows are exactly (q_0..q_L, P), so the floor drops the last row,
	// and both additions ride in its chain.
	c0q, c1q := ctx.NewPolyPair(rows - 1)
	ch := ctx.FloorChain()
	ch.Add(c0, c1)
	ch.Add(e0, e1)
	ch.Floor(e.params.SpecialRow(), true)
	ch.Add(pt.Value, nil)
	ch.Close(c0q, c1q)
	ctx.PutPoly(u)
	ctx.PutPoly(e0)
	ctx.PutPoly(e1)
	ctx.PutPoly(c0)
	ctx.PutPoly(c1)
	return &Ciphertext{Polys: []*ring.Poly{c0q, c1q}, Scale: pt.Scale, Level: pt.Level()}
}

func (e *Encryptor) encryptSym(pt *Plaintext) *Ciphertext {
	ctx := e.params.RingQP
	rows := pt.Level() + 1
	c0, a := ctx.NewPolyPair(rows)
	e.sampler.UniformInto(a)
	err := ctx.GetPolyNoZero(rows)
	e.sampler.ErrorInto(err)
	ctx.NTT(err)
	ctx.MulCoeffs(a, e.sk.Value.Resize(rows), c0)
	ctx.Sub(err, c0, c0) // c0 = e - a·s
	ctx.Add(c0, pt.Value, c0)
	ctx.PutPoly(err)
	return &Ciphertext{Polys: []*ring.Poly{c0, a}, Scale: pt.Scale, Level: pt.Level()}
}

// Decryptor recovers plaintexts: m = c0 + c1·s (+ c2·s²) mod q_level
// (CKKS.Dec).
type Decryptor struct {
	params *Params
	sk     *SecretKey
	s2     *ring.Poly // cached s² over QP
}

// NewDecryptor builds a decryptor for sk.
func NewDecryptor(params *Params, sk *SecretKey) *Decryptor {
	ctx := params.RingQP
	s2 := ctx.NewPoly(params.QPRows())
	ctx.MulCoeffs(sk.Value, sk.Value, s2)
	return &Decryptor{params: params, sk: sk, s2: s2}
}

// Decrypt evaluates <ct, (1, s, s²)> at the ciphertext's level: each
// product c1·s (and c2·s²) goes into pooled scratch and is added to c0,
// fully reduced at every step.
func (d *Decryptor) Decrypt(ct *Ciphertext) (*Plaintext, error) {
	if ct.Degree() < 1 || ct.Degree() > 2 {
		return nil, fmt.Errorf("ckks: cannot decrypt degree-%d ciphertext", ct.Degree())
	}
	ctx := d.params.RingQP
	rows := ct.Level + 1
	out := ring.CopyOf(ct.Polys[0])
	prod := ctx.GetPolyNoZero(rows)
	defer ctx.PutPoly(prod)
	ctx.MulCoeffs(ct.Polys[1], d.sk.Value.Resize(rows), prod)
	ctx.Add(out, prod, out)
	if ct.Degree() == 2 {
		ctx.MulCoeffs(ct.Polys[2], d.s2.Resize(rows), prod)
		ctx.Add(out, prod, out)
	}
	return &Plaintext{Value: out, Scale: ct.Scale}, nil
}
