package ckks

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// smallSpec is a fast Set-B-shaped parameter set for unit tests: same
// prime-chain structure, smaller ring. The rescaling primes match the
// scale (2^40) so that the scale stays put across a multiplication chain,
// as in standard CKKS modulus-chain design.
var smallSpec = ParamSpec{Name: "test", LogN: 10, QBits: []int{43, 40, 40, 40}, PBits: 46, LogScale: 40}

// testKit bundles everything a scheme test needs.
type testKit struct {
	params *Params
	enc    *Encoder
	kg     *KeyGenerator
	sk     *SecretKey
	pk     *PublicKey
	rlk    *RelinearizationKey
	encPk  *Encryptor
	encSk  *Encryptor
	dec    *Decryptor
	eval   *Evaluator
}

func newTestKit(t testing.TB, spec ParamSpec) *testKit {
	t.Helper()
	params, err := NewParams(spec)
	if err != nil {
		t.Fatal(err)
	}
	kg := NewKeyGenerator(params, 42)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	return &testKit{
		params: params,
		enc:    NewEncoder(params),
		kg:     kg,
		sk:     sk,
		pk:     pk,
		rlk:    kg.GenRelinearizationKey(sk),
		encPk:  NewEncryptor(params, pk, 43),
		encSk:  NewSymmetricEncryptor(params, sk, 44),
		dec:    NewDecryptor(params, sk),
		eval:   NewEvaluator(params),
	}
}

func randomComplex(rng *rand.Rand, n int, bound float64) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex((rng.Float64()*2-1)*bound, (rng.Float64()*2-1)*bound)
	}
	return v
}

func maxErr(got, want []complex128) float64 {
	m := 0.0
	for i := range want {
		if d := cmplx.Abs(got[i] - want[i]); d > m {
			m = d
		}
	}
	return m
}

func TestParamsPresets(t *testing.T) {
	for _, spec := range StandardSets {
		params, err := NewParams(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		wantN := 1 << spec.LogN
		if params.N != wantN {
			t.Errorf("%s: N = %d want %d", spec.Name, params.N, wantN)
		}
		// Table 2: total modulus bits and prime counts.
		wantBits := spec.PBits
		for _, b := range spec.QBits {
			wantBits += b
		}
		if got := params.TotalModulusBits(); got != wantBits {
			t.Errorf("%s: modulus bits = %d want %d", spec.Name, got, wantBits)
		}
		if params.K() != len(spec.QBits) {
			t.Errorf("%s: k = %d want %d", spec.Name, params.K(), len(spec.QBits))
		}
		// HEAX word-size constraint: all primes < 2^52.
		for _, p := range append(append([]uint64{}, params.Q...), params.P) {
			if p >= 1<<52 {
				t.Errorf("%s: prime %d violates the 52-bit constraint", spec.Name, p)
			}
		}
	}
}

func TestParamsErrors(t *testing.T) {
	if _, err := NewParams(ParamSpec{LogN: 1, QBits: []int{30}, PBits: 30}); err == nil {
		t.Error("tiny LogN should fail")
	}
	if _, err := NewParams(ParamSpec{LogN: 12, QBits: nil, PBits: 30}); err == nil {
		t.Error("empty QBits should fail")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	kit := newTestKit(t, smallSpec)
	rng := rand.New(rand.NewSource(1))
	values := randomComplex(rng, kit.params.Slots(), 1)
	pt, err := kit.enc.Encode(values, kit.params.MaxLevel(), kit.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	got := kit.enc.Decode(pt)
	if e := maxErr(got, values); e > 1e-7 {
		t.Fatalf("round-trip error %g too large", e)
	}
}

// The canonical embedding must be a ring homomorphism: multiplying
// plaintext polynomials multiplies slots.
func TestEncodeMultiplicative(t *testing.T) {
	kit := newTestKit(t, smallSpec)
	rng := rand.New(rand.NewSource(2))
	v1 := randomComplex(rng, kit.params.Slots(), 1)
	v2 := randomComplex(rng, kit.params.Slots(), 1)
	scale := kit.params.DefaultScale()
	pt1, err := kit.enc.Encode(v1, kit.params.MaxLevel(), scale)
	if err != nil {
		t.Fatal(err)
	}
	pt2, err := kit.enc.Encode(v2, kit.params.MaxLevel(), scale)
	if err != nil {
		t.Fatal(err)
	}
	ctx := kit.params.RingQP
	prod := ctx.NewPoly(kit.params.MaxLevel() + 1)
	ctx.MulCoeffs(pt1.Value, pt2.Value, prod)
	got := kit.enc.Decode(&Plaintext{Value: prod, Scale: scale * scale})
	want := make([]complex128, len(v1))
	for i := range want {
		want[i] = v1[i] * v2[i]
	}
	if e := maxErr(got, want); e > 1e-5 {
		t.Fatalf("slot-wise product error %g too large", e)
	}
}

// Applying the Galois automorphism with element 5^r to a plaintext must
// rotate slots left by r.
func TestEncoderRotationSemantics(t *testing.T) {
	kit := newTestKit(t, smallSpec)
	rng := rand.New(rand.NewSource(3))
	slots := kit.params.Slots()
	values := randomComplex(rng, slots, 1)
	scale := kit.params.DefaultScale()
	pt, err := kit.enc.Encode(values, kit.params.MaxLevel(), scale)
	if err != nil {
		t.Fatal(err)
	}
	ctx := kit.params.RingQP
	for _, step := range []int{1, 2, 5} {
		g := ctxGalois(kit, step)
		out := ctx.NewPoly(pt.Value.Rows())
		ctx.AutomorphismNTT(pt.Value, ctx.AutomorphismNTTTable(g), out)
		got := kit.enc.Decode(&Plaintext{Value: out, Scale: scale})
		want := make([]complex128, slots)
		for i := range want {
			want[i] = values[(i+step)%slots]
		}
		if e := maxErr(got, want); e > 1e-7 {
			t.Fatalf("step %d: rotation error %g", step, e)
		}
	}
}

func ctxGalois(kit *testKit, step int) uint64 {
	m := uint64(2 * kit.params.N)
	g := uint64(1)
	for i := 0; i < step; i++ {
		g = g * 5 % m
	}
	return g
}

func TestEncryptDecryptPk(t *testing.T) {
	kit := newTestKit(t, smallSpec)
	rng := rand.New(rand.NewSource(4))
	values := randomComplex(rng, kit.params.Slots(), 1)
	pt, err := kit.enc.Encode(values, kit.params.MaxLevel(), kit.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := kit.encPk.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := kit.dec.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	got := kit.enc.Decode(dec)
	if e := maxErr(got, values); e > 1e-4 {
		t.Fatalf("public-key enc/dec error %g too large", e)
	}
}

func TestEncryptDecryptSym(t *testing.T) {
	kit := newTestKit(t, smallSpec)
	rng := rand.New(rand.NewSource(5))
	values := randomComplex(rng, kit.params.Slots(), 1)
	pt, err := kit.enc.Encode(values, kit.params.MaxLevel(), kit.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := kit.encSk.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := kit.dec.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	got := kit.enc.Decode(dec)
	if e := maxErr(got, values); e > 1e-5 {
		t.Fatalf("symmetric enc/dec error %g too large", e)
	}
}

func TestHomomorphicAddSub(t *testing.T) {
	kit := newTestKit(t, smallSpec)
	rng := rand.New(rand.NewSource(6))
	v1 := randomComplex(rng, kit.params.Slots(), 1)
	v2 := randomComplex(rng, kit.params.Slots(), 1)
	scale := kit.params.DefaultScale()
	level := kit.params.MaxLevel()
	pt1, _ := kit.enc.Encode(v1, level, scale)
	pt2, _ := kit.enc.Encode(v2, level, scale)
	ct1, _ := kit.encPk.Encrypt(pt1)
	ct2, _ := kit.encPk.Encrypt(pt2)

	sum, err := kit.eval.Add(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	dec, _ := kit.dec.Decrypt(sum)
	got := kit.enc.Decode(dec)
	want := make([]complex128, len(v1))
	for i := range want {
		want[i] = v1[i] + v2[i]
	}
	if e := maxErr(got, want); e > 1e-4 {
		t.Fatalf("add error %g", e)
	}

	diff, err := kit.eval.Sub(sum, ct2)
	if err != nil {
		t.Fatal(err)
	}
	dec2, _ := kit.dec.Decrypt(diff)
	got2 := kit.enc.Decode(dec2)
	if e := maxErr(got2, v1); e > 1e-4 {
		t.Fatalf("sub error %g", e)
	}
}

func TestAddScaleMismatchFails(t *testing.T) {
	kit := newTestKit(t, smallSpec)
	values := []complex128{1}
	pt1, _ := kit.enc.Encode(values, kit.params.MaxLevel(), kit.params.DefaultScale())
	pt2, _ := kit.enc.Encode(values, kit.params.MaxLevel(), kit.params.DefaultScale()*2)
	ct1, _ := kit.encPk.Encrypt(pt1)
	ct2, _ := kit.encPk.Encrypt(pt2)
	if _, err := kit.eval.Add(ct1, ct2); err == nil {
		t.Fatal("adding mismatched scales should fail")
	}
}

func TestMulRelinRescale(t *testing.T) {
	mulRelinRescale(t, smallSpec)
	mulRelinRescale(t, mixedSpec) // scalar and IFMA rows in one key switch
}

func mulRelinRescale(t *testing.T, spec ParamSpec) {
	kit := newTestKit(t, spec)
	rng := rand.New(rand.NewSource(7))
	v1 := randomComplex(rng, kit.params.Slots(), 1)
	v2 := randomComplex(rng, kit.params.Slots(), 1)
	scale := kit.params.DefaultScale()
	level := kit.params.MaxLevel()
	pt1, _ := kit.enc.Encode(v1, level, scale)
	pt2, _ := kit.enc.Encode(v2, level, scale)
	ct1, _ := kit.encPk.Encrypt(pt1)
	ct2, _ := kit.encPk.Encrypt(pt2)

	prod, err := kit.eval.Mul(ct1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	if prod.Degree() != 2 {
		t.Fatalf("product degree = %d, want 2", prod.Degree())
	}
	// Degree-2 decryption must already hold.
	want := make([]complex128, len(v1))
	for i := range want {
		want[i] = v1[i] * v2[i]
	}
	dec3, _ := kit.dec.Decrypt(prod)
	got3 := kit.enc.Decode(dec3)
	if e := maxErr(got3, want); e > 1e-3 {
		t.Fatalf("degree-2 decrypt error %g", e)
	}

	relin, err := kit.eval.Relinearize(prod, kit.rlk)
	if err != nil {
		t.Fatal(err)
	}
	if relin.Degree() != 1 {
		t.Fatalf("relinearized degree = %d", relin.Degree())
	}
	decR, _ := kit.dec.Decrypt(relin)
	gotR := kit.enc.Decode(decR)
	if e := maxErr(gotR, want); e > 1e-3 {
		t.Fatalf("relinearized decrypt error %g", e)
	}

	rescaled, err := kit.eval.Rescale(relin)
	if err != nil {
		t.Fatal(err)
	}
	if rescaled.Level != level-1 {
		t.Fatalf("rescaled level = %d, want %d", rescaled.Level, level-1)
	}
	wantScale := scale * scale / float64(kit.params.Q[level])
	if !scalesClose(rescaled.Scale, wantScale) {
		t.Fatalf("rescaled scale = %g, want %g", rescaled.Scale, wantScale)
	}
	decS, _ := kit.dec.Decrypt(rescaled)
	gotS := kit.enc.Decode(decS)
	if e := maxErr(gotS, want); e > 1e-3 {
		t.Fatalf("rescaled decrypt error %g", e)
	}
}

func TestMulDepthChain(t *testing.T) {
	kit := newTestKit(t, smallSpec)
	rng := rand.New(rand.NewSource(8))
	slots := kit.params.Slots()
	values := randomComplex(rng, slots, 1)
	scale := kit.params.DefaultScale()
	level := kit.params.MaxLevel()
	pt, _ := kit.enc.Encode(values, level, scale)
	ct, _ := kit.encPk.Encrypt(pt)

	// Square repeatedly until level 1: v, v^2, v^4, ...
	want := append([]complex128(nil), values...)
	cur := ct
	for cur.Level > 1 {
		sq, err := kit.eval.MulRelin(cur, cur, kit.rlk)
		if err != nil {
			t.Fatal(err)
		}
		cur, err = kit.eval.Rescale(sq)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			want[i] *= want[i]
		}
		dec, _ := kit.dec.Decrypt(cur)
		got := kit.enc.Decode(dec)
		if e := maxErr(got, want); e > 1e-2 {
			t.Fatalf("level %d: depth-chain error %g", cur.Level, e)
		}
	}
}

func TestRotation(t *testing.T) {
	rotation(t, smallSpec)
	rotation(t, mixedSpec) // scalar and IFMA rows in one key switch
}

func rotation(t *testing.T, spec ParamSpec) {
	kit := newTestKit(t, spec)
	rng := rand.New(rand.NewSource(9))
	slots := kit.params.Slots()
	values := randomComplex(rng, slots, 1)
	scale := kit.params.DefaultScale()
	pt, _ := kit.enc.Encode(values, kit.params.MaxLevel(), scale)
	ct, _ := kit.encPk.Encrypt(pt)

	steps := []int{1, 3, slots / 2}
	gks := kit.kg.GenGaloisKeySet(kit.sk, steps, true)
	for _, step := range steps {
		rot, err := kit.eval.RotateLeft(ct, step, gks)
		if err != nil {
			t.Fatal(err)
		}
		dec, _ := kit.dec.Decrypt(rot)
		got := kit.enc.Decode(dec)
		want := make([]complex128, slots)
		for i := range want {
			want[i] = values[(i+step)%slots]
		}
		if e := maxErr(got, want); e > 1e-3 {
			t.Fatalf("rotate %d: error %g", step, e)
		}
	}

	conj, err := kit.eval.ConjugateSlots(ct, gks)
	if err != nil {
		t.Fatal(err)
	}
	dec, _ := kit.dec.Decrypt(conj)
	got := kit.enc.Decode(dec)
	want := make([]complex128, slots)
	for i := range want {
		want[i] = cmplx.Conj(values[i])
	}
	if e := maxErr(got, want); e > 1e-3 {
		t.Fatalf("conjugate error %g", e)
	}
}

func TestRotateRight(t *testing.T) {
	kit := newTestKit(t, smallSpec)
	rng := rand.New(rand.NewSource(10))
	slots := kit.params.Slots()
	values := randomComplex(rng, slots, 1)
	pt, _ := kit.enc.Encode(values, kit.params.MaxLevel(), kit.params.DefaultScale())
	ct, _ := kit.encPk.Encrypt(pt)
	gks := kit.kg.GenGaloisKeySet(kit.sk, []int{-2}, false)
	rot, err := kit.eval.RotateRight(ct, 2, gks)
	if err != nil {
		t.Fatal(err)
	}
	dec, _ := kit.dec.Decrypt(rot)
	got := kit.enc.Decode(dec)
	want := make([]complex128, slots)
	for i := range want {
		want[i] = values[((i-2)%slots+slots)%slots]
	}
	if e := maxErr(got, want); e > 1e-3 {
		t.Fatalf("rotate right error %g", e)
	}
}

func TestRotationMissingKeyFails(t *testing.T) {
	kit := newTestKit(t, smallSpec)
	pt, _ := kit.enc.Encode([]complex128{1}, kit.params.MaxLevel(), kit.params.DefaultScale())
	ct, _ := kit.encPk.Encrypt(pt)
	gks := kit.kg.GenGaloisKeySet(kit.sk, []int{1}, false)
	if _, err := kit.eval.RotateLeft(ct, 7, gks); err == nil {
		t.Fatal("missing key should fail")
	}
	if _, err := kit.eval.ConjugateSlots(ct, gks); err == nil {
		t.Fatal("missing conjugation key should fail")
	}
	if _, err := kit.eval.RotateLeft(ct, 1, nil); err == nil {
		t.Fatal("nil key set should fail")
	}
}

func TestMulPlainAddPlain(t *testing.T) {
	kit := newTestKit(t, smallSpec)
	rng := rand.New(rand.NewSource(11))
	slots := kit.params.Slots()
	v := randomComplex(rng, slots, 1)
	w := randomComplex(rng, slots, 1)
	scale := kit.params.DefaultScale()
	level := kit.params.MaxLevel()
	ptV, _ := kit.enc.Encode(v, level, scale)
	ptW, _ := kit.enc.Encode(w, level, scale)
	ct, _ := kit.encPk.Encrypt(ptV)

	prod, err := kit.eval.MulPlain(ct, ptW)
	if err != nil {
		t.Fatal(err)
	}
	dec, _ := kit.dec.Decrypt(prod)
	got := kit.enc.Decode(dec)
	want := make([]complex128, slots)
	for i := range want {
		want[i] = v[i] * w[i]
	}
	if e := maxErr(got, want); e > 1e-3 {
		t.Fatalf("mul-plain error %g", e)
	}

	sum, err := kit.eval.AddPlain(ct, ptW)
	if err != nil {
		t.Fatal(err)
	}
	dec2, _ := kit.dec.Decrypt(sum)
	got2 := kit.enc.Decode(dec2)
	for i := range want {
		want[i] = v[i] + w[i]
	}
	if e := maxErr(got2, want); e > 1e-4 {
		t.Fatalf("add-plain error %g", e)
	}
}

func TestEvaluatorErrors(t *testing.T) {
	kit := newTestKit(t, smallSpec)
	pt, _ := kit.enc.Encode([]complex128{1}, kit.params.MaxLevel(), kit.params.DefaultScale())
	ct, _ := kit.encPk.Encrypt(pt)
	prod, _ := kit.eval.Mul(ct, ct)
	if _, err := kit.eval.Mul(prod, ct); err == nil {
		t.Error("Mul on degree-2 should fail")
	}
	if _, err := kit.eval.Relinearize(ct, kit.rlk); err == nil {
		t.Error("Relinearize on degree-1 should fail")
	}
	gks := kit.kg.GenGaloisKeySet(kit.sk, []int{1}, false)
	if _, err := kit.eval.RotateLeft(prod, 1, gks); err == nil {
		t.Error("rotating degree-2 should fail")
	}
	if _, err := kit.eval.RotateHoisted(prod, []int{1}, gks); !errors.Is(err, ErrDegreeMismatch) {
		t.Errorf("hoisted rotation of degree-2: got %v, want ErrDegreeMismatch", err)
	}
	low, _ := kit.eval.DropLevel(ct, 0)
	if _, err := kit.eval.Rescale(low); err == nil {
		t.Error("rescale at level 0 should fail")
	}
	if _, err := kit.eval.DropLevel(ct, 99); err == nil {
		t.Error("DropLevel above current should fail")
	}
}

func TestEncryptErrors(t *testing.T) {
	kit := newTestKit(t, smallSpec)
	ptLow, _ := kit.enc.Encode([]complex128{1}, 0, kit.params.DefaultScale())
	if _, err := kit.encPk.Encrypt(ptLow); !errors.Is(err, ErrLevelMismatch) {
		t.Errorf("encrypting a low-level plaintext: %v, want ErrLevelMismatch", err)
	}
	bad := &Encryptor{params: kit.params}
	pt, _ := kit.enc.Encode([]complex128{1}, kit.params.MaxLevel(), kit.params.DefaultScale())
	if _, err := bad.Encrypt(pt); err == nil {
		t.Error("keyless encryptor should fail")
	}
}

func TestEncoderErrors(t *testing.T) {
	kit := newTestKit(t, smallSpec)
	tooMany := make([]complex128, kit.params.Slots()+1)
	if _, err := kit.enc.Encode(tooMany, 0, 1); err == nil {
		t.Error("too many values should fail")
	}
	if _, err := kit.enc.Encode(nil, -1, 1); err == nil {
		t.Error("negative level should fail")
	}
	bad := []complex128{complex(math.Inf(1), 0)}
	if _, err := kit.enc.Encode(bad, 0, 1); err == nil {
		t.Error("non-finite values should fail")
	}
}

// Coefficients beyond 2^62 take the arbitrary-precision encoding path and
// must still round-trip (decode is big-int based already).
func TestEncodeHugeScale(t *testing.T) {
	kit := newTestKit(t, smallSpec)
	values := []complex128{complex(1.25, -0.5), complex(-3, 2)}
	scale := math.Exp2(100) // far beyond the int64 fast path
	pt, err := kit.enc.Encode(values, kit.params.MaxLevel(), scale)
	if err != nil {
		t.Fatal(err)
	}
	got := kit.enc.Decode(pt)
	if e := maxErr(got[:2], values); e > 1e-6 {
		t.Fatalf("huge-scale round-trip error %g", e)
	}
}

// TestEncodeConstMatchesEncode: EncodeConst skips Encode's transforms
// and must still come out bit for bit as Encode makes the constant
// vector — at scales from 2^9 to 2^50 and q_L, at the top and bottom
// level, on both sides of the word-sized fast path, and with the same
// verdict on a value Encode refuses.
func TestEncodeConstMatchesEncode(t *testing.T) {
	for _, spec := range []ParamSpec{SetA, SetC} {
		t.Run(spec.Name, func(t *testing.T) {
			params, err := NewParams(spec)
			if err != nil {
				t.Fatal(err)
			}
			enc := NewEncoder(params)
			rng := rand.New(rand.NewSource(27))
			vals := []float64{0, 1, -1, 0.5, -0.5, 1.5, 2.5, 1e-3, -7.25, 1 << 20, math.Pi,
				math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.SmallestNonzeroFloat64}
			for i := 0; i < 24; i++ {
				vals = append(vals, (rng.Float64()*2-1)*math.Exp2(float64(rng.Intn(40)-20)))
			}
			scales := []float64{1 << 9, 1 << 30, 1 << 40, 1 << 50, float64(params.Q[params.MaxLevel()])}
			for _, scale := range scales {
				edge := wordCoeffBound / scale
				cases := append(vals[:len(vals):len(vals)], math.Nextafter(edge, 0), edge, -math.Nextafter(edge, 0), 3*edge)
				for _, level := range []int{params.MaxLevel(), 0} {
					for _, v := range cases {
						got, gerr := enc.EncodeConst(v, level, scale)
						flat := make([]float64, params.Slots())
						for i := range flat {
							flat[i] = v
						}
						want, werr := enc.EncodeReal(flat, level, scale)
						if (gerr == nil) != (werr == nil) {
							t.Fatalf("v=%g scale=2^%.1f level %d: error %v, Encode %v", v, math.Log2(scale), level, gerr, werr)
						}
						if werr != nil {
							continue
						}
						if got.Scale != want.Scale || !got.Value.Equal(want.Value) {
							t.Fatalf("v=%g scale=2^%.1f level %d: EncodeConst differs from Encode", v, math.Log2(scale), level)
						}
					}
				}
			}
		})
	}
}

// Cross-level addition: after a rescale, operands at different levels can
// still be combined (the evaluator aligns levels).
func TestCrossLevelAdd(t *testing.T) {
	kit := newTestKit(t, smallSpec)
	rng := rand.New(rand.NewSource(12))
	slots := kit.params.Slots()
	v := randomComplex(rng, slots, 1)
	level := kit.params.MaxLevel()

	// Build a ciphertext at level-1 whose scale matches a fresh encoding
	// at the same scale.
	scale := float64(kit.params.Q[level]) // Δ = q_L so rescale lands on Δ·Δ/q_L = Δ
	ptV, err := kit.enc.Encode(v, level, scale)
	if err != nil {
		t.Fatal(err)
	}
	ct, _ := kit.encPk.Encrypt(ptV)
	sq, _ := kit.eval.MulRelin(ct, ct, kit.rlk)
	sqLow, _ := kit.eval.Rescale(sq)

	sum, err := kit.eval.Add(sqLow, ct)
	if err != nil {
		t.Fatal(err)
	}
	dec, _ := kit.dec.Decrypt(sum)
	got := kit.enc.Decode(dec)
	want := make([]complex128, slots)
	for i := range want {
		want[i] = v[i]*v[i] + v[i]
	}
	if e := maxErr(got, want); e > 1e-2 {
		t.Fatalf("cross-level add error %g", e)
	}
}
