package heax_test

// Public-surface tests: the key-bound evaluator, the typed sentinel
// errors, and the zero-allocation *Into hot path — everything here
// imports only the public heax package, exactly as an out-of-tree
// program would.

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"

	"heax"
)

type apiKit struct {
	params    *heax.Params
	sk        *heax.SecretKey
	evk       *heax.EvaluationKeySet
	enc       *heax.Encoder
	encryptor *heax.Encryptor
	decryptor *heax.Decryptor
	eval      *heax.Evaluator
}

var (
	apiKitMu    sync.Mutex
	apiKitCache *apiKit
	apiKitProcs int // GOMAXPROCS when apiKitCache was built
)

// newAPIKit returns the shared kit, rebuilt when GOMAXPROCS has changed
// since it was built: a parameter set's worker cap is fixed when it is
// created, so under a -cpu list a kit kept from the first value would
// run every later one on that value's workers.
func newAPIKit(t testing.TB) *apiKit {
	t.Helper()
	apiKitMu.Lock()
	defer apiKitMu.Unlock()
	if apiKitCache != nil && apiKitProcs == runtime.GOMAXPROCS(0) {
		return apiKitCache
	}
	apiKitProcs = runtime.GOMAXPROCS(0)
	params, err := heax.NewParams(heax.SetB)
	if err != nil {
		t.Fatal(err)
	}
	kg := heax.NewKeyGenerator(params, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	evk := heax.GenEvaluationKeys(kg, sk, []int{1, 2}, true)
	k := &apiKit{
		params:    params,
		sk:        sk,
		evk:       evk,
		enc:       heax.NewEncoder(params),
		encryptor: heax.NewEncryptor(params, pk, 2),
		decryptor: heax.NewDecryptor(params, sk),
		eval:      heax.NewEvaluator(params, evk),
	}
	apiKitCache = k
	return k
}

func (k *apiKit) encrypt(t testing.TB, vals []float64) *heax.Ciphertext {
	t.Helper()
	pt, err := k.enc.EncodeReal(vals, k.params.MaxLevel(), k.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := k.encryptor.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func (k *apiKit) decodeReal(t testing.TB, ct *heax.Ciphertext, n int) []float64 {
	t.Helper()
	pt, err := k.decryptor.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	vals := k.enc.Decode(pt)
	out := make([]float64, n)
	for i := range out {
		out[i] = real(vals[i])
	}
	return out
}

func ctEqual(a, b *heax.Ciphertext) bool {
	if a.Level != b.Level || len(a.Polys) != len(b.Polys) {
		return false
	}
	for i := range a.Polys {
		if !a.Polys[i].Equal(b.Polys[i]) {
			return false
		}
	}
	return true
}

func TestSentinelErrors(t *testing.T) {
	k := newAPIKit(t)
	x := k.encrypt(t, []float64{1, 2, 3})
	y := k.encrypt(t, []float64{4, 5, 6})

	// Scale mismatch on addition.
	pt, err := k.enc.EncodeReal([]float64{1}, k.params.MaxLevel(), 2*k.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	odd, err := k.encryptor.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.eval.Add(x, odd); !errors.Is(err, heax.ErrScaleMismatch) {
		t.Fatalf("Add scale mismatch: got %v, want ErrScaleMismatch", err)
	}
	if err := k.eval.AddInto(x, odd, heax.CopyOf(x)); !errors.Is(err, heax.ErrScaleMismatch) {
		t.Fatalf("AddInto scale mismatch: got %v, want ErrScaleMismatch", err)
	}

	// Degree mismatch on Mul/MulRelin with a degree-2 operand.
	deg2, err := k.eval.Mul(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.eval.Mul(deg2, y); !errors.Is(err, heax.ErrDegreeMismatch) {
		t.Fatalf("Mul degree mismatch: got %v, want ErrDegreeMismatch", err)
	}
	if _, err := k.eval.MulRelin(deg2, y); !errors.Is(err, heax.ErrDegreeMismatch) {
		t.Fatalf("MulRelin degree mismatch: got %v, want ErrDegreeMismatch", err)
	}
	if _, err := k.eval.Relinearize(x); !errors.Is(err, heax.ErrDegreeMismatch) {
		t.Fatalf("Relinearize degree-1: got %v, want ErrDegreeMismatch", err)
	}
	if _, err := k.eval.RotateLeft(deg2, 1); !errors.Is(err, heax.ErrDegreeMismatch) {
		t.Fatalf("Rotate degree-2: got %v, want ErrDegreeMismatch", err)
	}
	if _, err := k.eval.RotateHoisted(deg2, []int{1, 2}); !errors.Is(err, heax.ErrDegreeMismatch) {
		t.Fatalf("RotateHoisted degree-2: got %v, want ErrDegreeMismatch", err)
	}

	// Level violations.
	bottom, err := k.eval.DropLevel(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.eval.Rescale(bottom); !errors.Is(err, heax.ErrLevelMismatch) {
		t.Fatalf("Rescale at level 0: got %v, want ErrLevelMismatch", err)
	}
	if _, err := k.eval.DropLevel(x, k.params.MaxLevel()+1); !errors.Is(err, heax.ErrLevelMismatch) {
		t.Fatalf("DropLevel out of range: got %v, want ErrLevelMismatch", err)
	}
	// An *Into output that cannot hold the result's level.
	small, err := k.eval.DropLevel(x, 0) // components back only 1 row
	if err != nil {
		t.Fatal(err)
	}
	if err := k.eval.AddInto(x, y, small); !errors.Is(err, heax.ErrLevelMismatch) {
		t.Fatalf("AddInto into too-small output: got %v, want ErrLevelMismatch", err)
	}
	// A RotateHoistedInto output that is the input, or is given twice,
	// is refused before anything is written: the input's c0, which every
	// step reads, would otherwise be overwritten by the first output.
	aliased, other := heax.CopyOf(x), heax.CopyOf(y)
	for name, outs := range map[string][]*heax.Ciphertext{"the input": {aliased, other}, "twice": {other, other}} {
		if err := k.eval.RotateHoistedInto(aliased, []int{1, 2}, outs); !errors.Is(err, heax.ErrLevelMismatch) {
			t.Fatalf("RotateHoistedInto with an output %s: got %v, want ErrLevelMismatch", name, err)
		}
		if !ctEqual(aliased, x) || !ctEqual(other, y) {
			t.Fatalf("a refused RotateHoistedInto (an output %s) wrote its outputs", name)
		}
	}

	// Missing keys.
	keyless := heax.NewEvaluator(k.params, nil)
	if _, err := keyless.MulRelin(x, y); !errors.Is(err, heax.ErrKeyMissing) {
		t.Fatalf("MulRelin without rlk: got %v, want ErrKeyMissing", err)
	}
	if _, err := keyless.RotateLeft(x, 1); !errors.Is(err, heax.ErrKeyMissing) {
		t.Fatalf("Rotate without Galois keys: got %v, want ErrKeyMissing", err)
	}
	if _, err := k.eval.RotateLeft(x, 999); !errors.Is(err, heax.ErrKeyMissing) {
		t.Fatalf("Rotate with missing step: got %v, want ErrKeyMissing", err)
	}
	if err := keyless.RotateInto(x, 1, heax.CopyOf(x)); !errors.Is(err, heax.ErrKeyMissing) {
		t.Fatalf("RotateInto without Galois keys: got %v, want ErrKeyMissing", err)
	}
	// Without Galois keys every rotation form copies at step 0 (an inner
	// sum at n2 = 1) and refuses step 1 (n2 = 2): the kernel asks for a
	// key only when the permutation is not the identity.
	forms := map[string]func(step int) (*heax.Ciphertext, error){
		"RotateLeft":  func(step int) (*heax.Ciphertext, error) { return keyless.RotateLeft(x, step) },
		"RotateRight": func(step int) (*heax.Ciphertext, error) { return keyless.RotateRight(x, step) },
		"RotateInto": func(step int) (*heax.Ciphertext, error) {
			out := heax.CopyOf(y)
			return out, keyless.RotateInto(x, step, out)
		},
		"InnerSum": func(step int) (*heax.Ciphertext, error) { return keyless.InnerSum(x, 1<<step) },
		"InnerSumInto": func(step int) (*heax.Ciphertext, error) {
			out := heax.CopyOf(y)
			return out, keyless.InnerSumInto(x, 1<<step, out)
		},
		"RotateHoisted": func(step int) (*heax.Ciphertext, error) {
			outs, err := keyless.RotateHoisted(x, []int{step, 0})
			return outs[step], err
		},
		"RotateHoistedInto": func(step int) (*heax.Ciphertext, error) {
			outs := []*heax.Ciphertext{heax.CopyOf(y), heax.CopyOf(y)}
			return outs[0], keyless.RotateHoistedInto(x, []int{step, 0}, outs)
		},
	}
	for name, rotate := range forms {
		got, err := rotate(0)
		if err != nil {
			t.Fatalf("keyless %s by 0: %v", name, err)
		}
		if !ctEqual(got, x) || got.Scale != x.Scale {
			t.Fatalf("keyless %s by 0 is not a copy of its input", name)
		}
		if _, err := rotate(1); !errors.Is(err, heax.ErrKeyMissing) {
			t.Fatalf("keyless %s by 1: got %v, want ErrKeyMissing", name, err)
		}
	}
}

// TestIntoMatchesAllocating pins the *Into variants to their allocating
// forms bit for bit, including output reuse across levels.
func TestIntoMatchesAllocating(t *testing.T) {
	k := newAPIKit(t)
	x := k.encrypt(t, []float64{1.5, -2.25, 3.5})
	y := k.encrypt(t, []float64{0.5, 4.0, -1.0})

	out, err := heax.NewCiphertext(k.params, 1, k.params.MaxLevel(), 0)
	if err != nil {
		t.Fatal(err)
	}

	want, err := k.eval.Add(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.eval.AddInto(x, y, out); err != nil {
		t.Fatal(err)
	}
	if !ctEqual(want, out) || out.Scale != want.Scale {
		t.Fatal("AddInto differs from Add")
	}

	want, err = k.eval.MulRelin(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.eval.MulRelinInto(x, y, out); err != nil {
		t.Fatal(err)
	}
	if !ctEqual(want, out) || out.Scale != want.Scale {
		t.Fatal("MulRelinInto differs from MulRelin")
	}

	// RescaleInto drops a level; the same output object then serves a
	// higher-level result again (reshape back up).
	prod := heax.CopyOf(out)
	want, err = k.eval.Rescale(prod)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.eval.RescaleInto(prod, out); err != nil {
		t.Fatal(err)
	}
	if !ctEqual(want, out) || out.Scale != want.Scale {
		t.Fatal("RescaleInto differs from Rescale")
	}

	want, err = k.eval.RotateLeft(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.eval.RotateInto(x, 1, out); err != nil {
		t.Fatal(err)
	}
	if !ctEqual(want, out) || out.Scale != want.Scale {
		t.Fatal("RotateInto differs from RotateLeft")
	}

	// In-place: out aliases an input.
	sum, err := k.eval.Add(x, y)
	if err != nil {
		t.Fatal(err)
	}
	aliased := heax.CopyOf(x)
	if err := k.eval.AddInto(aliased, y, aliased); err != nil {
		t.Fatal(err)
	}
	if !ctEqual(sum, aliased) {
		t.Fatal("aliased AddInto differs from Add")
	}

	// In-place rescale: RescaleInto(ct, ct) must match Rescale(ct).
	prod2, err := k.eval.MulRelin(x, y)
	if err != nil {
		t.Fatal(err)
	}
	wantRescaled, err := k.eval.Rescale(prod2)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.eval.RescaleInto(prod2, prod2); err != nil {
		t.Fatal(err)
	}
	if !ctEqual(wantRescaled, prod2) || prod2.Scale != wantRescaled.Scale {
		t.Fatal("in-place RescaleInto differs from Rescale")
	}
}

// TestIntoAllocations is the zero-steady-state-allocation gate of the
// serving loop: once pools are warm the dyadic *Into ops and a rotation
// must not allocate at all, and each other key-switching one at most
// twice per op (an InnerSum of four slots, two rounds, five times; a
// hoisted batch of three rotations three: its decomposition, that
// decomposition's digit list and its key list). The fused giant step of a compiled
// matvec allocates nothing either, and neither do the fused chains of a
// compiled circuit, whose one floor closes two or three divisions. Every
// op is judged on one measurement window.
func TestIntoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; alloc counts are not meaningful")
	}
	k := newAPIKit(t)
	x := k.encrypt(t, []float64{1, 2, 3})
	y := k.encrypt(t, []float64{4, 5, 6})
	out, err := heax.NewCiphertext(k.params, 1, k.params.MaxLevel(), 0)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := k.eval.MulRelin(x, y)
	if err != nil {
		t.Fatal(err)
	}
	res, err := heax.NewCiphertext(k.params, 1, k.params.MaxLevel()-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	low, err := k.eval.DropLevel(y, k.params.MaxLevel()-1)
	if err != nil {
		t.Fatal(err)
	}

	pt, err := k.enc.EncodeReal([]float64{7, 8, 9}, k.params.MaxLevel(), k.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	sq, err := k.eval.MulPlain(x, pt)
	if err != nil {
		t.Fatal(err)
	}
	// The row shape a Plan stores a block-constant multiplier in: one
	// value per 8-lane block.
	compact := &heax.Plaintext{Value: &heax.Poly{Coeffs: make([][]uint64, pt.Value.Rows())}, Scale: pt.Scale}
	for i, row := range pt.Value.Coeffs {
		compact.Value.Coeffs[i] = row[:len(row)/8]
	}
	// A compiled giant step: an unrotated bare addend and two rotated dot
	// products, one of them on a compact plaintext.
	sumCts, sumPts := []*heax.Ciphertext{sq, x, y}, []*heax.Plaintext{nil, pt, compact}
	sumEnds, sumKeys := []int{1, 2, 3}, []*heax.GaloisKey{nil, k.evk.Galois.Rotations[1], k.evk.Galois.Rotations[2]}
	// Chains: a lift by 2^9, a rescale, a constant and a rescale, after a
	// product, a plain value and a sum of rotations.
	lift, err := k.enc.EncodeConst(1, k.params.MaxLevel(), 512)
	if err != nil {
		t.Fatal(err)
	}
	half, err := k.enc.EncodeConst(0.5, k.params.MaxLevel(), k.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	chain := []heax.ChainStage{{Kind: heax.ChainMulPlain, Pt: lift}, {Kind: heax.ChainRescale}}
	if k.params.MaxLevel() > 1 {
		chain = append(chain, heax.ChainStage{Kind: heax.ChainMulPlain, Pt: half}, heax.ChainStage{Kind: heax.ChainRescale})
	}
	chained, err := heax.NewCiphertext(k.params, 1, k.params.MaxLevel(), 0)
	if err != nil {
		t.Fatal(err)
	}
	hoisted := make([]*heax.Ciphertext, 3)
	for i := range hoisted {
		if hoisted[i], err = heax.NewCiphertext(k.params, 1, k.params.MaxLevel(), 0); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name string
		max  float64
		fn   func() error
	}{
		{"AddInto", 0, func() error { return k.eval.AddInto(x, y, out) }},
		// x is read at low's level through one view.
		{"AddIntoTwoLevels", 1, func() error { return k.eval.AddInto(x, low, out) }},
		{"SubInto", 0, func() error { return k.eval.SubInto(x, y, out) }},
		{"MulPlainInto", 0, func() error { return k.eval.MulPlainInto(x, pt, out) }},
		{"MulPlainIntoCompact", 0, func() error { return k.eval.MulPlainInto(x, compact, out) }},
		{"MulRelinInto", 0, func() error { return k.eval.MulRelinInto(x, y, out) }},
		{"RescaleInto", 0, func() error { return k.eval.RescaleInto(prod, res) }},
		{"RotateInto", 0, func() error { return k.eval.RotateInto(x, 1, out) }},
		{"ConjugateSlotsInto", 2, func() error { return k.eval.ConjugateSlotsInto(x, out) }},
		{"InnerSumInto", 5, func() error { return k.eval.InnerSumInto(x, 4, out) }},
		{"RotateHoistedInto", 3, func() error { return k.eval.RotateHoistedInto(x, []int{1, 2, 1}, hoisted) }},
		{"RotateSumInto", 0, func() error { return heax.RotateSumInto(k.eval, sumCts, sumPts, sumEnds, sumKeys, out) }},
		{"MulRelinChainInto", 0, func() error { return heax.MulRelinChainInto(k.eval, x, y, chain, chained) }},
		{"RescaleChainInto", 0, func() error { return heax.RescaleChainInto(k.eval, x, chain, chained) }},
		{"RotateSumChainInto", 0, func() error {
			return heax.RotateSumChainInto(k.eval, sumCts, sumPts, sumEnds, sumKeys, chain, chained)
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// Warm the pools (and the cached automorphism tables).
			for i := 0; i < 3; i++ {
				if err := tc.fn(); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(10, func() {
				if err := tc.fn(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.max {
				t.Fatalf("%s: %.1f allocs/op, want <= %.0f", tc.name, allocs, tc.max)
			}
		})
	}
}

// TestSharedEvaluatorConcurrent hammers one shared Evaluator from four
// goroutines under the race detector: shared keys, parameters and
// pooled per-call state, all on the fused hot path.
func TestSharedEvaluatorConcurrent(t *testing.T) {
	k := newAPIKit(t)
	x := k.encrypt(t, []float64{1, 2, 3})
	y := k.encrypt(t, []float64{4, 5, 6})
	want, err := k.eval.MulRelin(x, y)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 4
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out, err := heax.NewCiphertext(k.params, 1, k.params.MaxLevel(), 0)
			if err != nil {
				errs[g] = err
				return
			}
			for i := 0; i < 8; i++ {
				if err := k.eval.MulRelinInto(x, y, out); err != nil {
					errs[g] = err
					return
				}
				if !ctEqual(want, out) {
					errs[g] = errors.New("concurrent MulRelinInto diverged")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestEvaluatorOptions checks that worker caps do not change results and
// stay scoped to the evaluator they were set on.
func TestEvaluatorOptions(t *testing.T) {
	k := newAPIKit(t)
	x := k.encrypt(t, []float64{0.25, -1.5})
	y := k.encrypt(t, []float64{2.0, 0.125})
	want, err := k.eval.MulRelin(x, y)
	if err != nil {
		t.Fatal(err)
	}

	serial := heax.NewEvaluator(k.params, k.evk, heax.WithWorkers(1))
	got, err := serial.MulRelin(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !ctEqual(want, got) {
		t.Fatal("WithWorkers(1) evaluator diverged from default")
	}
	// The cap is scoped to the evaluator it was set on: neither other
	// evaluators on the same Params nor fresh ones see it.
	if w := serial.Workers(); w != 1 {
		t.Fatalf("serial evaluator cap = %d, want 1", w)
	}
	if w := k.eval.Workers(); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("shared evaluator cap leaked: %d, want %d", w, runtime.GOMAXPROCS(0))
	}
	if w := heax.NewEvaluator(k.params, k.evk).Workers(); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("fresh evaluator cap leaked: %d, want %d", w, runtime.GOMAXPROCS(0))
	}
	wide := heax.NewEvaluator(k.params, k.evk, heax.WithWorkers(3))
	if a, b := wide.Workers(), serial.Workers(); a != 3 || b != 1 {
		t.Fatalf("caps not independent: %d and %d, want 3 and 1", a, b)
	}

	dec := k.decodeReal(t, got, 2)
	if math.Abs(dec[0]-0.5) > 1e-3 || math.Abs(dec[1]+0.1875) > 1e-3 {
		t.Fatalf("decrypted product wrong: %v", dec)
	}
}
