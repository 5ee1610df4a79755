package circuits_test

// Per-parameter-set test fixture. Parameter realization (prime search +
// ring contexts) is the expensive part, so parameters are cached for the
// whole package run; every newKit call draws its keys and encryption
// noise from the same seeds, so a test's errors do not depend on which
// tests ran before it (-count, -cpu lists). Evaluation keys are generated
// per test from the exact rotation set the circuit under test reports.

import (
	"math/rand"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"heax"
	"heax/circuits"
)

type kit struct {
	params    *heax.Params
	kg        *heax.KeyGenerator
	sk        *heax.SecretKey
	enc       *heax.Encoder
	encryptor *heax.Encryptor
	decryptor *heax.Decryptor
}

var (
	paramsMu  sync.Mutex
	paramsMap = map[string]*heax.Params{}
)

func cachedParams(t testing.TB, spec heax.ParamSpec) *heax.Params {
	t.Helper()
	paramsMu.Lock()
	defer paramsMu.Unlock()
	if params, ok := paramsMap[spec.Name]; ok {
		return params
	}
	params, err := heax.NewParams(spec)
	if err != nil {
		t.Fatal(err)
	}
	paramsMap[spec.Name] = params
	return params
}

func newKit(t testing.TB, spec heax.ParamSpec) *kit {
	t.Helper()
	params := cachedParams(t, spec)
	kg := heax.NewKeyGenerator(params, 1)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	return &kit{
		params:    params,
		kg:        kg,
		sk:        sk,
		enc:       heax.NewEncoder(params),
		encryptor: heax.NewEncryptor(params, pk, 2),
		decryptor: heax.NewDecryptor(params, sk),
	}
}

// keys generates an evaluation key set with the given Galois steps (and
// always a relinearization key).
func (k *kit) keys(t testing.TB, steps []int) *heax.EvaluationKeySet {
	t.Helper()
	return heax.GenEvaluationKeys(k.kg, k.sk, steps, false)
}

func (k *kit) encrypt(t testing.TB, vals []complex128) *heax.Ciphertext {
	t.Helper()
	pt, err := k.enc.Encode(vals, k.params.MaxLevel(), k.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := k.encryptor.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func (k *kit) decrypt(t testing.TB, ct *heax.Ciphertext) []complex128 {
	t.Helper()
	pt, err := k.decryptor.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	return k.enc.Decode(pt)
}

func randComplex(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
	}
	return v
}

// matVecPlan compiles the dense 256×256 BSGS matvec (the benchmark's
// matvec-serve-A circuit) with a matrix drawn from rng and the given
// baby-step count, 0 for the transform's own choice.
func matVecPlan(t testing.TB, k *kit, rng *rand.Rand, babyDim int) *heax.Plan {
	t.Helper()
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
	lt.BabyDim = babyDim
	c := heax.NewCircuit()
	out, err := lt.Apply(c, c.Input("x"))
	if err != nil {
		t.Fatal(err)
	}
	c.Output("y", out)
	steps, err := c.RequiredRotations(k.params)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := c.Compile(k.params, k.keys(t, steps))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// stepCounts tallies Plan.Describe lines by step kind name.
func stepCounts(desc string) map[string]int {
	counts := make(map[string]int)
	for _, line := range strings.Split(desc, "\n") {
		f := strings.Fields(line)
		if len(f) >= 2 {
			counts[f[1]]++
		}
	}
	return counts
}

// sumRotations counts the rotated terms (the nonzero steps) of the
// RotateSum steps in a Plan.Describe listing.
func sumRotations(desc string) int {
	n := 0
	for _, line := range strings.Split(desc, "\n") {
		if f := strings.Fields(line); len(f) < 2 || f[1] != "RotateSum" {
			continue
		}
		_, rest, _ := strings.Cut(line, " rot[")
		list, _, _ := strings.Cut(rest, "]")
		for _, r := range strings.Fields(list) {
			if r != "0" {
				n++
			}
		}
	}
	return n
}

var describeStep = regexp.MustCompile(`^\s*\d+\s+(\w+)\s+\[([\d ]*)\] -> \[([\d ]*)\]\s+@L(\d+) `)

// unfusedSums lists the Add lines of a Plan.Describe listing that the
// compiler should have fused and did not: both operands produced at the
// Add's level by a MulPlain, or either operand by a Rotate or a
// RotateSum, read by nothing else and not named outputs. One lowering
// means the list is empty for every plan.
func unfusedSums(t testing.TB, desc string) []string {
	t.Helper()
	type step struct {
		line, kind string
		args       []int
		level      int
	}
	ints := func(s string) []int {
		var out []int
		for _, f := range strings.Fields(s) {
			n, err := strconv.Atoi(f)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, n)
		}
		return out
	}
	var steps []step
	producer, reads := map[int]int{}, map[int]int{}
	for _, line := range strings.Split(desc, "\n") {
		if rest, ok := strings.CutPrefix(line, "outputs: "); ok {
			for _, o := range strings.Fields(rest) { // name=s<slot>@L<level>
				slot, _, _ := strings.Cut(o[strings.LastIndex(o, "=s")+2:], "@")
				reads[ints(slot)[0]]++
			}
			continue
		}
		m := describeStep.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		st := step{line: line, kind: m[1], args: ints(m[2]), level: ints(m[4])[0]}
		for _, a := range st.args {
			reads[a]++
		}
		for _, o := range ints(m[3]) {
			producer[o] = len(steps)
		}
		steps = append(steps, st)
	}
	if len(steps) == 0 {
		t.Fatalf("no steps parsed from:\n%s", desc)
	}
	var unfused []string
	for _, st := range steps {
		single := func(slot int, kinds ...string) bool {
			src, ok := producer[slot]
			return ok && reads[slot] == 1 && steps[src].level == st.level && slices.Contains(kinds, steps[src].kind)
		}
		product := func(slot int) bool { return single(slot, "MulPlain") }
		rotated := func(slot int) bool { return single(slot, "Rotate", "RotateSum") }
		if st.kind == "Add" && (product(st.args[0]) && product(st.args[1]) || rotated(st.args[0]) || rotated(st.args[1])) {
			unfused = append(unfused, st.line)
		}
	}
	return unfused
}
