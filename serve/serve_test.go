package serve_test

// End-to-end wire tests: a client uploads keys, ships the matvec
// circuit, streams ciphertext batches over a real TCP socket, and the
// results must be bit-identical to the in-process Plan.RunBatch oracle
// — including two tenants with different secret keys interleaving
// concurrently (run under -race in CI).

import (
	"errors"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"

	"heax"
	"heax/serve"
)

const dim = 8

// tenantKit is one tenant's client-side world, built against the
// parameter set fetched over the wire.
type tenantKit struct {
	params    *heax.Params
	evk       *heax.EvaluationKeySet
	enc       *heax.Encoder
	encryptor *heax.Encryptor
	decryptor *heax.Decryptor
	matrix    [][]float64
}

func newTenantKit(t testing.TB, params *heax.Params, seed int64) *tenantKit {
	t.Helper()
	kg := heax.NewKeyGenerator(params, seed)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	steps := make([]int, 0, dim-1)
	for d := 1; d < dim; d++ {
		steps = append(steps, d)
	}
	rng := rand.New(rand.NewSource(seed * 31))
	m := make([][]float64, dim)
	for i := range m {
		m[i] = make([]float64, dim)
		for j := range m[i] {
			m[i][j] = rng.Float64()*2 - 1
		}
	}
	return &tenantKit{
		params:    params,
		evk:       heax.GenEvaluationKeys(kg, sk, steps, false),
		enc:       heax.NewEncoder(params),
		encryptor: heax.NewEncryptor(params, pk, seed+1),
		decryptor: heax.NewDecryptor(params, sk),
		matrix:    m,
	}
}

// matvecCircuit is the diagonal-method matrix-vector product of
// examples/matvec: one rotation and one plaintext multiply per
// diagonal, with the rotations hoisted into one batch by the compiler.
func (k *tenantKit) matvecCircuit() *heax.Circuit {
	c := heax.NewCircuit()
	in := c.Input("x")
	var acc heax.Node
	for d := 0; d < dim; d++ {
		diag := make([]float64, dim)
		for i := 0; i < dim; i++ {
			diag[i] = k.matrix[i][(i+d)%dim]
		}
		term := c.MulPlain(c.Rotate(in, d), diag)
		if d == 0 {
			acc = term
		} else {
			acc = c.Add(acc, term)
		}
	}
	c.Output("y", acc)
	return c
}

// encryptVec encrypts [x | x | 0...] so rotations wrap in the replica.
func (k *tenantKit) encryptVec(t testing.TB, x []float64) *heax.Ciphertext {
	t.Helper()
	rep := make([]float64, 2*dim)
	copy(rep, x)
	copy(rep[dim:], x)
	pt, err := k.enc.EncodeReal(rep, k.params.MaxLevel(), k.params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := k.encryptor.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func (k *tenantKit) batches(t testing.TB, seed int64, n int) ([]map[string]*heax.Ciphertext, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	in := make([]map[string]*heax.Ciphertext, n)
	vecs := make([][]float64, n)
	for b := 0; b < n; b++ {
		x := make([]float64, dim)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		vecs[b] = x
		in[b] = map[string]*heax.Ciphertext{"x": k.encryptVec(t, x)}
	}
	return in, vecs
}

func ctEqual(a, b *heax.Ciphertext) bool {
	if a == nil || b == nil || a.Scale != b.Scale || a.Level != b.Level || len(a.Polys) != len(b.Polys) {
		return false
	}
	for i := range a.Polys {
		if !a.Polys[i].Equal(b.Polys[i]) {
			return false
		}
	}
	return true
}

func startServer(t testing.TB, params *heax.Params, opts ...serve.Option) string {
	t.Helper()
	srv, err := serve.NewServer(params, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

var (
	serveParamsOnce sync.Once
	serveParams     *heax.Params
)

func testParams(t testing.TB) *heax.Params {
	t.Helper()
	serveParamsOnce.Do(func() { serveParams = heax.MustParams(heax.SetA) })
	return serveParams
}

// runTenant drives one tenant through the full wire flow and checks
// the results against both the cleartext matrix product and the
// in-process compiled-plan oracle, bit for bit.
func runTenant(t *testing.T, addr, name string, seed int64, rounds int) {
	t.Helper()
	cl, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	params := cl.Params()
	kit := newTenantKit(t, params, seed)
	if err := cl.Register(name, kit.evk); err != nil {
		t.Fatal(err)
	}
	circ := kit.matvecCircuit()
	info, err := cl.Compile(name, circ)
	if err != nil {
		t.Fatal(err)
	}
	if info.Cached {
		t.Fatalf("%s: first compile reported a cache hit", name)
	}

	// In-process oracle on the same fetched params and key material.
	oracle, err := kit.matvecCircuit().Compile(params, kit.evk)
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < rounds; round++ {
		in, vecs := kit.batches(t, seed+int64(round)*977, 3)
		want, err := oracle.RunBatch(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cl.Run(name, info.ID, in)
		if err != nil {
			t.Fatal(err)
		}
		for b := range in {
			if !ctEqual(got[b]["y"], want[b]["y"]) {
				t.Fatalf("%s round %d batch %d: wire result not bit-identical to the in-process oracle", name, round, b)
			}
			// And the decrypted values match the cleartext product.
			pt, err := kit.decryptor.Decrypt(got[b]["y"])
			if err != nil {
				t.Fatal(err)
			}
			dec := kit.enc.Decode(pt)
			for i := 0; i < dim; i++ {
				cleartext := 0.0
				for j := 0; j < dim; j++ {
					cleartext += kit.matrix[i][j] * vecs[b][j]
				}
				if math.Abs(real(dec[i])-cleartext) > 1e-2 {
					t.Fatalf("%s round %d batch %d row %d: %g, want %g", name, round, b, i, real(dec[i]), cleartext)
				}
			}
		}
	}

	// Re-shipping the same circuit is a cache hit with the same id.
	again, err := cl.Compile(name, kit.matvecCircuit())
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.ID != info.ID {
		t.Fatalf("%s: recompile should hit the cache with the same id", name)
	}
}

func TestServeEndToEndWire(t *testing.T) {
	addr := startServer(t, testParams(t))
	runTenant(t, addr, "alice", 11, 1)
}

// TestServeTwoTenantsInterleave: two tenants with different secret
// keys stream batches concurrently through one server; each must get
// its own bit-exact results (run under -race).
func TestServeTwoTenantsInterleave(t *testing.T) {
	addr := startServer(t, testParams(t), serve.WithAdmissionWindow(2))
	var wg sync.WaitGroup
	for i, name := range []string{"alice", "bob"} {
		wg.Add(1)
		go func(name string, seed int64) {
			defer wg.Done()
			runTenant(t, addr, name, seed, 3)
		}(name, int64(13+i*7))
	}
	wg.Wait()
}

// TestServeTenantIsolation: a plan id compiled by one tenant is not
// addressable by another (the cache keys by tenant, because the plan
// embeds tenant keys).
func TestServeTenantIsolation(t *testing.T) {
	addr := startServer(t, testParams(t))
	cl, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	alice := newTenantKit(t, cl.Params(), 3)
	bob := newTenantKit(t, cl.Params(), 4)
	if err := cl.Register("alice", alice.evk); err != nil {
		t.Fatal(err)
	}
	if err := cl.Register("bob", bob.evk); err != nil {
		t.Fatal(err)
	}
	info, err := cl.Compile("alice", alice.matvecCircuit())
	if err != nil {
		t.Fatal(err)
	}
	in, _ := bob.batches(t, 5, 1)
	if _, err := cl.Run("bob", info.ID, in); !errors.Is(err, serve.ErrUnknownPlan) {
		t.Fatalf("cross-tenant plan use must fail with ErrUnknownPlan, got %v", err)
	}
}

// TestServeTenantLifecycle: registration conflicts, eviction, and
// re-registration over the wire.
func TestServeTenantLifecycle(t *testing.T) {
	addr := startServer(t, testParams(t))
	cl, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	kit := newTenantKit(t, cl.Params(), 9)
	if err := cl.Register("carol", kit.evk); err != nil {
		t.Fatal(err)
	}
	if err := cl.Register("carol", kit.evk); !errors.Is(err, serve.ErrTenantExists) {
		t.Fatalf("double registration must fail with ErrTenantExists, got %v", err)
	}
	info, err := cl.Compile("carol", kit.matvecCircuit())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Unregister("carol"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Unregister("carol"); !errors.Is(err, serve.ErrUnknownTenant) {
		t.Fatalf("double unregister must fail with ErrUnknownTenant, got %v", err)
	}
	if _, err := cl.Compile("carol", kit.matvecCircuit()); !errors.Is(err, serve.ErrUnknownTenant) {
		t.Fatalf("compile after eviction must fail with ErrUnknownTenant, got %v", err)
	}
	in, _ := kit.batches(t, 6, 1)
	if _, err := cl.Run("carol", info.ID, in); !errors.Is(err, serve.ErrUnknownPlan) {
		t.Fatalf("run after eviction must fail with ErrUnknownPlan, got %v", err)
	}
	// The name is free again.
	if err := cl.Register("carol", kit.evk); err != nil {
		t.Fatalf("re-registration after eviction: %v", err)
	}
	if _, err := cl.Compile("carol", kit.matvecCircuit()); err != nil {
		t.Fatal(err)
	}
}

// TestServeCacheEviction: with capacity 1, a second circuit evicts the
// first; the evicted id recompiles on demand.
func TestServeCacheEviction(t *testing.T) {
	addr := startServer(t, testParams(t), serve.WithCacheCapacity(1))
	cl, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	kit := newTenantKit(t, cl.Params(), 21)
	if err := cl.Register("dave", kit.evk); err != nil {
		t.Fatal(err)
	}
	first, err := cl.Compile("dave", kit.matvecCircuit())
	if err != nil {
		t.Fatal(err)
	}
	simple := heax.NewCircuit()
	simple.Output("y", simple.MulConst(simple.Input("x"), 2))
	if _, err := cl.Compile("dave", simple); err != nil {
		t.Fatal(err)
	}
	in, _ := kit.batches(t, 22, 1)
	if _, err := cl.Run("dave", first.ID, in); !errors.Is(err, serve.ErrUnknownPlan) {
		t.Fatalf("evicted plan must be unknown, got %v", err)
	}
	refreshed, err := cl.Compile("dave", kit.matvecCircuit())
	if err != nil {
		t.Fatal(err)
	}
	if refreshed.Cached || refreshed.ID != first.ID {
		t.Fatalf("recompile after eviction: cached=%v id match=%v", refreshed.Cached, refreshed.ID == first.ID)
	}
	if _, err := cl.Run("dave", refreshed.ID, in); err != nil {
		t.Fatal(err)
	}
}

// TestServeRejectsMalformed: compile errors surface as typed sentinels
// over the wire, and a garbage circuit description is ErrCorrupt.
func TestServeRejectsMalformed(t *testing.T) {
	addr := startServer(t, testParams(t))
	cl, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	params := cl.Params()
	kg := heax.NewKeyGenerator(params, 33)
	sk := kg.GenSecretKey()
	// Keys without any Galois material: a rotating circuit must fail
	// key-missing, typed, across the wire.
	evk := &heax.EvaluationKeySet{Relin: kg.GenRelinearizationKey(sk)}
	if err := cl.Register("erin", evk); err != nil {
		t.Fatal(err)
	}
	c := heax.NewCircuit()
	c.Output("y", c.Rotate(c.Input("x"), 1))
	if _, err := cl.Compile("erin", c); !errors.Is(err, heax.ErrKeyMissing) {
		t.Fatalf("rotation without keys must be ErrKeyMissing over the wire, got %v", err)
	}
	// Unregistered tenant.
	if _, err := cl.Compile("mallory", c); !errors.Is(err, serve.ErrUnknownTenant) {
		t.Fatalf("unknown tenant must be typed, got %v", err)
	}
}

// TestServeClientDisconnectHealth: a client that vanishes mid-request
// must not wedge the server — its in-flight work is cancelled (the
// connection watcher) and other tenants keep streaming normally.
func TestServeClientDisconnectHealth(t *testing.T) {
	addr := startServer(t, testParams(t), serve.WithAdmissionWindow(1))
	cl, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	kit := newTenantKit(t, cl.Params(), 41)
	if err := cl.Register("flaky", kit.evk); err != nil {
		t.Fatal(err)
	}
	info, err := cl.Compile("flaky", kit.matvecCircuit())
	if err != nil {
		t.Fatal(err)
	}
	// Fire a large request and hang up without reading the response.
	in, _ := kit.batches(t, 42, 16)
	go func() {
		flakyConn, err := serve.Dial(addr)
		if err != nil {
			return
		}
		// Run blocks reading the response; the abrupt close below cuts
		// the connection while the server is still executing.
		go flakyConn.Run("flaky", info.ID, in)
		flakyConn.Close()
	}()

	// A well-behaved tenant keeps working throughout.
	runTenant(t, addr, "steady", 43, 2)
}

// TestServeReRegisterFreshKeys: after unregister + re-register under
// the same name with different keys, the old cached plan must never be
// served — the same circuit recompiles against the new registration's
// keys and the results decrypt under the new secret key only.
func TestServeReRegisterFreshKeys(t *testing.T) {
	addr := startServer(t, testParams(t))
	cl, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	old := newTenantKit(t, cl.Params(), 61)
	if err := cl.Register("grace", old.evk); err != nil {
		t.Fatal(err)
	}
	oldInfo, err := cl.Compile("grace", old.matvecCircuit())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Unregister("grace"); err != nil {
		t.Fatal(err)
	}

	// Same name, fresh secret key, same matrix (so the circuit digest
	// matches the old one — the dangerous collision case).
	fresh := newTenantKit(t, cl.Params(), 62)
	fresh.matrix = old.matrix
	if err := cl.Register("grace", fresh.evk); err != nil {
		t.Fatal(err)
	}
	info, err := cl.Compile("grace", fresh.matvecCircuit())
	if err != nil {
		t.Fatal(err)
	}
	if info.Cached {
		t.Fatal("the re-registered tenant must not hit the evicted registration's cache entry")
	}
	if info.ID != oldInfo.ID {
		t.Fatal("identical circuits should digest to the same plan id")
	}
	in, vecs := fresh.batches(t, 63, 1)
	got, err := cl.Run("grace", info.ID, in)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := fresh.decryptor.Decrypt(got[0]["y"])
	if err != nil {
		t.Fatal(err)
	}
	dec := fresh.enc.Decode(pt)
	for i := 0; i < dim; i++ {
		cleartext := 0.0
		for j := 0; j < dim; j++ {
			cleartext += fresh.matrix[i][j] * vecs[0][j]
		}
		if math.Abs(real(dec[i])-cleartext) > 1e-2 {
			t.Fatalf("row %d decrypts to %g under the fresh key, want %g — a stale plan was served", i, real(dec[i]), cleartext)
		}
	}
}

// TestServeBoundedCircuitPlaced: a circuit whose output carries a Bound
// crosses the wire with it, so the server's plan starts below the top
// level exactly as the in-process one does; top-level uploads run
// bit-identically to it and leave at the same level. The bound is part
// of the plan's identity: the same circuit unbounded is another plan.
func TestServeBoundedCircuitPlaced(t *testing.T) {
	addr := startServer(t, testParams(t))
	cl, err := serve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	params := cl.Params()
	kit := newTenantKit(t, params, 23)
	if err := cl.Register("heidi", kit.evk); err != nil {
		t.Fatal(err)
	}
	circuit := func(bounded bool) *heax.Circuit {
		c := heax.NewCircuit()
		x := c.Input("x")
		y := c.Add(c.Rotate(x, 1), x)
		if bounded {
			y = c.Bound(y, 2)
		}
		c.Output("y", y)
		return c
	}
	info, err := cl.Compile("heidi", circuit(true))
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := circuit(true).Compile(params, kit.evk)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.InputLevel() != params.MaxLevel()-1 {
		t.Fatalf("in-process plan starts at level %d, want %d", oracle.InputLevel(), params.MaxLevel()-1)
	}
	if unbounded, err := cl.Compile("heidi", circuit(false)); err != nil || unbounded.ID == info.ID {
		t.Fatalf("unbounded circuit: id %v (%v), want an id other than the bounded one's %v", unbounded.ID, err, info.ID)
	}
	level, err := oracle.OutputLevel("y")
	if err != nil {
		t.Fatal(err)
	}
	in, vecs := kit.batches(t, 29, 2)
	want, err := oracle.RunBatch(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.Run("heidi", info.ID, in)
	if err != nil {
		t.Fatal(err)
	}
	for b := range in {
		if !ctEqual(got[b]["y"], want[b]["y"]) || got[b]["y"].Level != level {
			t.Fatalf("set %d: served output (level %d) not bit-identical to the in-process plan's (level %d)", b, got[b]["y"].Level, level)
		}
		pt, err := kit.decryptor.Decrypt(got[b]["y"])
		if err != nil {
			t.Fatal(err)
		}
		dec := kit.enc.Decode(pt)
		for i := 0; i < dim; i++ {
			if w := vecs[b][(i+1)%dim] + vecs[b][i]; math.Abs(real(dec[i])-w) > 1e-3 {
				t.Fatalf("set %d slot %d: %g, want %g", b, i, real(dec[i]), w)
			}
		}
	}
}
