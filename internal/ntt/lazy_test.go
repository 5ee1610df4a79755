package ntt

// White-box tests for the lazy-reduction hot path: the strict transforms
// are the oracle, and the lazy ones must match them bit for bit across
// ring degrees, modulus widths (w=54-eligible primes below 2^52, IFMA
// primes below 2^50, and full w=64 primes up to 62 bits), and both the
// scalar and, where supported, the AVX-512 IFMA kernels.

import (
	"math/rand"
	"slices"
	"testing"

	"heax/internal/uintmod"
)

// oracleRows returns the rows every lazy-vs-strict comparison runs: four
// random ones and the edge rows that reach the top of the lazy range —
// all 0, all p-1, a single 1, and 0/p-1 alternating.
func oracleRows(rng *rand.Rand, n int, p uint64) [][]uint64 {
	rows := [][]uint64{make([]uint64, n), make([]uint64, n), make([]uint64, n), make([]uint64, n)}
	for j := 0; j < n; j++ {
		rows[1][j] = p - 1
		rows[3][j] = uint64(j&1) * (p - 1)
	}
	rows[2][n/2+1] = 1
	for trial := 0; trial < 4; trial++ {
		rows = append(rows, randomPoly(rng, n, p))
	}
	return rows
}

// oracleSizes are the ring degrees the workloads run (Table 2: 2^12-2^14)
// and every shape of the IFMA pass schedule below them: the fused kernel
// alone (16), one radix-4 pass (32, 64) and several (128 up), with both
// parities of the strided stage count — log2 n even puts the stride 8
// stage in the forward tail, odd in the inverse head.
var oracleSizes = []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384}

// lazyPaths returns tb and, when it runs the IFMA kernels, tables built
// for the scalar route on the same prime, so one host compares the kernels
// and the scalar lazy stages on one prime.
func lazyPaths(t testing.TB, tb *Tables) []*Tables {
	if !tb.ifma {
		return []*Tables{tb}
	}
	scalar, err := newTables(tb.Mod.P, tb.N, false)
	if err != nil {
		t.Fatal(err)
	}
	return []*Tables{tb, scalar}
}

// checkLazyMatchesStrict runs lazy against strict on every oracle row at
// every oracle size, on each path the prime has.
func checkLazyMatchesStrict(t *testing.T, seed int64, lazy, strict func(*Tables, []uint64)) {
	rng := rand.New(rand.NewSource(seed))
	for _, bitsize := range []int{30, 36, 43, 49, 50, 52, 60, 62} {
		for _, n := range oracleSizes {
			tb := newTestTables(t, bitsize, n)
			paths := lazyPaths(t, tb)
			for r, row := range oracleRows(rng, n, tb.Mod.P) {
				want := slices.Clone(row)
				strict(tb, want)
				for _, path := range paths {
					got := slices.Clone(row)
					lazy(path, got)
					if i := firstDiff(got, want); i >= 0 {
						t.Fatalf("bits=%d n=%d row %d (ifma=%v): mismatch at %d: %d != %d",
							bitsize, n, r, path.ifma, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func firstDiff(a, b []uint64) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

func TestLazyForwardMatchesStrict(t *testing.T) {
	checkLazyMatchesStrict(t, 11, (*Tables).Forward, (*Tables).ForwardStrict)
}

func TestLazyInverseMatchesStrict(t *testing.T) {
	checkLazyMatchesStrict(t, 12, (*Tables).Inverse, (*Tables).InverseStrict)
}

// ForwardTo and InverseTo into a separate row must give what the in-place
// transform gives and leave the source as it was (no kernel mutates an
// input it was not told to alias), on the kernels, the scalar stages and
// the strict path of a ring below 16.
func TestTransformToLeavesSource(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, bitsize := range []int{45, 49, 55} {
		for _, n := range append([]int{8}, oracleSizes...) {
			for _, tb := range lazyPaths(t, newTestTables(t, bitsize, n)) {
				for _, dir := range []struct {
					name    string
					to      func(*Tables, []uint64, []uint64)
					inPlace func(*Tables, []uint64)
				}{
					{"ForwardTo", (*Tables).ForwardTo, (*Tables).Forward},
					{"InverseTo", (*Tables).InverseTo, (*Tables).Inverse},
				} {
					src := randomPoly(rng, n, tb.Mod.P)
					want := slices.Clone(src)
					dir.inPlace(tb, want)
					kept := slices.Clone(src)
					dst := randomPoly(rng, n, tb.Mod.P) // stale scratch, as a pooled row is
					dir.to(tb, dst, src)
					if i := firstDiff(dst, want); i >= 0 {
						t.Fatalf("%s bits=%d n=%d ifma=%v: differs from in place at %d", dir.name, bitsize, n, tb.ifma, i)
					}
					if i := firstDiff(src, kept); i >= 0 {
						t.Fatalf("%s bits=%d n=%d ifma=%v: source modified at %d", dir.name, bitsize, n, tb.ifma, i)
					}
				}
			}
		}
	}
}

// ForwardTo takes any input below InputBound — on the IFMA kernels the
// whole lazy range, which is what lets a base conversion skip its
// reduction — and must return the transform of the canonical residues:
// rows at the top of the range, 0 and the top alternating, and random
// ones, at every pass schedule, in place and out of place.
func TestForwardUnreducedInput(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, bitsize := range []int{36, 46, 49, 50, 52} {
		for _, n := range oracleSizes {
			tb := newTestTables(t, bitsize, n)
			p, bound := tb.Mod.P, tb.InputBound()
			want := p
			if tb.ifma {
				want = 4 * p
			}
			if bound != want {
				t.Fatalf("bits=%d n=%d ifma=%v: InputBound = %d, want %d", bitsize, n, tb.ifma, bound, want)
			}
			rows := [][]uint64{make([]uint64, n), make([]uint64, n), make([]uint64, n)}
			for j := 0; j < n; j++ {
				rows[0][j] = bound - 1
				rows[1][j] = uint64(j&1) * (bound - 1)
				rows[2][j] = rng.Uint64() % bound
			}
			for r, row := range rows {
				want := make([]uint64, n)
				for j, v := range row {
					want[j] = v % p
				}
				tb.ForwardStrict(want)
				got := make([]uint64, n)
				tb.ForwardTo(got, row)
				inPlace := slices.Clone(row)
				tb.Forward(inPlace)
				if i := firstDiff(got, want); i >= 0 {
					t.Fatalf("bits=%d n=%d row %d: ForwardTo mismatch at %d", bitsize, n, r, i)
				}
				if i := firstDiff(inPlace, want); i >= 0 {
					t.Fatalf("bits=%d n=%d row %d: Forward mismatch at %d", bitsize, n, r, i)
				}
			}
		}
	}
}

// The IFMA dispatch must be exercised on eligible primes when the CPU
// supports it — a silent fall back to scalar would let kernel bugs hide.
func TestIFMADispatchActive(t *testing.T) {
	if !uintmod.HasIFMA() {
		t.Skip("no AVX-512 IFMA on this CPU")
	}
	tb := newTestTables(t, 49, 64)
	if !tb.ifma {
		t.Fatal("49-bit modulus should take the IFMA path")
	}
	big := newTestTables(t, 52, 64)
	if big.ifma {
		t.Fatal("52-bit modulus must not take the IFMA path (lazy range exceeds 52-bit lanes)")
	}
}

// FuzzLazyButterfly cross-checks the forward and inverse lazy butterflies
// against direct modular arithmetic, including the range invariants.
func FuzzLazyButterfly(f *testing.F) {
	f.Add(uint64(3), uint64(5), uint64(2), uint64(1)<<40+9)
	f.Add(uint64(0), uint64(0), uint64(0), uint64(97))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), uint64(1)<<61+85)
	f.Fuzz(func(t *testing.T, uRaw, vRaw, wRaw, pRaw uint64) {
		p := (pRaw >> 2) | 3 // odd, in [3, 2^62)
		twoP := 2 * p
		u := uRaw % (4 * p)
		v := vRaw % (4 * p)
		w := wRaw % p
		ws := uintmod.ShoupPrecomp(w, p)
		m := uintmod.NewModulus(p)

		x, y := butterfly(u, v, w, ws, p, twoP)
		if x >= 4*p || y >= 4*p {
			t.Fatalf("forward outputs escaped [0, 4p): x=%d y=%d p=%d", x, y, p)
		}
		um, vm := m.Reduce(u), m.Reduce(v)
		wantX := uintmod.AddMod(um, m.MulMod(w, vm), p)
		wantY := uintmod.SubMod(um, m.MulMod(w, vm), p)
		if m.Reduce(x) != wantX || m.Reduce(y) != wantY {
			t.Fatalf("forward butterfly incongruent: u=%d v=%d w=%d p=%d", u, v, w, p)
		}

		u2 := uRaw % twoP
		v2 := vRaw % twoP
		xi, yi := invButterfly(u2, v2, w, ws, p, twoP)
		if xi >= twoP || yi >= twoP {
			t.Fatalf("inverse outputs escaped [0, 2p): x=%d y=%d p=%d", xi, yi, p)
		}
		um2, vm2 := m.Reduce(u2), m.Reduce(v2)
		wantXi := uintmod.AddMod(um2, vm2, p)
		wantYi := m.MulMod(w, uintmod.SubMod(um2, vm2, p))
		if m.Reduce(xi) != wantXi || m.Reduce(yi) != wantYi {
			t.Fatalf("inverse butterfly incongruent: u=%d v=%d w=%d p=%d", u2, v2, w, p)
		}
	})
}
