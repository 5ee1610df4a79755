package ntt

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"heax/internal/primes"
)

// One NewTables builds the four tables its route reads and nothing else:
// what it allocates stays within four rows of N words plus slack, on an
// IFMA prime (the kernels' route where the host has them, the scalar one
// elsewhere) and on a prime only the scalar route takes. The transforms
// leave the oracle's tables unbuilt; the strict transform builds them, and
// on a scalar row it reuses the route's forward Shoup table.
func TestNewTablesBuildsRouteOnly(t *testing.T) {
	const n = 1 << 14
	for _, bitsize := range []int{49, 55} {
		ps, err := primes.NTTPrimes(bitsize, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tb, err := NewTables(ps[0], n)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		const slack = 16 << 10
		grew := after.TotalAlloc - before.TotalAlloc
		t.Logf("bits=%d ifma=%v: NewTables allocated %d bytes", bitsize, tb.ifma, grew)
		if grew > 4*n*8+slack {
			t.Errorf("bits=%d ifma=%v: NewTables allocated %d bytes, want at most 4 rows of %d words (%d) + %d",
				bitsize, tb.ifma, grew, n, 4*n*8, slack)
		}
		row := randomPoly(rand.New(rand.NewSource(int64(bitsize))), n, tb.Mod.P)
		tb.Forward(row)
		tb.Inverse(row)
		if e := tb.extra; e.psiRevShoup != nil || e.psiInvRevHalf != nil || e.psiRevShoup54 != nil {
			t.Fatalf("bits=%d ifma=%v: Forward/Inverse built the oracle's tables", bitsize, tb.ifma)
		}
		tb.ForwardStrict(row)
		e := tb.extra
		if e.psiInvRevHalf == nil || e.psiInvRevHalfShoup == nil {
			t.Fatalf("bits=%d: ForwardStrict left the inverse oracle tables unbuilt", bitsize)
		}
		if shared := tb.psiRevShoup != nil && &e.psiRevShoup[0] == &tb.psiRevShoup[0]; tb.ifma == shared {
			t.Fatalf("bits=%d ifma=%v: strict forward Shoup table shared with the route = %v", bitsize, tb.ifma, shared)
		}
	}
}

// The first use of the oracle's tables may come from several goroutines at
// once (the benchmark's host-speed probe runs ForwardStrict on every CPU):
// 8 goroutines released together on fresh tables must read exactly what
// tables warmed beforehand give, under -race too.
func TestExtrasConcurrentFirstUse(t *testing.T) {
	const n = 1 << 10
	for _, bitsize := range []int{40, 49, 55} {
		warm := newTestTables(t, bitsize, n)
		fresh, err := NewTables(warm.Mod.P, n)
		if err != nil {
			t.Fatal(err)
		}
		src := randomPoly(rand.New(rand.NewSource(int64(bitsize))), n, warm.Mod.P)
		transform := func(f func(*Tables, []uint64)) func(*Tables) []uint64 {
			return func(tb *Tables) []uint64 {
				a := slices.Clone(src)
				f(tb, a)
				return a
			}
		}
		twiddles := func(f func(*Tables, int) (uint64, uint64, uint64)) func(*Tables) []uint64 {
			return func(tb *Tables) []uint64 {
				var all []uint64
				for i := 0; i < n; i++ {
					w, s64, s54 := f(tb, i)
					all = append(all, w, s64, s54)
				}
				return all
			}
		}
		uses := []struct {
			name string
			read func(*Tables) []uint64
		}{
			{"ForwardStrict", transform((*Tables).ForwardStrict)},
			{"InverseStrict", transform((*Tables).InverseStrict)},
			{"ForwardTwiddle", twiddles((*Tables).ForwardTwiddle)},
			{"InverseTwiddle", twiddles((*Tables).InverseTwiddle)},
		}
		want := make([][]uint64, len(uses))
		for u, use := range uses {
			want[u] = use.read(warm)
		}

		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			u := g % len(uses)
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if i := firstDiff(uses[u].read(fresh), want[u]); i >= 0 {
					t.Errorf("bits=%d %s on fresh tables differs from warmed ones at %d", bitsize, uses[u].name, i)
				}
			}()
		}
		close(start)
		wg.Wait()
	}
}
