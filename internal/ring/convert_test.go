package ring

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"heax/internal/primes"
	"heax/internal/uintmod"
)

// mixedContext has rows on both sides of every dispatch the base
// conversion makes: rows 0-2 are 45-bit (IFMA targets where the host has
// the kernels), row 3 is 52-bit (the widest source the vector reduction
// takes, itself a scalar row), rows 4 and 5 are 55- and 58-bit (scalar
// rows, and sources too wide for a 52-bit lane).
func mixedContext(t testing.TB, n int) *Context {
	t.Helper()
	var ps []uint64
	for _, w := range []struct{ bits, k int }{{45, 3}, {52, 1}, {55, 1}, {58, 1}} {
		q, err := primes.NTTPrimes(w.bits, n, w.k)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, q...)
	}
	ctx, err := NewContext(n, ps)
	if err != nil {
		t.Fatal(err)
	}
	if uintmod.HasIFMA() && !(ctx.RowIFMA(0) && !ctx.RowIFMA(3) && !ctx.RowIFMA(4)) {
		t.Fatal("mixedContext: rows are not on the kernels the tests assume")
	}
	return ctx
}

// edgeRow draws residues modulo p with the extremes in the leading lanes.
func edgeRow(rng *rand.Rand, n int, p uint64) []uint64 {
	row := make([]uint64, n)
	for j := range row {
		row[j] = rng.Uint64() % p
	}
	copy(row, []uint64{0, p - 1, 1, p - 2, p >> 1, p>>1 + 1})
	return row
}

// ReduceNTTRow must equal reduce, subtract, strict transform for every
// (source, target) pair. The 55- and 58-bit source rows carry residues
// above 2^52 (p-1 leads every row), which the vector reduction would
// truncate: matching on them shows an IFMA target took the scalar
// fallback.
func TestReduceNTTRowMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, n := range []int{64, 4096} {
		ctx := mixedContext(t, n)
		for from := range ctx.Basis.Primes {
			src := edgeRow(rng, n, ctx.Basis.Primes[from])
			for to, p := range ctx.Basis.Primes {
				if to == from {
					continue
				}
				m := ctx.Basis.Mods[to]
				for _, sub := range []uint64{0, m.Reduce(ctx.Basis.Primes[from] >> 1), p - 1} {
					want := make([]uint64, n)
					for j := range want {
						want[j] = uintmod.SubMod(m.Reduce(src[j]), sub, p)
					}
					ctx.Tables[to].ForwardStrict(want)
					got := make([]uint64, n)
					ctx.ReduceNTTRow(got, src, from, to, sub)
					if !slices.Equal(got, want) {
						t.Fatalf("n=%d from=%d to=%d sub=%d: differs from the scalar reference", n, from, to, sub)
					}
				}
			}
		}
	}
}

// scalarFloorDrop is Algorithm 6 in scalar arithmetic on the strict
// transforms, one row of the output at a time.
func scalarFloorDrop(ctx *Context, a, add *Poly, rowPrimes []int, round bool) *Poly {
	rows := a.Rows()
	last := rowPrimes[rows-1]
	pLast := ctx.Basis.Primes[last]
	tail := slices.Clone(a.Coeffs[rows-1])
	ctx.Tables[last].InverseStrict(tail)
	out := ctx.NewPoly(rows - 1)
	for i := 0; i < rows-1; i++ {
		bi := rowPrimes[i]
		m, p := ctx.Basis.Mods[bi], ctx.Basis.Primes[bi]
		r := make([]uint64, ctx.N)
		for j := range r {
			v := tail[j]
			if round {
				v = uintmod.AddMod(v, pLast>>1, pLast)
			}
			r[j] = m.Reduce(v)
			if round {
				r[j] = uintmod.SubMod(r[j], m.Reduce(pLast>>1), p)
			}
		}
		ctx.Tables[bi].ForwardStrict(r)
		pinv := m.InvMod(m.Reduce(pLast))
		for j := range r {
			v := m.MulMod(uintmod.SubMod(a.Coeffs[i][j], r[j], p), pinv)
			if add != nil {
				v = uintmod.AddMod(v, add.Coeffs[i][j], p)
			}
			out.Coeffs[i][j] = v
		}
	}
	return out
}

// The flooring tail must equal the scalar reference on IFMA rows, scalar
// rows and both kinds of dropped prime (45-bit: vector reduction into the
// IFMA rows; 58-bit: the fallback), with and without the folded addition
// and the rounding shift, single and paired.
func TestFloorDropMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, n := range []int{64, 4096} {
		ctx := mixedContext(t, n)
		for _, rowPrimes := range [][]int{{0, 4, 1, 2}, {0, 1, 4, 5}, {1, 2, 3}} {
			rows := len(rowPrimes)
			mk := func(rows int) *Poly {
				a := ctx.NewPoly(rows)
				for i := range a.Coeffs {
					copy(a.Coeffs[i], edgeRow(rng, n, ctx.Basis.Primes[rowPrimes[i]]))
				}
				return a
			}
			a0, a1 := mk(rows), mk(rows)
			add0, add1 := mk(rows-1), mk(rows-1)
			for _, round := range []bool{false, true} {
				for _, withAdd := range []bool{false, true} {
					name := fmt.Sprintf("n=%d rows=%v round=%v add=%v", n, rowPrimes, round, withAdd)
					d0, d1 := add0, add1
					if !withAdd {
						d0, d1 = nil, nil
					}
					want0 := scalarFloorDrop(ctx, a0, d0, rowPrimes, round)
					want1 := scalarFloorDrop(ctx, a1, nil, rowPrimes, round)
					got0, got1 := ctx.NewPolyPair(rows - 1)
					ctx.FloorDropRowsPairAddInto(a0, a1, got0, got1, d0, nil, rowPrimes, round)
					if !got0.Equal(want0) || !got1.Equal(want1) {
						t.Fatalf("%s: pair differs from the scalar reference", name)
					}
					if !withAdd {
						single := ctx.NewPoly(rows - 1)
						ctx.FloorDropRowsInto(a0, single, rowPrimes, round)
						if !single.Equal(want0) {
							t.Fatalf("%s: single differs from the scalar reference", name)
						}
					}
					// Landing on the add operand, as a rotation epilogue may.
					if withAdd {
						in0, in1 := CopyOf(add0), CopyOf(add1)
						ctx.FloorDropRowsPairAddInto(a0, a1, in0, in1, in0, in1, rowPrimes, round)
						if !in0.Equal(want0) || !in1.Equal(scalarFloorDrop(ctx, a1, d1, rowPrimes, round)) {
							t.Fatalf("%s: out=add differs from the scalar reference", name)
						}
					}
				}
			}
		}
	}
}
