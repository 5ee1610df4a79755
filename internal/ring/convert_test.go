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
// rows, and sources too wide for a 52-bit lane). Rows 6-9 are 47-bit —
// 2^47 is four times 2^45, so they sit on both sides of 4p for the 45-bit
// rows, the bound below which an IFMA target transforms a source row
// unreduced — and rows 10-12 are 49-, 49- and 46-bit, Set-C's shapes.
func mixedContext(t testing.TB, n int) *Context {
	t.Helper()
	var ps []uint64
	for _, w := range []struct{ bits, k int }{{45, 3}, {52, 1}, {55, 1}, {58, 1}, {47, 4}, {49, 2}, {46, 1}} {
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
// (source, target) pair and leave its source alone. Each source prime
// sends a random row with the extremes leading, a row of its largest
// residue and one alternating 0 with it — for a target that skips the
// reduction these are the top of the unreduced range the transform is
// fed — plus, for a source above the target's input bound, the row just
// under that bound. The 55- and 58-bit source rows carry residues above
// 2^52, which the vector reduction would truncate: matching on them shows
// an IFMA target took the scalar fallback. Every way the conversion can
// go must have been taken by the end, with and without a shift.
func TestReduceNTTRowMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, n := range []int{64, 4096} {
		ctx := mixedContext(t, n)
		taken := map[string]int{}
		for from, pFrom := range ctx.Basis.Primes {
			srcs := [][]uint64{edgeRow(rng, n, pFrom), make([]uint64, n), make([]uint64, n)}
			for j := 0; j < n; j++ {
				srcs[1][j] = pFrom - 1
				srcs[2][j] = uint64(j&1) * (pFrom - 1)
			}
			for to, p := range ctx.Basis.Primes {
				if to == from {
					continue
				}
				m := ctx.Basis.Mods[to]
				bound := ctx.Tables[to].InputBound()
				rows := srcs
				if pFrom > bound {
					under := make([]uint64, n)
					for j := range under {
						under[j] = bound - 1
					}
					rows = append(rows[:len(rows):len(rows)], under)
				}
				for _, sub := range []uint64{0, m.Reduce(pFrom >> 1), p - 1} {
					how := "scalar reduce"
					switch {
					case sub == 0 && pFrom <= bound:
						how = "no reduce"
					case ctx.RowIFMA(to) && pFrom < 1<<52:
						how = "vector reduce"
					}
					if sub != 0 {
						how += ", shifted"
					}
					if ctx.RowIFMA(to) {
						how += ", IFMA target"
					}
					taken[how]++
					for r, src := range rows {
						want := make([]uint64, n)
						for j := range want {
							want[j] = uintmod.SubMod(m.Reduce(src[j]), sub, p)
						}
						ctx.Tables[to].ForwardStrict(want)
						got := make([]uint64, n)
						kept := slices.Clone(src)
						ctx.ReduceNTTRow(got, src, from, to, sub)
						if !slices.Equal(got, want) {
							t.Fatalf("n=%d from=%d to=%d sub=%d row %d (%s): differs from the scalar reference", n, from, to, sub, r, how)
						}
						if !slices.Equal(src, kept) {
							t.Fatalf("n=%d from=%d to=%d sub=%d row %d (%s): source modified", n, from, to, sub, r, how)
						}
					}
				}
			}
		}
		ways := []string{"no reduce", "scalar reduce", "scalar reduce, shifted"}
		if uintmod.HasIFMA() {
			// A 47-bit source into a 45-bit IFMA row must fall on both
			// sides of 4p, and a wider one on both sides of 2^52.
			ways = append(ways, "no reduce, IFMA target", "vector reduce, IFMA target",
				"vector reduce, shifted, IFMA target", "scalar reduce, IFMA target",
				"scalar reduce, shifted, IFMA target")
			var skipped, reduced bool
			for _, q := range ctx.Basis.Primes[6:10] {
				skipped = skipped || q < 4*ctx.Basis.Primes[0]
				reduced = reduced || q > 4*ctx.Basis.Primes[0]
			}
			if !skipped || !reduced {
				t.Fatalf("n=%d: the 47-bit rows do not straddle 4p of row 0 (below %v, above %v)", n, skipped, reduced)
			}
		}
		for _, how := range ways {
			if taken[how] == 0 {
				t.Fatalf("n=%d: no conversion went %q (taken: %v)", n, how, taken)
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

// BenchmarkReduceNTTRow prices the base conversion of one Set-C row
// (N = 2^14) at each way it can go on an IFMA host: a 49-bit source into
// a 49-bit row transforms unreduced out of the source, into the 46-bit
// row (the special prime's: 4p is below the source) it is reduced first,
// and so is flooring's rounding conversion, which subtracts a shift.
func BenchmarkReduceNTTRow(b *testing.B) {
	const n = 1 << 14
	q, err := primes.NTTPrimes(49, n, 2)
	if err != nil {
		b.Fatal(err)
	}
	sp, err := primes.NTTPrimes(46, n, 1)
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := NewContext(n, append(q, sp...))
	if err != nil {
		b.Fatal(err)
	}
	src := edgeRow(rand.New(rand.NewSource(53)), n, q[0])
	dst := make([]uint64, n)
	for _, shape := range []struct {
		name string
		to   int
		sub  uint64
	}{
		{"49to49", 1, 0},
		{"49to46", 2, 0},
		{"49to49_shifted", 1, q[0] >> 1 % q[1]},
	} {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ctx.ReduceNTTRow(dst, src, 0, shape.to, shape.sub)
			}
		})
	}
}
