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

// scalarFloor is Algorithm 6 in scalar arithmetic on the strict
// transforms, one row of the output at a time: row i < rows of a is basis
// prime i, row rows the dropped prime last.
func scalarFloor(ctx *Context, a, add *Poly, rows, last int, round bool) *Poly {
	pLast := ctx.Basis.Primes[last]
	tail := slices.Clone(a.Coeffs[rows])
	ctx.Tables[last].InverseStrict(tail)
	out := ctx.NewPoly(rows)
	for i := 0; i < rows; i++ {
		m, p := ctx.Basis.Mods[i], ctx.Basis.Primes[i]
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
		ctx.Tables[i].ForwardStrict(r)
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

// floorShapes are the mixedContext floors the tests run: the kept rows
// 0..rows-1 and the dropped prime. Rows 0-2 are IFMA rows and 3-5 scalar
// ones where the host has the kernels; the dropped 45-, 47- and 46-bit
// primes reduce into the kept rows on the vector path, the 58-bit one on
// the scalar fallback.
var floorShapes = []struct{ rows, last int }{{2, 2}, {3, 6}, {4, 5}, {5, 12}}

// floorOperand draws a floor's input: rows rows of basis primes, then a
// row of the dropped prime last.
func floorOperand(ctx *Context, rng *rand.Rand, rows, last int) *Poly {
	a := ctx.NewPoly(rows + 1)
	for i := range a.Coeffs {
		prime := i
		if i == rows {
			prime = last
		}
		copy(a.Coeffs[i], edgeRow(rng, ctx.N, ctx.Basis.Primes[prime]))
	}
	return a
}

// The flooring tail must equal the scalar reference on IFMA rows, scalar
// rows and both kinds of dropped prime (vector reduction into the IFMA
// rows, and the fallback), with and without the folded addition and the
// rounding shift, single and paired, landing on the add operand or in
// place on the input.
func TestFloorDropMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, n := range []int{64, 4096} {
		ctx := mixedContext(t, n)
		for _, sh := range floorShapes {
			rows, last := sh.rows, sh.last
			a0, a1 := floorOperand(ctx, rng, rows, last), floorOperand(ctx, rng, rows, last)
			add0, add1 := floorOperand(ctx, rng, rows, last).Resize(rows), floorOperand(ctx, rng, rows, last).Resize(rows)
			for _, round := range []bool{false, true} {
				for _, withAdd := range []bool{false, true} {
					name := fmt.Sprintf("n=%d rows=%d last=%d round=%v add=%v", n, rows, last, round, withAdd)
					d0, d1 := add0, add1
					if !withAdd {
						d0, d1 = nil, nil
					}
					want0 := scalarFloor(ctx, a0, d0, rows, last, round)
					want1 := scalarFloor(ctx, a1, nil, rows, last, round)
					got0, got1 := ctx.NewPolyPair(rows)
					ctx.FloorInto(a0, a1, d0, nil, got0, got1, last, round)
					if !got0.Equal(want0) || !got1.Equal(want1) {
						t.Fatalf("%s: pair differs from the scalar reference", name)
					}
					single := ctx.NewPoly(rows)
					ctx.FloorInto(a0, nil, d0, nil, single, nil, last, round)
					if !single.Equal(want0) {
						t.Fatalf("%s: single differs from the scalar reference", name)
					}
					if withAdd {
						// Landing on the add operand, as a rotation epilogue may.
						in0, in1 := CopyOf(add0), CopyOf(add1)
						ctx.FloorInto(a0, a1, in0, in1, in0, in1, last, round)
						if !in0.Equal(want0) || !in1.Equal(scalarFloor(ctx, a1, d1, rows, last, round)) {
							t.Fatalf("%s: out=add differs from the scalar reference", name)
						}
						continue
					}
					// In place on the input, as an in-place rescale runs.
					in0, in1 := CopyOf(a0), CopyOf(a1)
					ctx.FloorInto(in0, in1, nil, nil, in0.Resize(rows), in1.Resize(rows), last, round)
					if !in0.Resize(rows).Equal(want0) || !in1.Resize(rows).Equal(want1) {
						t.Fatalf("%s: out=a differs from the scalar reference", name)
					}
				}
			}
		}
	}
}

// A tail sum of k terms closed once is the k floors added: the q rows of
// the terms summed mod q_i, their lifted dropped rows summed as integers.
func TestFloorTailSumMatchesFloors(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	ctx := mixedContext(t, 4096)
	for _, sh := range floorShapes {
		rows, last := sh.rows, sh.last
		for _, k := range []int{1, 2, 5} {
			sum0, sum1 := ctx.NewPolyPair(rows)
			acc0, acc1 := ctx.NewPolyPair(rows)
			tail := ctx.NewPoly(2)
			for term := 0; term < k; term++ {
				a0, a1 := floorOperand(ctx, rng, rows, last), floorOperand(ctx, rng, rows, last)
				f0, f1 := ctx.NewPolyPair(rows)
				ctx.FloorInto(a0, a1, nil, nil, f0, f1, last, false)
				ctx.Add(sum0, f0, sum0)
				ctx.Add(sum1, f1, sum1)
				ctx.Add(acc0, a0.Resize(rows), acc0)
				ctx.Add(acc1, a1.Resize(rows), acc1)
				for c, a := range []*Poly{a0, a1} {
					lift := make([]uint64, ctx.N)
					ctx.Tables[last].InverseTo(lift, a.Coeffs[rows])
					for j, v := range lift {
						tail.Coeffs[c][j] += v
					}
				}
			}
			add0, add1 := floorOperand(ctx, rng, rows, last).Resize(rows), floorOperand(ctx, rng, rows, last).Resize(rows)
			want0, want1 := ctx.NewPolyPair(rows)
			ctx.Add(sum0, add0, want0)
			ctx.Add(sum1, add1, want1)
			ch := ctx.FloorChain()
			ch.Add(acc0, acc1)
			ch.FloorTail(tail, k, last, false)
			ch.Add(add0, add1)
			ch.Close(add0, add1)
			if !add0.Equal(want0) || !add1.Equal(want1) {
				t.Fatalf("rows=%d last=%d: a %d-term tail sum differs from %d floors added", rows, last, k, k)
			}
		}
	}
}

// The benchmark's row-map form is FloorInto over a basis prefix, and
// refuses any other map.
func TestFloorDropRowsPairIntoIsPrefixFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	ctx := testContext(t, 64, 4, 45)
	a0, a1 := randPoly(ctx, 4, rng), randPoly(ctx, 4, rng)
	for _, round := range []bool{false, true} {
		want0, want1 := ctx.NewPolyPair(3)
		ctx.FloorInto(a0, a1, nil, nil, want0, want1, 3, round)
		got0, got1 := ctx.NewPolyPair(3)
		ctx.FloorDropRowsPairInto(a0, a1, got0, got1, []int{0, 1, 2, 3}, round, false)
		if !got0.Equal(want0) || !got1.Equal(want1) {
			t.Fatalf("round=%v: FloorDropRowsPairInto differs from FloorInto", round)
		}
	}
	for _, rowPrimes := range [][]int{{0, 1, 3, 2}, {0, 1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rowPrimes %v: expected a panic", rowPrimes)
				}
			}()
			got0, got1 := ctx.NewPolyPair(3)
			ctx.FloorDropRowsPairInto(a0, a1, got0, got1, rowPrimes, false, false)
		}()
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
