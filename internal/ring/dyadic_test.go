package ring

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"heax/internal/uintmod"
)

// scalarRows fills out row by row with f(modulus of row i, coefficient j).
func scalarRows(ctx *Context, rows int, f func(m uintmod.Modulus, i, j int) uint64) *Poly {
	out := ctx.NewPoly(rows)
	for i := range out.Coeffs {
		for j := range out.Coeffs[i] {
			out.Coeffs[i][j] = f(ctx.Basis.Mods[i], i, j)
		}
	}
	return out
}

// The elementwise ops must equal the scalar reference bit for bit: on
// 45-bit primes (the IFMA kernels where the host has them), on 55-bit
// primes (the scalar loop on every host), serial and fanned out, into a
// fresh poly and in place. 8·16384 coefficients reach dyadicThreshold;
// 3·64 stay below it.
func TestDyadicOpsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, shape := range []struct{ n, rows, bits int }{
		{64, 3, 45}, {64, 3, 55}, {16384, 8, 45}, {16384, 8, 55},
	} {
		ctx := testContext(t, shape.n, shape.rows, shape.bits)
		if got := ctx.RowIFMA(0); got != (shape.bits == 45 && uintmod.HasIFMA()) {
			t.Fatalf("bits=%d: RowIFMA = %v", shape.bits, got)
		}
		rows := shape.rows
		a0, a1 := randPoly(ctx, rows, rng), randPoly(ctx, rows, rng)
		b0, b1 := randPoly(ctx, rows, rng), randPoly(ctx, rows, rng)
		// Edge residues in the leading lanes of every row.
		for i := 0; i < rows; i++ {
			p := ctx.Basis.Primes[i]
			copy(a0.Coeffs[i], []uint64{p - 1, p - 1, 0, 0, 1})
			copy(b0.Coeffs[i], []uint64{p - 1, 0, p - 1, 0, 1})
			copy(a1.Coeffs[i], []uint64{p - 1, 0, 1})
			copy(b1.Coeffs[i], []uint64{p - 1, 1, 0})
		}
		mul := func(x, y *Poly) *Poly {
			return scalarRows(ctx, rows, func(m uintmod.Modulus, i, j int) uint64 {
				return m.MulMod(x.Coeffs[i][j], y.Coeffs[i][j])
			})
		}
		add := func(x, y *Poly) *Poly {
			return scalarRows(ctx, rows, func(m uintmod.Modulus, i, j int) uint64 {
				return uintmod.AddMod(x.Coeffs[i][j], y.Coeffs[i][j], m.P)
			})
		}
		sub := scalarRows(ctx, rows, func(m uintmod.Modulus, i, j int) uint64 {
			return uintmod.SubMod(a0.Coeffs[i][j], b0.Coeffs[i][j], m.P)
		})
		neg := scalarRows(ctx, rows, func(m uintmod.Modulus, i, j int) uint64 {
			return uintmod.NegMod(a0.Coeffs[i][j], m.P)
		})
		a0b0, a1b0, a1b1 := mul(a0, b0), mul(a1, b0), mul(a1, b1)
		mid := add(mul(a0, b1), a1b0)

		for _, workers := range []int{1, 4} {
			c := ctx.Fork(workers)
			name := fmt.Sprintf("n=%d bits=%d workers=%d", shape.n, shape.bits, workers)
			check := func(op string, got, want *Poly) {
				t.Helper()
				if !got.Equal(want) {
					t.Fatalf("%s: %s differs from the scalar reference", name, op)
				}
			}
			out0, out1, out2 := c.NewPoly(rows), c.NewPoly(rows), c.NewPoly(rows)

			c.Add(a0, b0, out0)
			check("Add", out0, add(a0, b0))
			c.Sub(a0, b0, out0)
			check("Sub", out0, sub)
			c.Neg(a0, out0)
			check("Neg", out0, neg)
			c.MulCoeffs(a0, b0, out0)
			check("MulCoeffs", out0, a0b0)

			c.MulCoeffsPair(a0, a1, b0, out0, out1)
			check("MulCoeffsPair out0", out0, a0b0)
			check("MulCoeffsPair out1", out1, a1b0)

			c.MulCoeffsTensor(a0, a1, b0, b1, out0, out1, out2)
			check("MulCoeffsTensor c0", out0, a0b0)
			check("MulCoeffsTensor c1", out1, mid)
			check("MulCoeffsTensor c2", out2, a1b1)

			// In place, as AddInto/SubInto/MulPlainInto run them when the
			// output ciphertext is an operand.
			x := CopyOf(a0)
			c.Add(x, b0, x)
			check("Add out=a", x, add(a0, b0))
			x = CopyOf(b0)
			c.Sub(a0, x, x)
			check("Sub out=b", x, sub)
			x = CopyOf(a0)
			c.Neg(x, x)
			check("Neg out=a", x, neg)
			x, y := CopyOf(a0), CopyOf(a1)
			c.MulCoeffsPair(x, y, b0, x, y)
			check("MulCoeffsPair out0=a0", x, a0b0)
			check("MulCoeffsPair out1=a1", y, a1b0)
		}
		ctx.Close()
	}
}

// MulCoeffsRow is what Table 7's "Dyadic" row times; it must be the row
// MulCoeffs runs.
func TestMulCoeffsRowMatchesMulCoeffs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, bits := range []int{45, 55} {
		ctx := testContext(t, 64, 2, bits)
		a, b := randPoly(ctx, 2, rng), randPoly(ctx, 2, rng)
		want := ctx.NewPoly(2)
		ctx.MulCoeffs(a, b, want)
		got := ctx.NewPoly(2)
		for i := range got.Coeffs {
			ctx.MulCoeffsRow(a.Coeffs[i], b.Coeffs[i], got.Coeffs[i], i)
		}
		if !got.Equal(want) {
			t.Fatalf("bits=%d: MulCoeffsRow != MulCoeffs", bits)
		}
	}
}

// dotTerms draws terms dot-product terms of rows rows, every row led by
// the extremes of its prime so the unreduced sums run as high as they can.
func dotTerms(ctx *Context, rows, terms int, rng *rand.Rand) []DotTerm {
	ts := make([]DotTerm, terms)
	for t := range ts {
		ts[t] = DotTerm{randPoly(ctx, rows, rng), randPoly(ctx, rows, rng), randPoly(ctx, rows, rng)}
		for i := 0; i < rows; i++ {
			p := ctx.Basis.Primes[i]
			for _, x := range []*Poly{ts[t].X0, ts[t].X1, ts[t].Y} {
				copy(x.Coeffs[i], []uint64{p - 1, p - 1, p - 1, p - 1, 0, 1})
			}
		}
	}
	return ts
}

// MulCoeffsDotPair must equal the MulMod/AddMod loop on every row of the
// mixed basis — the IFMA kernel on the 45- to 49-bit rows (block limits
// of 64 down to 4 products, so the lists below end inside a block, on its
// edge and past it), the scalar loop on the 52- to 58-bit rows — serial
// and fanned out, with and without a sum carried in, reading only the
// rows the output has and leaving its operands alone.
func TestDotPairMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{64, 4096} {
		ctx := mixedContext(t, n)
		full := ctx.K()
		for _, rows := range []int{full, 3} {
			for _, count := range []int{1, 2, 4, 5, 9, DotChunk} {
				terms := dotTerms(ctx, full, count, rng)
				saved := make([]DotTerm, count)
				for i, tm := range terms {
					saved[i] = DotTerm{CopyOf(tm.X0), CopyOf(tm.X1), CopyOf(tm.Y)}
				}
				carry0, carry1 := randPoly(ctx, rows, rng), randPoly(ctx, rows, rng)
				for _, acc := range []bool{false, true} {
					want := func(x func(DotTerm) *Poly, carry *Poly) *Poly {
						return scalarRows(ctx, rows, func(m uintmod.Modulus, i, j int) uint64 {
							var s uint64
							if acc {
								s = carry.Coeffs[i][j]
							}
							for _, tm := range terms {
								s = uintmod.AddMod(s, m.MulMod(x(tm).Coeffs[i][j], tm.Y.Coeffs[i][j]), m.P)
							}
							return s
						})
					}
					want0 := want(func(tm DotTerm) *Poly { return tm.X0 }, carry0)
					want1 := want(func(tm DotTerm) *Poly { return tm.X1 }, carry1)
					for _, workers := range []int{1, 4} {
						c := ctx.Fork(workers)
						out0, out1 := CopyOf(carry0), CopyOf(carry1)
						c.MulCoeffsDotPair(terms, acc, out0, out1)
						if !out0.Equal(want0) || !out1.Equal(want1) {
							t.Fatalf("n=%d rows=%d terms=%d acc=%v workers=%d: differs from the scalar reference",
								n, rows, count, acc, workers)
						}
					}
				}
				for i, tm := range terms {
					if !tm.X0.Equal(saved[i].X0) || !tm.X1.Equal(saved[i].X1) || !tm.Y.Equal(saved[i].Y) {
						t.Fatalf("n=%d terms=%d: term %d was modified", n, count, i)
					}
				}
			}
		}
		ctx.Close()
	}
}

// MulCoeffsDotPairRow with one term is the key switch's MAC: a digit row
// against two independent key rows, stored over an unzeroed accumulator
// (digit 0) and then added (digit 1), row by row. It must equal the
// MulMod/AddMod pair on every row of the mixed basis — the IFMA kernel on
// the 45- to 49-bit rows, the scalar loop on the 52- to 58-bit rows —
// with p-1 in the leading lanes of every operand and the carried sum.
func TestMulCoeffsDotPairRow(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, n := range []int{64, 4096} {
		ctx := mixedContext(t, n)
		rows := ctx.K()
		var digits [2][3]*Poly // {key0, key1, b} for two digits
		for d := range digits {
			for r := range digits[d] {
				digits[d][r] = randPoly(ctx, rows, rng)
				for i := 0; i < rows; i++ {
					copy(digits[d][r].Coeffs[i], []uint64{ctx.Basis.Primes[i] - 1, ctx.Basis.Primes[i] - 1, 0, 1})
				}
			}
		}
		garbage := randPoly(ctx, rows, rng)
		for i := 0; i < rows; i++ {
			copy(garbage.Coeffs[i], []uint64{ctx.Basis.Primes[i] - 1})
		}
		want := func(k int) *Poly {
			return scalarRows(ctx, rows, func(m uintmod.Modulus, i, j int) uint64 {
				var s uint64
				for _, d := range digits {
					s = uintmod.AddMod(s, m.MulMod(d[k].Coeffs[i][j], d[2].Coeffs[i][j]), m.P)
				}
				return s
			})
		}
		want0, want1 := want(0), want(1)
		acc0, acc1 := CopyOf(garbage), CopyOf(garbage)
		for i := 0; i < rows; i++ {
			if wantIFMA := ctx.Basis.Primes[i] < 1<<50 && uintmod.HasIFMA(); ctx.RowIFMA(i) != wantIFMA {
				t.Fatalf("n=%d row %d: RowIFMA = %v", n, i, !wantIFMA)
			}
			for d, dg := range digits {
				term := [1][3][]uint64{{dg[0].Coeffs[i], dg[1].Coeffs[i], dg[2].Coeffs[i]}}
				ctx.MulCoeffsDotPairRow(term[:], d > 0, acc0.Coeffs[i], acc1.Coeffs[i], i)
			}
			if !slices.Equal(acc0.Coeffs[i], want0.Coeffs[i]) || !slices.Equal(acc1.Coeffs[i], want1.Coeffs[i]) {
				t.Fatalf("n=%d row %d (%d-bit prime): differs from the scalar reference",
					n, i, bits.Len64(ctx.Basis.Primes[i]))
			}
		}
		ctx.Close()
	}
}

// compactPoly draws a compact plaintext of rows rows, N/8 values each
// led by p-1, and returns it with the full rows it stands for.
func compactPoly(ctx *Context, rows int, rng *rand.Rand) (compact, full *Poly) {
	compact, full = &Poly{Coeffs: make([][]uint64, rows)}, ctx.NewPoly(rows)
	for i := range compact.Coeffs {
		p := ctx.Basis.Primes[i]
		row := make([]uint64, ctx.N/uintmod.Lanes)
		for j := range row {
			row[j] = rng.Uint64() % p
		}
		row[0] = p - 1
		for j := range full.Coeffs[i] {
			full.Coeffs[i][j] = row[j/uintmod.Lanes]
		}
		compact.Coeffs[i] = row
	}
	return compact, full
}

// A compact plaintext operand must give what its expansion gives, in
// MulCoeffsPair and in MulCoeffsDotPair with compact and full terms mixed,
// on the IFMA rows and the scalar rows of the mixed basis, serial and
// fanned out; an operand row of any other length panics.
func TestCompactPlaintextRows(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, n := range []int{64, 4096} {
		ctx := mixedContext(t, n)
		rows := ctx.K()
		for _, count := range []int{1, 2, 5, DotChunk} {
			terms := dotTerms(ctx, rows, count, rng)
			full := slices.Clone(terms)
			for j := 0; j < count; j += 2 {
				terms[j].Y, full[j].Y = compactPoly(ctx, rows, rng)
			}
			carry0, carry1 := randPoly(ctx, rows, rng), randPoly(ctx, rows, rng)
			for _, workers := range []int{1, 4} {
				c := ctx.Fork(workers)
				name := fmt.Sprintf("n=%d terms=%d workers=%d", n, count, workers)
				for _, acc := range []bool{false, true} {
					want0, want1 := CopyOf(carry0), CopyOf(carry1)
					c.MulCoeffsDotPair(full, acc, want0, want1)
					out0, out1 := CopyOf(carry0), CopyOf(carry1)
					c.MulCoeffsDotPair(terms, acc, out0, out1)
					if !out0.Equal(want0) || !out1.Equal(want1) {
						t.Fatalf("%s acc=%v: MulCoeffsDotPair with compact terms differs from the expanded ones", name, acc)
					}
				}
				want0, want1 := c.NewPoly(rows), c.NewPoly(rows)
				c.MulCoeffsPair(terms[0].X0, terms[0].X1, full[0].Y, want0, want1)
				out0, out1 := c.NewPoly(rows), c.NewPoly(rows)
				c.MulCoeffsPair(terms[0].X0, terms[0].X1, terms[0].Y, out0, out1)
				if !out0.Equal(want0) || !out1.Equal(want1) {
					t.Fatalf("%s: MulCoeffsPair with a compact operand differs from the expanded one", name)
				}
			}
		}

		half := &Poly{Coeffs: make([][]uint64, rows)}
		for i := range half.Coeffs {
			half.Coeffs[i] = make([]uint64, n/2)
		}
		x0, x1 := randPoly(ctx, rows, rng), randPoly(ctx, rows, rng)
		out0, out1 := ctx.NewPoly(rows), ctx.NewPoly(rows)
		for name, call := range map[string]func(){
			"MulCoeffsPair":    func() { ctx.MulCoeffsPair(x0, x1, half, out0, out1) },
			"MulCoeffsDotPair": func() { ctx.MulCoeffsDotPair([]DotTerm{{x0, x1, half}}, false, out0, out1) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("n=%d: %s took an operand of N/2 values a row", n, name)
					}
				}()
				call()
			}()
		}
		ctx.Close()
	}
}

// --- micro-benchmarks for paired parent/change runs ---------------------

// dyadicSink keeps the measured calls' results alive.
var dyadicSink *Poly

// benchDyadic runs op at the Set-A (n = 2^12, 2 rows of 36-bit primes)
// and Set-C (n = 2^14, 8 rows of 49-bit primes) ciphertext shapes, serial
// and at the default worker count.
func benchDyadic(b *testing.B, op func(c *Context, in [4]*Poly, out [3]*Poly)) {
	for _, shape := range []struct {
		name          string
		n, rows, bits int
	}{{"Set-A", 1 << 12, 2, 36}, {"Set-C", 1 << 14, 8, 49}} {
		ctx := testContext(b, shape.n, shape.rows, shape.bits)
		rng := rand.New(rand.NewSource(43))
		var in [4]*Poly
		for i := range in {
			in[i] = randPoly(ctx, shape.rows, rng)
		}
		out := [3]*Poly{ctx.NewPoly(shape.rows), ctx.NewPoly(shape.rows), ctx.NewPoly(shape.rows)}
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			c := ctx.Fork(workers)
			b.Run(fmt.Sprintf("%s/workers=%d", shape.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					op(c, in, out)
				}
				dyadicSink = out[0]
			})
		}
		ctx.Close()
	}
}

func BenchmarkDyadic_MulCoeffs(b *testing.B) {
	benchDyadic(b, func(c *Context, in [4]*Poly, out [3]*Poly) { c.MulCoeffs(in[0], in[1], out[0]) })
}

func BenchmarkDyadic_MulCoeffsPair(b *testing.B) {
	benchDyadic(b, func(c *Context, in [4]*Poly, out [3]*Poly) {
		c.MulCoeffsPair(in[0], in[1], in[2], out[0], out[1])
	})
}

func BenchmarkDyadic_Tensor(b *testing.B) {
	benchDyadic(b, func(c *Context, in [4]*Poly, out [3]*Poly) {
		c.MulCoeffsTensor(in[0], in[1], in[2], in[3], out[0], out[1], out[2])
	})
}

func BenchmarkDyadic_Add(b *testing.B) {
	benchDyadic(b, func(c *Context, in [4]*Poly, out [3]*Poly) { c.Add(in[0], in[1], out[0]) })
}

// One Σ ctₜ ⊙ ptₜ at the three Table 2 shapes, reported per term and row
// so it reads against the MulCoeffsPair plus two Add rows it replaces.
// Distinct operands per term, as a BSGS inner sum has: 16 terms are 3 MB
// at Set-A, 8 terms 25 MB at Set-C.
func BenchmarkDyadic_DotPair(b *testing.B) {
	for _, shape := range []struct {
		name                 string
		n, rows, bits, terms int
	}{{"Set-A", 1 << 12, 2, 36, 16}, {"Set-B", 1 << 13, 4, 43, 16}, {"Set-C", 1 << 14, 8, 49, 8}} {
		ctx := testContext(b, shape.n, shape.rows, shape.bits)
		terms := dotTerms(ctx, shape.rows, shape.terms, rand.New(rand.NewSource(45)))
		out0, out1 := ctx.NewPoly(shape.rows), ctx.NewPoly(shape.rows)
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			c := ctx.Fork(workers)
			b.Run(fmt.Sprintf("%s/terms=%d/workers=%d", shape.name, shape.terms, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c.MulCoeffsDotPair(terms, false, out0, out1)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*shape.terms*shape.rows), "ns/term-row")
				dyadicSink = out0
			})
		}
		ctx.Close()
	}
}
