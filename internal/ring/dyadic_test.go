package ring

import (
	"fmt"
	"math/rand"
	"runtime"
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

			acc := CopyOf(a1)
			c.MulCoeffsAdd(a0, b0, acc)
			check("MulCoeffsAdd", acc, add(a1, a0b0))

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

// The key-switch MAC row (and decrypt's multiply-add), whole-poly form.
func BenchmarkDyadic_MulCoeffsAdd(b *testing.B) {
	benchDyadic(b, func(c *Context, in [4]*Poly, out [3]*Poly) { c.MulCoeffsAdd(in[0], in[1], out[0]) })
}

func BenchmarkDyadic_Tensor(b *testing.B) {
	benchDyadic(b, func(c *Context, in [4]*Poly, out [3]*Poly) {
		c.MulCoeffsTensor(in[0], in[1], in[2], in[3], out[0], out[1], out[2])
	})
}

func BenchmarkDyadic_Add(b *testing.B) {
	benchDyadic(b, func(c *Context, in [4]*Poly, out [3]*Poly) { c.Add(in[0], in[1], out[0]) })
}
