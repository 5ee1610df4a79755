package uintmod

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"
)

// prevPrime returns the largest prime below x.
func prevPrime(x uint64) uint64 {
	for p := x - 1; ; p-- {
		if new(big.Int).SetUint64(p).ProbablyPrime(20) {
			return p
		}
	}
}

// dyadicPrimes covers every Table 2 prime size, the largest modulus the
// vector kernels accept, two small primes (the largest lane shifts) and a
// 55-bit prime, which takes the portable loops on every host.
func dyadicPrimes() []uint64 {
	ps := []uint64{257, 12289}
	for _, bits := range []uint{36, 37, 43, 46, 49, 50, 55} {
		ps = append(ps, prevPrime(1<<bits))
	}
	return ps
}

// dyadicRow draws n residues mod p. The first nine lanes hold edge
// values — edge[i%3], or edge[i/3] when byThrees — so a plain row and a
// byThrees row meet in all nine pairings (eight when n = 8, the first
// being edge[0] with edge[0]); the rest are uniform.
func dyadicRow(rng *rand.Rand, n int, p uint64, edge [3]uint64, byThrees bool) []uint64 {
	row := make([]uint64, n)
	for i := range row {
		switch {
		case i >= 9:
			row[i] = rng.Uint64() % p
		case byThrees:
			row[i] = edge[i/3]
		default:
			row[i] = edge[i%3]
		}
	}
	return row
}

// forEachDyadicCase runs f for every (prime, n) the kernels are specified
// for, with four operand rows: rows 0 and 1, and rows 2 and 3, pair up
// {0, 1, p-1} in their leading lanes. On an IFMA host every prime below
// 2^50 takes the vector route, elsewhere every prime the portable one.
func forEachDyadicCase(t *testing.T, f func(t *testing.T, m Modulus, rows [4][]uint64)) {
	rng := rand.New(rand.NewSource(13))
	for _, p := range dyadicPrimes() {
		for _, n := range []int{8, 16, 64, 4096} {
			if want := HasIFMA() && p < 1<<50; IFMAUsable(p, n) != want {
				t.Fatalf("IFMAUsable(%d, %d) = %v", p, n, !want)
			}
			t.Run(fmt.Sprintf("p=%d/n=%d", p, n), func(t *testing.T) {
				e, f2 := [3]uint64{p - 1, 0, 1}, [3]uint64{1, p - 1, 0}
				f(t, NewModulus(p), [4][]uint64{
					dyadicRow(rng, n, p, e, false), dyadicRow(rng, n, p, e, true),
					dyadicRow(rng, n, p, f2, false), dyadicRow(rng, n, p, f2, true),
				})
			})
		}
	}
}

func checkRow(t *testing.T, what string, got []uint64, want func(i int) uint64) {
	t.Helper()
	for i := range got {
		if w := want(i); got[i] != w {
			t.Fatalf("%s lane %d: got %d want %d", what, i, got[i], w)
		}
	}
}

// binaryKernel checks a two-operand kernel into a fresh row, in place on
// x, in place on y, and squaring (all three the same slice).
func binaryKernel(t *testing.T, name string, kernel func(out, x, y []uint64, p uint64),
	ref func(m Modulus, x, y uint64) uint64) {
	forEachDyadicCase(t, func(t *testing.T, m Modulus, rows [4][]uint64) {
		x, y := rows[0], rows[1]
		out := make([]uint64, len(x))
		kernel(out, x, y, m.P)
		checkRow(t, name, out, func(i int) uint64 { return ref(m, x[i], y[i]) })

		ax := slices.Clone(x)
		kernel(ax, ax, y, m.P)
		checkRow(t, name+" out=x", ax, func(i int) uint64 { return ref(m, x[i], y[i]) })

		ay := slices.Clone(y)
		kernel(ay, x, ay, m.P)
		checkRow(t, name+" out=y", ay, func(i int) uint64 { return ref(m, x[i], y[i]) })

		sq := slices.Clone(x)
		kernel(sq, sq, sq, m.P)
		checkRow(t, name+" out=x=y", sq, func(i int) uint64 { return ref(m, x[i], x[i]) })
	})
}

func TestVecMul(t *testing.T) {
	binaryKernel(t, "VecMul", VecMul, func(m Modulus, x, y uint64) uint64 { return m.MulMod(x, y) })
}

func TestVecAdd(t *testing.T) {
	binaryKernel(t, "VecAdd", VecAdd, func(m Modulus, x, y uint64) uint64 { return AddMod(x, y, m.P) })
}

func TestVecSub(t *testing.T) {
	binaryKernel(t, "VecSub", VecSub, func(m Modulus, x, y uint64) uint64 { return SubMod(x, y, m.P) })
}

// A negation is a one-row VecLinComb of weight p-1, as ring.Neg runs it.
func TestVecNeg(t *testing.T) {
	forEachDyadicCase(t, func(t *testing.T, m Modulus, rows [4][]uint64) {
		x := rows[0]
		want := func(i int) uint64 { return NegMod(x[i], m.P) }
		out := make([]uint64, len(x))
		VecLinComb(out, [][]uint64{x}, []uint64{m.P - 1}, 0, m.P, m.P)
		checkRow(t, "negation", out, want)
		ax := slices.Clone(x)
		VecLinComb(ax, [][]uint64{ax}, []uint64{m.P - 1}, 0, m.P, m.P)
		checkRow(t, "negation out=x", ax, want)
	})
}

func TestVecMulPair(t *testing.T) {
	forEachDyadicCase(t, func(t *testing.T, m Modulus, rows [4][]uint64) {
		x0, y, x1 := rows[0], rows[1], rows[2]
		out0, out1 := make([]uint64, len(y)), make([]uint64, len(y))
		VecMulPair(out0, out1, x0, x1, y, m.P)
		checkRow(t, "VecMulPair out0", out0, func(i int) uint64 { return m.MulMod(x0[i], y[i]) })
		checkRow(t, "VecMulPair out1", out1, func(i int) uint64 { return m.MulMod(x1[i], y[i]) })

		// In place on the ciphertext rows, as MulPlainInto(ct, pt, ct) runs it.
		a0, a1 := slices.Clone(x0), slices.Clone(x1)
		VecMulPair(a0, a1, a0, a1, y, m.P)
		checkRow(t, "VecMulPair out0=x0", a0, func(i int) uint64 { return m.MulMod(x0[i], y[i]) })
		checkRow(t, "VecMulPair out1=x1", a1, func(i int) uint64 { return m.MulMod(x1[i], y[i]) })

		// The second output landing on the shared operand.
		ay := slices.Clone(y)
		VecMulPair(out0, ay, x0, x1, ay, m.P)
		checkRow(t, "VecMulPair out1=y (out0)", out0, func(i int) uint64 { return m.MulMod(x0[i], y[i]) })
		checkRow(t, "VecMulPair out1=y", ay, func(i int) uint64 { return m.MulMod(x1[i], y[i]) })
	})
}

// TestVecDotPairOneTerm: one term — the key switch's MAC, a converted
// digit row y read once against two independent key rows x0 and x1 —
// equals the MulMod/AddMod pair on every case forEachDyadicCase covers,
// stored over whatever the outputs held (digit 0 into unzeroed
// accumulators) and added to it (every later digit).
func TestVecDotPairOneTerm(t *testing.T) {
	forEachDyadicCase(t, func(t *testing.T, m Modulus, rows [4][]uint64) {
		x0, y, x1, carry := rows[0], rows[1], rows[2], rows[3]
		term := [][3][]uint64{{x0, x1, y}}
		for _, acc := range []bool{false, true} {
			out0, out1 := slices.Clone(carry), slices.Clone(y)
			VecDotPair(out0, out1, term, acc, m.P)
			want := func(x, held []uint64) func(i int) uint64 {
				return func(i int) uint64 {
					var s uint64
					if acc {
						s = held[i]
					}
					return AddMod(s, m.MulMod(x[i], y[i]), m.P)
				}
			}
			what := fmt.Sprintf("VecDotPair one term, acc=%v", acc)
			checkRow(t, what+" out0", out0, want(x0, carry))
			checkRow(t, what+" out1", out1, want(x1, y))
		}
	})
}

// TestVecDotPair: the deferred-reduction dot product equals the
// MulMod/AddMod loop at every prime size and on both sides of each
// prime's block limit, with every lane at p-1 (the largest unreduced
// sums), lanes alternating 0 and p-1, and random lanes; with and without
// an accumulator carried in.
func TestVecDotPair(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const n = 16
	fills := map[string]func(i int, p uint64) uint64{
		"max":         func(_ int, p uint64) uint64 { return p - 1 },
		"alternating": func(i int, p uint64) uint64 { return uint64(i&1) * (p - 1) },
		"random":      func(_ int, p uint64) uint64 { return rng.Uint64() % p },
	}
	for _, bitlen := range []uint{30, 36, 43, 46, 49, 50} {
		p := prevPrime(1 << bitlen)
		m := NewModulus(p)
		limit := dotPairLimit(p)
		for _, count := range []int{1, 2, 3, limit - 1, limit, limit + 1, 300} {
			if count < 1 {
				continue
			}
			for name, fill := range fills {
				terms := make([][3][]uint64, count)
				for j := range terms {
					for r := range terms[j] {
						terms[j][r] = make([]uint64, n)
						for i := range terms[j][r] {
							terms[j][r][i] = fill(i+j+r, p)
						}
					}
				}
				for _, acc := range []bool{false, true} {
					out0, out1 := make([]uint64, n), make([]uint64, n)
					want0, want1 := make([]uint64, n), make([]uint64, n)
					if acc {
						for i := range out0 {
							out0[i], out1[i] = fill(i, p), p-1
							want0[i], want1[i] = out0[i], out1[i]
						}
					}
					for _, tm := range terms {
						for i := range want0 {
							want0[i] = AddMod(want0[i], m.MulMod(tm[0][i], tm[2][i]), p)
							want1[i] = AddMod(want1[i], m.MulMod(tm[1][i], tm[2][i]), p)
						}
					}
					VecDotPair(out0, out1, terms, acc, p)
					what := fmt.Sprintf("%d bits, %d terms (limit %d), %s, acc=%v", bitlen, count, limit, name, acc)
					checkRow(t, what+" out0", out0, func(i int) uint64 { return want0[i] })
					checkRow(t, what+" out1", out1, func(i int) uint64 { return want1[i] })
				}
			}
		}
	}

	// The key switch's MAC shape: whole Set-A and Set-C rows, one term of
	// two independent key rows and a converted digit row, stored and
	// accumulated, at the Table 2 prime sizes and the largest the kernel
	// takes.
	for _, bitlen := range []uint{36, 43, 49, 50} {
		p := prevPrime(1 << bitlen)
		m := NewModulus(p)
		for _, n := range []int{1 << 12, 1 << 14} {
			for name, fill := range fills {
				var term [3][]uint64
				for r := range term {
					term[r] = make([]uint64, n)
					for i := range term[r] {
						term[r][i] = fill(i+r, p)
					}
				}
				for _, acc := range []bool{false, true} {
					out0, out1 := make([]uint64, n), make([]uint64, n)
					want0, want1 := make([]uint64, n), make([]uint64, n)
					for i := range out0 {
						out0[i], out1[i] = fill(i, p), fill(i+1, p)
						if acc {
							want0[i], want1[i] = out0[i], out1[i]
						}
						want0[i] = AddMod(want0[i], m.MulMod(term[0][i], term[2][i]), p)
						want1[i] = AddMod(want1[i], m.MulMod(term[1][i], term[2][i]), p)
					}
					VecDotPair(out0, out1, [][3][]uint64{term}, acc, p)
					what := fmt.Sprintf("%d bits, n=%d, one term, %s, acc=%v", bitlen, n, name, acc)
					checkRow(t, what+" out0", out0, func(i int) uint64 { return want0[i] })
					checkRow(t, what+" out1", out1, func(i int) uint64 { return want1[i] })
				}
			}
		}
	}
}

// expandRow returns the full row of n lanes a compact row stands for.
func expandRow(y []uint64, n int) []uint64 {
	full := make([]uint64, n)
	for i := range full {
		full[i] = y[i/Lanes]
	}
	return full
}

// TestCompactOperand: a compact y (one value per 8-lane block) gives what
// the same call gives with y expanded to a full row, in VecMulPair (also
// in place) and in VecDotPair for every term count up to DotChunk, with
// compact and full terms mixed, with and without a carried sum, on the
// Set-A/B/C primes (36/37-, 43/46- and 49-bit) and the largest kernel
// prime, whose one-product blocks change which term starts a reduction.
func TestCompactOperand(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const dotChunk = 16 // ring.DotChunk
	for _, bitlen := range []uint{36, 37, 43, 46, 49, 50} {
		p := prevPrime(1 << bitlen)
		e := [3]uint64{p - 1, 0, 1}
		for _, n := range []int{8, 64, 4096} {
			row := func() []uint64 { return dyadicRow(rng, n, p, e, rng.Intn(2) == 0) }
			what := fmt.Sprintf("%d bits, n=%d", bitlen, n)

			x0, x1, y := row(), row(), dyadicRow(rng, n/Lanes, p, e, false)
			yFull := expandRow(y, n)
			want0, want1 := make([]uint64, n), make([]uint64, n)
			VecMulPair(want0, want1, x0, x1, yFull, p)
			out0, out1 := make([]uint64, n), make([]uint64, n)
			VecMulPair(out0, out1, x0, x1, y, p)
			checkRow(t, what+" VecMulPair out0", out0, func(i int) uint64 { return want0[i] })
			checkRow(t, what+" VecMulPair out1", out1, func(i int) uint64 { return want1[i] })
			a0, a1 := slices.Clone(x0), slices.Clone(x1)
			VecMulPair(a0, a1, a0, a1, y, p)
			checkRow(t, what+" VecMulPair out0=x0", a0, func(i int) uint64 { return want0[i] })
			checkRow(t, what+" VecMulPair out1=x1", a1, func(i int) uint64 { return want1[i] })

			for count := 1; count <= dotChunk; count++ {
				// Every term compact, every term full but the first, and a
				// random mix.
				for mix := 0; mix < 3; mix++ {
					terms := make([][3][]uint64, count)
					full := make([][3][]uint64, count)
					for j := range terms {
						terms[j] = [3][]uint64{row(), row(), row()}
						full[j] = terms[j]
						if mix == 0 || mix == 1 && j == 0 || mix == 2 && rng.Intn(2) == 0 {
							terms[j][2] = dyadicRow(rng, n/Lanes, p, e, j%2 == 0)
							full[j][2] = expandRow(terms[j][2], n)
						}
					}
					carry0, carry1 := row(), row()
					for _, acc := range []bool{false, true} {
						want0, want1 := slices.Clone(carry0), slices.Clone(carry1)
						VecDotPair(want0, want1, full, acc, p)
						out0, out1 := slices.Clone(carry0), slices.Clone(carry1)
						VecDotPair(out0, out1, terms, acc, p)
						name := fmt.Sprintf("%s, %d terms, mix %d, acc=%v: VecDotPair", what, count, mix, acc)
						checkRow(t, name+" out0", out0, func(i int) uint64 { return want0[i] })
						checkRow(t, name+" out1", out1, func(i int) uint64 { return want1[i] })
					}
				}
			}
		}
	}
}

// TestOperandShift: a row of n lanes takes an operand of n or n/8 values
// and nothing else.
func TestOperandShift(t *testing.T) {
	for _, tc := range []struct {
		len, n int
		want   uint
	}{{4096, 4096, 0}, {512, 4096, 3}, {1, 8, 3}, {8, 8, 0}} {
		if got := OperandShift(make([]uint64, tc.len), tc.n); got != tc.want {
			t.Errorf("OperandShift(len %d, n %d) = %d, want %d", tc.len, tc.n, got, tc.want)
		}
	}
	for _, bad := range [][2]int{{2048, 4096}, {513, 4096}, {0, 4096}, {4097, 4096}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("OperandShift(len %d, n %d) did not panic", bad[0], bad[1])
				}
			}()
			OperandShift(make([]uint64, bad[0]), bad[1])
		}()
	}
}

// TestDotPairLimit pins the block limits DESIGN.md tabulates.
func TestDotPairLimit(t *testing.T) {
	for bitlen, want := range map[uint]int{30: 4095, 36: 4095, 37: 4095, 39: 4095, 40: 2048, 43: 256, 46: 32, 48: 8, 49: 4, 50: 1} {
		if got := dotPairLimit(prevPrime(1 << bitlen)); got != want {
			t.Errorf("dotPairLimit(%d bits) = %d, want %d", bitlen, got, want)
		}
	}
}

func TestVecMulTensor(t *testing.T) {
	forEachDyadicCase(t, func(t *testing.T, m Modulus, rows [4][]uint64) {
		a0, b0, a1, b1 := rows[0], rows[1], rows[2], rows[3]
		want0 := func(i int) uint64 { return m.MulMod(a0[i], b0[i]) }
		want1 := func(i int) uint64 {
			return AddMod(m.MulMod(a0[i], b1[i]), m.MulMod(a1[i], b0[i]), m.P)
		}
		want2 := func(i int) uint64 { return m.MulMod(a1[i], b1[i]) }
		n := len(a0)
		c0, c1, c2 := make([]uint64, n), make([]uint64, n), make([]uint64, n)
		VecMulTensor(c0, c1, c2, a0, a1, b0, b1, m.P)
		checkRow(t, "VecMulTensor c0", c0, want0)
		checkRow(t, "VecMulTensor c1", c1, want1)
		checkRow(t, "VecMulTensor c2", c2, want2)

		// Outputs landing on the first operand's rows and on a b row.
		x0, x1, y1 := slices.Clone(a0), slices.Clone(a1), slices.Clone(b1)
		VecMulTensor(x0, x1, y1, x0, x1, b0, y1, m.P)
		checkRow(t, "VecMulTensor c0=a0", x0, want0)
		checkRow(t, "VecMulTensor c1=a1", x1, want1)
		checkRow(t, "VecMulTensor c2=b1", y1, want2)

		// The extreme of the fused middle term: both products (p-1)^2.
		top := make([]uint64, n)
		for i := range top {
			top[i] = m.P - 1
		}
		VecMulTensor(c0, c1, c2, top, top, top, top, m.P)
		checkRow(t, "VecMulTensor c1 at (p-1)^2", c1, func(int) uint64 { return 2 % m.P })
	})
}

// A reduction is a one-row VecLinComb of weight 1 and add = -sub mod p,
// as the RNS base conversion runs it. It takes any word below its bound —
// a residue of another prime — so the leading lanes walk the multiples of
// p and the top of the 52-bit range instead of dyadicRow's reduced edges;
// sub covers no rounding shift, the smallest, the largest and an
// arbitrary one.
func TestVecReduce(t *testing.T) {
	forEachDyadicCase(t, func(t *testing.T, m Modulus, rows [4][]uint64) {
		p := m.P
		x := slices.Clone(rows[0])
		rng := rand.New(rand.NewSource(int64(p)))
		for i := range x {
			x[i] = rng.Uint64() >> 12
		}
		copy(x, []uint64{0, p - 1, p, p + 1, 2*p - 1, 1<<52 - 1, 1<<52 - p, 3 * p})
		bound := slices.Max(x) + 1
		for _, sub := range []uint64{0, 1, p - 1, rows[1][len(x)-1]} {
			want := func(i int) uint64 { return SubMod(m.Reduce(x[i]), sub, p) }
			out := make([]uint64, len(x))
			VecLinComb(out, [][]uint64{x}, []uint64{1}, NegMod(sub, p), bound, p)
			checkRow(t, fmt.Sprintf("reduction sub=%d", sub), out, want)
			ax := slices.Clone(x)
			VecLinComb(ax, [][]uint64{ax}, []uint64{1}, NegMod(sub, p), bound, p)
			checkRow(t, fmt.Sprintf("reduction out=x sub=%d", sub), ax, want)
		}
	})
}

func TestVecSubMulAdd(t *testing.T) {
	forEachDyadicCase(t, func(t *testing.T, m Modulus, rows [4][]uint64) {
		p := m.P
		a, r, add := rows[0], rows[1], rows[2]
		for _, w := range []uint64{0, 1, p - 1, rows[3][len(a)-1]} {
			ws := ShoupPrecomp(w, p)
			mul := func(i int) uint64 { return MulRed(SubMod(a[i], r[i], p), w, ws, p) }
			sum := func(i int) uint64 { return AddMod(mul(i), add[i], p) }
			out := make([]uint64, len(a))
			VecSubMulAdd(out, a, r, nil, w, p)
			checkRow(t, fmt.Sprintf("VecSubMulAdd w=%d", w), out, mul)
			VecSubMulAdd(out, a, r, add, w, p)
			checkRow(t, fmt.Sprintf("VecSubMulAdd w=%d +add", w), out, sum)

			// In place on each operand, as the flooring tail may land on
			// its accumulator row or on the add operand's.
			aa := slices.Clone(a)
			VecSubMulAdd(aa, aa, r, add, w, p)
			checkRow(t, "VecSubMulAdd out=a", aa, sum)
			ar := slices.Clone(r)
			VecSubMulAdd(ar, a, ar, nil, w, p)
			checkRow(t, "VecSubMulAdd out=r", ar, mul)
			ad := slices.Clone(add)
			VecSubMulAdd(ad, a, r, ad, w, p)
			checkRow(t, "VecSubMulAdd out=add", ad, sum)
		}
	})
}

// VecSubMulAdd runs four blocks a pass and the rest one at a time: every
// row length from 1 to 11 blocks (0-2 four-block passes, each remainder),
// with and without add and in place, must equal the scalar formula.
func TestVecSubMulAddBlockCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, p := range []uint64{prevPrime(1 << 36), prevPrime(1 << 49), prevPrime(1 << 50)} {
		for blocks := 1; blocks <= 11; blocks++ {
			n := 8 * blocks
			e := [3]uint64{p - 1, 0, 1}
			a, r, add := dyadicRow(rng, n, p, e, false), dyadicRow(rng, n, p, e, true), dyadicRow(rng, n, p, e, false)
			w := rng.Uint64() % p
			ws := ShoupPrecomp(w, p)
			mul := func(i int) uint64 { return MulRed(SubMod(a[i], r[i], p), w, ws, p) }
			sum := func(i int) uint64 { return AddMod(mul(i), add[i], p) }
			what := fmt.Sprintf("p=%d n=%d", p, n)
			out := make([]uint64, n)
			VecSubMulAdd(out, a, r, nil, w, p)
			checkRow(t, what, out, mul)
			VecSubMulAdd(out, a, r, add, w, p)
			checkRow(t, what+" +add", out, sum)
			aa := slices.Clone(a)
			VecSubMulAdd(aa, aa, r, add, w, p)
			checkRow(t, what+" out=a", aa, sum)
		}
	}
}

// VecLinComb must equal the products reduced one by one and summed: for 1
// to LinCombTerms rows and for sums longer than one pass, of residues and
// of values up to 2^52 - 1 (a wider prime's residues, unreduced), the
// extreme weights among them, with and without a constant, landing apart
// or on one of the first pass's rows. Rows past 2^52 — a tail sum of wide
// primes — must take the portable loop on every prime: a 52-bit lane
// would drop their top bits.
func TestVecLinComb(t *testing.T) {
	forEachDyadicCase(t, func(t *testing.T, m Modulus, rows [4][]uint64) {
		p, n := m.P, len(rows[0])
		rng := rand.New(rand.NewSource(int64(p % 1000)))
		wide, huge := make([]uint64, n), make([]uint64, n)
		for i := range wide {
			wide[i], huge[i] = rng.Uint64()>>12, rng.Uint64()
		}
		wide[0], wide[n-1] = 1<<52-1, p
		huge[0] = ^uint64(0) - 1
		draw := func(terms int, pool ...[]uint64) ([][]uint64, []uint64) {
			xs, ws := make([][]uint64, terms), make([]uint64, terms)
			for j := range xs {
				xs[j] = pool[rng.Intn(len(pool))]
				ws[j] = []uint64{0, 1, p - 1, rng.Uint64() % p}[rng.Intn(4)]
			}
			xs[0] = pool[0]
			return xs, ws
		}
		check := func(what string, xs [][]uint64, ws []uint64, add, bound uint64) {
			t.Helper()
			want := func(i int) uint64 {
				s := add
				for j, x := range xs {
					s = AddMod(s, m.MulMod(m.Reduce(x[i]), ws[j]), p)
				}
				return s
			}
			out := make([]uint64, n)
			VecLinComb(out, xs, ws, add, bound, p)
			checkRow(t, what, out, want)
			// Landing on one of its rows: a copy, so the pool's rows and
			// want keep their values.
			j := rng.Intn(min(len(xs), LinCombTerms))
			in := slices.Clone(xs[j])
			onto := slices.Clone(xs)
			onto[j] = in
			VecLinComb(in, onto, ws, add, bound, p)
			checkRow(t, fmt.Sprintf("%s out=xs[%d]", what, j), in, want)
		}
		for _, terms := range []int{1, 2, 3, LinCombTerms, LinCombTerms + 1, 2*LinCombTerms + 3, 3*LinCombTerms + 1} {
			for _, add := range []uint64{0, p - 1, rows[3][n/2]} {
				xs, ws := draw(terms, rows[0], rows[1], rows[2], rows[3], wide)
				check(fmt.Sprintf("%d terms add=%d", terms, add), xs, ws, add, max(p, 1<<52))
			}
		}

		for _, terms := range []int{1, 3, LinCombTerms + 2} {
			xs, ws := draw(terms, huge, rows[0], wide)
			check(fmt.Sprintf("%d terms past 2^52", terms), xs, ws, rows[2][1], ^uint64(0))
		}
	})
}

func TestBarrett52(t *testing.T) {
	for _, p := range dyadicPrimes() {
		if p >= 1<<50 {
			continue // the vector kernels' constant; wider primes run the portable loops
		}
		mu, shift := barrett52(p)
		k := uint(52 - shift)
		if p>>(k-1) != 1 {
			t.Fatalf("p=%d: shift %d does not match its bit length", p, shift)
		}
		// mu = floor(2^(k+51)/p) and fits an IFMA operand.
		want := new(big.Int).Lsh(big.NewInt(1), k+51)
		want.Div(want, new(big.Int).SetUint64(p))
		if !want.IsUint64() || want.Uint64() != mu || mu>>52 != 0 {
			t.Fatalf("p=%d: mu = %d, want %s below 2^52", p, mu, want)
		}
	}
}

// The quotient estimate must leave a remainder the two folds can finish:
// below 5p/2 for one product, below 4p for the tensor's fused pair. Scalar
// emulation of the lane arithmetic on the worst-case operands.
func TestBarrett52Bounds(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, p := range dyadicPrimes() {
		if p >= 1<<50 {
			continue
		}
		mu, shift := barrett52(p)
		draw := func() uint64 {
			switch rng.Intn(4) {
			case 0:
				return p - 1 - uint64(rng.Intn(3))
			case 1:
				return uint64(rng.Intn(3))
			}
			return rng.Uint64() % p
		}
		for iter := 0; iter < 20000; iter++ {
			x0, y0, x1, y1 := draw(), draw(), draw(), draw()
			c := mulHi52(2*x0, y0<<shift)
			lo := mulLo52(x0, y0)
			r := (lo + mulLo52(mulHi52(c, mu), (1<<52)-p)) & ((1 << 52) - 1)
			if 2*r >= 5*p {
				t.Fatalf("p=%d x=%d y=%d: remainder %d not below 5p/2", p, x0, y0, r)
			}
			c += mulHi52(2*x1, y1<<shift)
			lo += mulLo52(x1, y1)
			if c>>52 != 0 {
				t.Fatalf("p=%d: fused quotient input %d exceeds 52 bits", p, c)
			}
			r = (lo + mulLo52(mulHi52(c, mu), (1<<52)-p)) & ((1 << 52) - 1)
			if r >= 4*p {
				t.Fatalf("p=%d: fused remainder %d not below 4p", p, r)
			}
		}
	}
}

// BenchmarkVecLinComb prices the floor close's row passes on a Set-C-sized
// prime: VecLinComb of 1 row (a reduction), 2 and 3 rows (a chain's
// close) and 9 rows (past one pass).
func BenchmarkVecLinComb(b *testing.B) {
	p := prevPrime(1 << 49)
	rng := rand.New(rand.NewSource(61))
	for _, n := range []int{1 << 12, 1 << 14} {
		xs := make([][]uint64, 9)
		ws := make([]uint64, len(xs))
		for j := range xs {
			xs[j] = dyadicRow(rng, n, p, [3]uint64{p - 1, 0, 1}, false)
			ws[j] = rng.Uint64() % p
		}
		out := make([]uint64, n)
		for _, rows := range []int{1, 2, 3, 9} {
			b.Run(fmt.Sprintf("n=%d/rows=%d", n, rows), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					VecLinComb(out, xs[:rows], ws[:rows], ws[0], p, p)
				}
			})
		}
	}
}

// BenchmarkVecSubMulAdd prices the close of a single floor on one Set-C
// row, with the addend (a floor that adds an error or a sum) and without.
func BenchmarkVecSubMulAdd(b *testing.B) {
	const n = 1 << 14
	p := prevPrime(1 << 49)
	rng := rand.New(rand.NewSource(62))
	e := [3]uint64{p - 1, 0, 1}
	a, r, add := dyadicRow(rng, n, p, e, false), dyadicRow(rng, n, p, e, true), dyadicRow(rng, n, p, e, false)
	w := rng.Uint64() % p
	out := make([]uint64, n)
	for _, c := range []struct {
		name string
		add  []uint64
	}{{"add", add}, {"noadd", nil}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				VecSubMulAdd(out, a, r, c.add, w, p)
			}
		})
	}
}
