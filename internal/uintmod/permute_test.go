package uintmod

import (
	"math/rand"
	"slices"
	"testing"
)

// randomBlockMap draws a block map for a row of n: the blocks in random
// order, each through one of eight random lane shuffles of w lanes.
func randomBlockMap(rng *rand.Rand, n int) ([]uint32, *[8][8]uint64) {
	w := min(n, Lanes)
	blocks := make([]uint32, n/w)
	for b, src := range rng.Perm(len(blocks)) {
		blocks[b] = uint32(src)<<3 | uint32(rng.Intn(8))
	}
	lanes := new([8][8]uint64)
	for k := range lanes {
		for l, s := range rng.Perm(w) {
			lanes[k][l] = uint64(s)
		}
	}
	return blocks, lanes
}

// gatherIndex expands a block map into the slot gather it stands for:
// out[i] = x[idx[i]].
func gatherIndex(n int, blocks []uint32, lanes *[8][8]uint64) []int {
	w := n / len(blocks)
	idx := make([]int, n)
	for i := range idx {
		m := blocks[i/w]
		idx[i] = int(m>>3)*w + int(lanes[m&7][i%w])
	}
	return idx
}

// VecPermute and VecPermutePair (the vector kernel on an AVX-512 host)
// and permuteGo, the portable form of both called directly so that every
// host runs it, must equal the gather the block map stands for and leave
// their sources as they were. Rows of 4 are one short block, which only the
// Go form takes; a row of 8 is one vector. The pair-add's first nine
// lanes meet the edge residues 0 and p−1 in all nine pairings, so
// p−1 + p−1 must wrap to p−2; the primes reach 62 bits, as a scalar row
// of a sum of rotations has them.
func TestVecPermute(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{4, 8, 16, 64, 4096} {
		for _, p := range []uint64{257, ifmaPrime, prevPrime(1 << 62)} {
			blocks, lanes := randomBlockMap(rng, n)
			idx := gatherIndex(n, blocks, lanes)
			edge := [3]uint64{0, p - 1, rng.Uint64() % p}
			x0, x1, init0 := make([]uint64, n), make([]uint64, n), make([]uint64, n)
			for i := range x0 {
				x0[i], x1[i], init0[i] = rng.Uint64()%p, rng.Uint64()%p, rng.Uint64()%p
			}
			for j := 0; j < 9 && j < n; j++ {
				init0[j] = edge[j%3]
				x0[idx[j]] = edge[j/3]
			}
			srcs := [][]uint64{slices.Clone(x0), slices.Clone(x1)}

			want0, want1, wantAdd := make([]uint64, n), make([]uint64, n), make([]uint64, n)
			for i, s := range idx {
				want0[i], want1[i] = x0[s], x1[s]
				wantAdd[i] = AddMod(init0[i], x0[s], p)
			}
			if n >= 9 && wantAdd[4] != p-2 {
				t.Fatalf("n=%d p=%d: lane 4 is not p−1 + p−1", n, p)
			}

			out0, out1 := make([]uint64, n), make([]uint64, n)
			check := func(name string, got, want []uint64) {
				t.Helper()
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d p=%d: %s differs from the gather", n, p, name)
				}
				if !slices.Equal(x0, srcs[0]) || !slices.Equal(x1, srcs[1]) {
					t.Fatalf("n=%d p=%d: %s modified its source", n, p, name)
				}
				clear(out0)
				clear(out1)
			}
			VecPermute(out0, x0, blocks, lanes)
			check("VecPermute", out0, want0)
			permuteGo(out0, nil, x0, nil, blocks, lanes, false, 0)
			check("permuteGo", out0, want0)

			VecPermutePair(out0, out1, x0, x1, blocks, lanes, false, p)
			check("VecPermutePair", append(out0, out1...), append(want0, want1...))
			permuteGo(out0, out1, x0, x1, blocks, lanes, false, p)
			check("permuteGo pair", append(out0, out1...), append(want0, want1...))

			copy(out0, init0)
			VecPermutePair(out0, out1, x0, x1, blocks, lanes, true, p)
			check("VecPermutePair add", append(out0, out1...), append(wantAdd, want1...))
			copy(out0, init0)
			permuteGo(out0, out1, x0, x1, blocks, lanes, true, p)
			check("permuteGo pair add", append(out0, out1...), append(wantAdd, want1...))
		}
	}
}
