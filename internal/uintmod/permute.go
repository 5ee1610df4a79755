package uintmod

// Block permutations move a row's coefficients as aligned blocks of w
// lanes, w = len(out)/len(blocks) (8 = Lanes for any row of at least 8;
// a shorter row is one block): blocks[b] = src<<3 | k sets output block b
// to source block src with its lanes reordered by shuffle k,
//
//	out[w·b + l] = x[w·src + lanes[k][l]],
//
// which is how a ring automorphism acts on an NTT-domain row
// (ring.Automorphism). Every source block index must be below
// len(blocks), every lanes entry below w, and the outputs must not
// overlap the sources. On an AVX-512 host a row of whole 8-lane blocks
// runs the vector kernel, one VPERMQ per block; otherwise permuteGo, the
// same map one word at a time. Both move values and compute none (the
// one addition of VecPermutePair is AddMod's), so they agree bit for bit.

// VecPermute sets out to x under the block map.
//
//heax:noalloc
func VecPermute(out, x []uint64, blocks []uint32, lanes *[8][8]uint64) {
	if HasIFMA() && len(out) == Lanes*len(blocks) {
		_ = x[len(out)-1]
		vecPermuteIFMA(&out[0], &x[0], &blocks[0], lanes, len(blocks))
		return
	}
	permuteGo(out, nil, x, nil, blocks, lanes, false, 0)
}

// VecPermutePair sets out0 and out1 to x0 and x1 under one block map;
// with add, out0 = (out0 + σ(x0)) mod p instead, for out0[i], x0[i] < p —
// how a sum of rotations folds a term's σ(c0) into its running sum.
//
//heax:noalloc
func VecPermutePair(out0, out1, x0, x1 []uint64, blocks []uint32, lanes *[8][8]uint64, add bool, p uint64) {
	if HasIFMA() && len(out0) == Lanes*len(blocks) {
		n := len(out0)
		_ = out1[n-1]
		_ = x0[n-1]
		_ = x1[n-1]
		vecPermutePairIFMA(&out0[0], &out1[0], &x0[0], &x1[0], &blocks[0], lanes, len(blocks), p, add)
		return
	}
	permuteGo(out0, out1, x0, x1, blocks, lanes, add, p)
}

// permuteGo is the portable form of both: of VecPermute when out1 is nil.
func permuteGo(out0, out1, x0, x1 []uint64, blocks []uint32, lanes *[8][8]uint64, add bool, p uint64) {
	w := len(out0) / len(blocks)
	for b, m := range blocks {
		sh := lanes[m&7][:w]
		src, o := x0[int(m>>3)*w:][:w], out0[b*w:][:w]
		if add {
			for l, s := range sh {
				o[l] = AddMod(o[l], src[s], p)
			}
		} else {
			for l, s := range sh {
				o[l] = src[s]
			}
		}
		if out1 != nil {
			src, o = x1[int(m>>3)*w:][:w], out1[b*w:][:w]
			for l, s := range sh {
				o[l] = src[s]
			}
		}
	}
}
