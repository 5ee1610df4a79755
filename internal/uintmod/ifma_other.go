//go:build !amd64

package uintmod

// HasIFMA reports whether the AVX-512 IFMA row kernels are available;
// never on non-amd64 builds.
func HasIFMA() bool { return false }

// IFMAUsable always reports false on non-amd64 builds.
func IFMAUsable(p uint64, n int) bool { return false }

// VecMul must not be called when IFMAUsable is false.
func VecMul(out, x, y []uint64, p uint64) {
	panic("uintmod: VecMul without IFMA support")
}

// VecMulPair must not be called when IFMAUsable is false.
func VecMulPair(out0, out1, x0, x1, y []uint64, p uint64) {
	panic("uintmod: VecMulPair without IFMA support")
}

// VecDotPair must not be called when IFMAUsable is false.
func VecDotPair(out0, out1 []uint64, terms [][3][]uint64, acc bool, p uint64) {
	panic("uintmod: VecDotPair without IFMA support")
}

// VecMulTensor must not be called when IFMAUsable is false.
func VecMulTensor(c0, c1, c2, a0, a1, b0, b1 []uint64, p uint64) {
	panic("uintmod: VecMulTensor without IFMA support")
}

// VecAdd must not be called when IFMAUsable is false.
func VecAdd(out, x, y []uint64, p uint64) {
	panic("uintmod: VecAdd without IFMA support")
}

// VecSub must not be called when IFMAUsable is false.
func VecSub(out, x, y []uint64, p uint64) {
	panic("uintmod: VecSub without IFMA support")
}

// VecNeg must not be called when IFMAUsable is false.
func VecNeg(out, x []uint64, p uint64) {
	panic("uintmod: VecNeg without IFMA support")
}

// VecReduce must not be called when IFMAUsable is false.
func VecReduce(out, x []uint64, sub, p uint64) {
	panic("uintmod: VecReduce without IFMA support")
}

// VecSubMulAdd must not be called when IFMAUsable is false.
func VecSubMulAdd(out, a, r, add []uint64, w, p uint64) {
	panic("uintmod: VecSubMulAdd without IFMA support")
}

// LinCombTerms is the most rows one VecLinComb sums.
const LinCombTerms = 8

// VecLinComb must not be called when IFMAUsable is false.
func VecLinComb(out []uint64, xs [][]uint64, ws []uint64, add, p uint64) {
	panic("uintmod: VecLinComb without IFMA support")
}

// vecPermuteIFMA is never reached: VecPermute checks HasIFMA first.
func vecPermuteIFMA(out, x *uint64, blocks *uint32, lanes *[8][8]uint64, nb int) {
	panic("uintmod: vecPermuteIFMA without AVX-512 support")
}

// vecPermutePairIFMA is never reached: VecPermutePair checks HasIFMA first.
func vecPermutePairIFMA(out0, out1, x0, x1 *uint64, blocks *uint32, lanes *[8][8]uint64, nb int, p uint64, add bool) {
	panic("uintmod: vecPermutePairIFMA without AVX-512 support")
}
