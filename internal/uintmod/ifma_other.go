//go:build !amd64

package uintmod

// hasIFMA is false off amd64, so the vector kernels below are never
// reached: every row takes its portable loop.
const hasIFMA = false

func vecMulIFMA(out, x, y *uint64, n int, p, mu, shift uint64) { panic(noIFMA) }
func vecMulPairIFMA(out0, out1, x0, x1, y *uint64, n int, p, mu, shift uint64, compact bool) {
	panic(noIFMA)
}
func vecMulTensorIFMA(c0, c1, c2, a0, a1, b0, b1 *uint64, n int, p, mu, shift uint64) { panic(noIFMA) }
func vecAddIFMA(out, x, y *uint64, n int, p uint64)                                   { panic(noIFMA) }
func vecSubIFMA(out, x, y *uint64, n int, p uint64)                                   { panic(noIFMA) }
func vecSubMulAddIFMA(out, a, r, add *uint64, n int, p, w, wShoup uint64)             { panic(noIFMA) }
func vecLinCombIFMA(out *uint64, xs *[]uint64, ws, wShoups *uint64, t, n int, p, add uint64, folds int) {
	panic(noIFMA)
}
func vecPermuteIFMA(out, x *uint64, blocks *uint32, lanes *[8][8]uint64, nb int) { panic(noIFMA) }
func vecPermutePairIFMA(out0, out1, x0, x1 *uint64, blocks *uint32, lanes *[8][8]uint64, nb int, p uint64, add bool) {
	panic(noIFMA)
}
func vecDotPairIFMA(out0, out1 *uint64, terms *[3][]uint64, t, limit, folds, n int, p, mu, shift uint64, acc bool) {
	panic(noIFMA)
}

const noIFMA = "uintmod: vector kernel without AVX-512 IFMA"
