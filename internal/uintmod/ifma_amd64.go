//go:build amd64

package uintmod

// detectIFMA reports whether the CPU and OS support AVX-512F + AVX-512
// IFMA with ZMM state enabled (implemented in ifma_amd64.s).
func detectIFMA() bool

// hasIFMA is fixed at startup; the routes never change afterwards.
var hasIFMA = detectIFMA()

// The vector kernels of vec.go and permute.go (ifma_amd64.s). Each takes
// the rows its Go wrapper has checked and the constants it computed.

func vecMulIFMA(out, x, y *uint64, n int, p, mu, shift uint64)
func vecMulPairIFMA(out0, out1, x0, x1, y *uint64, n int, p, mu, shift uint64, compact bool)
func vecMulTensorIFMA(c0, c1, c2, a0, a1, b0, b1 *uint64, n int, p, mu, shift uint64)
func vecAddIFMA(out, x, y *uint64, n int, p uint64)
func vecSubIFMA(out, x, y *uint64, n int, p uint64)
func vecSubMulAddIFMA(out, a, r, add *uint64, n int, p, w, wShoup uint64)

// noescape: linComb gathers the Shoup constants on its stack.
//
//go:noescape
func vecLinCombIFMA(out *uint64, xs *[]uint64, ws, wShoups *uint64, t, n int, p, add uint64, folds int)
func vecPermuteIFMA(out, x *uint64, blocks *uint32, lanes *[8][8]uint64, nb int)
func vecPermutePairIFMA(out0, out1, x0, x1 *uint64, blocks *uint32, lanes *[8][8]uint64, nb int, p uint64, add bool)

// noescape: callers gather the term list into a stack array.
//
//go:noescape
func vecDotPairIFMA(out0, out1 *uint64, terms *[3][]uint64, t, limit, folds, n int, p, mu, shift uint64, acc bool)
