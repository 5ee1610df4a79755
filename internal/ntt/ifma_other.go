//go:build !amd64

package ntt

// Butterfly-kernel stubs for non-amd64 builds; Tables.ifma is always false
// there (uintmod.IFMAUsable reports false), so these never run.

func fwdStage4IFMA(dst, src, w, wShoup *uint64, m, q int, p uint64) {
	panic("ntt: fwdStage4IFMA without IFMA support")
}

func fwdTailIFMA(a, w, wShoup *uint64, n, stages int, p uint64) {
	panic("ntt: fwdTailIFMA without IFMA support")
}

func invHeadIFMA(dst, src, w, wShoup *uint64, n, stages int, p uint64) {
	panic("ntt: invHeadIFMA without IFMA support")
}

func invStage4IFMA(a, w, wShoup *uint64, m, q int, p uint64) {
	panic("ntt: invStage4IFMA without IFMA support")
}

func invLastIFMA(a *uint64, n int, p, nInv, nInvShoup, w, wShoup uint64) {
	panic("ntt: invLastIFMA without IFMA support")
}
