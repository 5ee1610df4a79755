//go:build !amd64

package ntt

// Butterfly-kernel stubs for non-amd64 builds; Tables.ifma is always false
// there (uintmod.IFMAUsable reports false), so these never run.

func fwdStageIFMA(a, w, wShoup *uint64, m, step int, p uint64) {
	panic("ntt: fwdStageIFMA without IFMA support")
}

func fwdTailIFMA(a, w, wShoup *uint64, n int, p uint64) {
	panic("ntt: fwdTailIFMA without IFMA support")
}

func invStageIFMA(a, w, wShoup *uint64, m, step int, p uint64) {
	panic("ntt: invStageIFMA without IFMA support")
}

func invHeadIFMA(a, w, wShoup *uint64, n int, p uint64) {
	panic("ntt: invHeadIFMA without IFMA support")
}

func invLastIFMA(a *uint64, n int, p, nInv, nInvShoup, w, wShoup uint64) {
	panic("ntt: invLastIFMA without IFMA support")
}
