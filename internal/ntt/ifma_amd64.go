//go:build amd64

package ntt

// Butterfly kernels implemented in ifma_amd64.s. Availability is gated by
// uintmod.IFMAUsable; see the Tables.ifma field.

func fwdStage4IFMA(dst, src, w, wShoup *uint64, m, q int, p uint64)
func fwdTailIFMA(a, w, wShoup *uint64, n, stages int, p uint64)
func invHeadIFMA(dst, src, w, wShoup *uint64, n, stages int, p uint64)
func invStage4IFMA(a, w, wShoup *uint64, m, q int, p uint64)
func invLastIFMA(a *uint64, n int, p, nInv, nInvShoup, w, wShoup uint64)
