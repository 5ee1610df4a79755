//go:build amd64

package ntt

// Butterfly kernels implemented in ifma_amd64.s. Availability is gated by
// uintmod.IFMAUsable; see the Tables.ifma field.

func fwdStageIFMA(a, w, wShoup *uint64, m, step int, p uint64)
func fwdTailIFMA(a, w, wShoup *uint64, n int, p uint64)
func invStageIFMA(a, w, wShoup *uint64, m, step int, p uint64)
func invHeadIFMA(a, w, wShoup *uint64, n int, p uint64)
func invLastIFMA(a *uint64, n int, p, nInv, nInvShoup, w, wShoup uint64)
