// AVX-512 IFMA butterfly kernels: an IFMA-eligible row's transform is
// vector code from its first stage to its last.
//
// The stages whose butterfly stride is a multiple of 8 run two at a time
// on a radix-4 pass (fwdStage4IFMA / invStage4IFMA): a block of four
// quarters is loaded once, put through the two stages' four butterflies
// and stored once, so a row larger than L1 crosses L2 once per two stages.
// The stages of stride 4, 2 and 1 — where a butterfly's two operands sit
// inside one vector — run fused in one pass (fwdTailIFMA / invHeadIFMA):
// sixteen coefficients are loaded once, shuffled in registers between the
// stages, and stored once. When the number of strided stages is odd, the
// stride 8 stage joins that pass (the two vectors of a 16-coefficient
// block are its operands), so there is no radix-2 stage kernel. The
// closing inverse stage, which multiplies by n^-1, is invLastIFMA.
//
// The first kernel of each direction (the first forward pass, the inverse
// head) loads from src and stores to dst; every later one works on dst in
// place, and src == dst is the in-place transform.
//
// Lazy invariants are identical to the scalar path in lazy.go: forward
// keeps coefficients in [0, 4p), inverse in [0, 2p), and the last stage
// of each direction emits fully reduced outputs, so every kernel's
// result equals the scalar stages' bit for bit. No forward butterfly
// assumes more of its input than that range, so a forward row may enter
// anywhere below 4p. Requires p < 2^50 so the whole lazy range fits a
// 52-bit lane.
//
// Constants live in Z12-Z15 for a whole kernel:
//
//	Z12 p   Z13 2p   Z14 2^52-1   Z15 2^52-p

#include "textflag.h"

// NTTCONST loads the loop constants from AX = p (clobbers AX, BX).
#define NTTCONST \
	VPBROADCASTQ AX, Z12; \
	VPADDQ Z12, Z12, Z13; \
	MOVQ $0x000FFFFFFFFFFFFF, BX; \
	VPBROADCASTQ BX, Z14; \
	INCQ BX; \
	SUBQ AX, BX; \
	VPBROADCASTQ BX, Z15

// MULSHOUP sets r = x*w - floor(x*ws/2^52)*p, which lies in [0, 2p) for
// any x < 2^52 (uintmod.ShoupPrecomp52): t = hi52(x*ws), then
// lo52(x*w) + lo52(t*(2^52-p)) is x*w - t*p modulo 2^52, and the value
// is below 2p < 2^52, so the mask yields it exactly. r and t must differ
// from x.
#define MULSHOUP(x, w, ws, r, t) \
	VPXORQ t, t, t; \
	VPMADD52HUQ ws, x, t; \
	VPXORQ r, r, r; \
	VPMADD52LUQ w, x, r; \
	VPMADD52LUQ Z15, t, r; \
	VPANDQ Z14, r, r

// FWDBFLY is the forward (Cooley-Tukey) lazy butterfly on eight lanes:
// u, v in [0, 4p) become u = fold2p(u) + w*v and v = fold2p(u) - w*v + 2p,
// both in [0, 4p). wv and t are scratch.
#define FWDBFLY(u, v, w, ws, wv, t) \
	MULSHOUP(v, w, ws, wv, t); \
	VPSUBQ Z13, u, t; \
	VPMINUQ t, u, u; \
	VPADDQ Z13, u, v; \
	VPSUBQ wv, v, v; \
	VPADDQ wv, u, u

// INVBFLY is the inverse (Gentleman-Sande) lazy butterfly on eight lanes:
// u, v in [0, 2p) become u = fold2p(u + v) and v = w*(u - v + 2p), both in
// [0, 2p). d and t are scratch.
#define INVBFLY(u, v, w, ws, d, t) \
	VPADDQ Z13, u, d; \
	VPSUBQ v, d, d; \
	VPADDQ v, u, u; \
	VPSUBQ Z13, u, t; \
	VPMINUQ t, u, u; \
	MULSHOUP(d, w, ws, v, t)

// FOLDP maps r in [0, 2p) to [0, p); t is scratch.
#define FOLDP(r, t) \
	VPSUBQ Z12, r, t; \
	VPMINUQ t, r, r

// STRIDE8PTRS points AX and BX at the stride 8 stage's twiddles when the
// fused kernel runs it (SI = stages == 4), from R8 = w, R9 = wShoup and
// CX = n, and clears AX otherwise (clobbers R10). That stage has n/16
// groups, one per 16-coefficient block, so block b's twiddle is table
// entry n/16 + b and the pointers advance one entry per block.
#define STRIDE8PTRS \
	MOVQ CX, BX; \
	SHRQ $1, BX; \
	LEAQ (R8)(BX*1), AX; \
	ADDQ R9, BX; \
	XORQ R10, R10; \
	CMPQ SI, $4; \
	CMOVQNE R10, AX

// Lane orders of the fused kernels. A 16-coefficient block lives in two
// vectors; "pairs" are the operand vectors (u | v) of a stage.
//
//	memory    (0 1 2 3 4 5 6 7       | 8 9 10 11 12 13 14 15)   also the stride 8 pairs
//	stride 4  (0 1 2 3 8 9 10 11     | 4 5 6 7 12 13 14 15)   VSHUFI64X2 $0x44 / $0xEE
//	stride 2  (0 1 4 5 8 9 12 13     | 2 3 6 7 10 11 14 15)   VPERMI2Q/VPERMT2Q by permLo/permHi
//	stride 1  (0 2 4 6 8 10 12 14    | 1 3 5 7 9 11 13 15)    VPUNPCKLQDQ / VPUNPCKHQDQ
//
// and memory order is restored from (or split into) the stride 1 order
// by VPERMI2Q/VPERMT2Q with zipLo/zipHi (evenIdx/oddIdx). In each order
// lane i of u and lane i of v are one butterfly, and its twiddle is
// the stage's table entry for the group that lane's coefficient is in:
// two entries spread 0 0 0 0 1 1 1 1 (stride 4), four spread
// 0 0 1 1 2 2 3 3 (stride 2), eight contiguous (stride 1) — gathered by
// VPERMQ straight from the table, whose 64-byte read stays inside it for
// every block (the stride 4 stage's last read ends at entry n/4+5, the
// stride 2 stage's at n/2+3, the stride 1 stage's at n-1).

DATA spread4<>+0(SB)/8, $0
DATA spread4<>+8(SB)/8, $0
DATA spread4<>+16(SB)/8, $0
DATA spread4<>+24(SB)/8, $0
DATA spread4<>+32(SB)/8, $1
DATA spread4<>+40(SB)/8, $1
DATA spread4<>+48(SB)/8, $1
DATA spread4<>+56(SB)/8, $1
GLOBL spread4<>(SB), RODATA|NOPTR, $64

DATA spread2<>+0(SB)/8, $0
DATA spread2<>+8(SB)/8, $0
DATA spread2<>+16(SB)/8, $1
DATA spread2<>+24(SB)/8, $1
DATA spread2<>+32(SB)/8, $2
DATA spread2<>+40(SB)/8, $2
DATA spread2<>+48(SB)/8, $3
DATA spread2<>+56(SB)/8, $3
GLOBL spread2<>(SB), RODATA|NOPTR, $64

// Two-source permutes: indices 0-7 pick from the first vector, 8-15 from
// the second.
DATA permLo<>+0(SB)/8, $0
DATA permLo<>+8(SB)/8, $1
DATA permLo<>+16(SB)/8, $8
DATA permLo<>+24(SB)/8, $9
DATA permLo<>+32(SB)/8, $4
DATA permLo<>+40(SB)/8, $5
DATA permLo<>+48(SB)/8, $12
DATA permLo<>+56(SB)/8, $13
GLOBL permLo<>(SB), RODATA|NOPTR, $64

DATA permHi<>+0(SB)/8, $2
DATA permHi<>+8(SB)/8, $3
DATA permHi<>+16(SB)/8, $10
DATA permHi<>+24(SB)/8, $11
DATA permHi<>+32(SB)/8, $6
DATA permHi<>+40(SB)/8, $7
DATA permHi<>+48(SB)/8, $14
DATA permHi<>+56(SB)/8, $15
GLOBL permHi<>(SB), RODATA|NOPTR, $64

DATA zipLo<>+0(SB)/8, $0
DATA zipLo<>+8(SB)/8, $8
DATA zipLo<>+16(SB)/8, $1
DATA zipLo<>+24(SB)/8, $9
DATA zipLo<>+32(SB)/8, $2
DATA zipLo<>+40(SB)/8, $10
DATA zipLo<>+48(SB)/8, $3
DATA zipLo<>+56(SB)/8, $11
GLOBL zipLo<>(SB), RODATA|NOPTR, $64

DATA zipHi<>+0(SB)/8, $4
DATA zipHi<>+8(SB)/8, $12
DATA zipHi<>+16(SB)/8, $5
DATA zipHi<>+24(SB)/8, $13
DATA zipHi<>+32(SB)/8, $6
DATA zipHi<>+40(SB)/8, $14
DATA zipHi<>+48(SB)/8, $7
DATA zipHi<>+56(SB)/8, $15
GLOBL zipHi<>(SB), RODATA|NOPTR, $64

DATA evenIdx<>+0(SB)/8, $0
DATA evenIdx<>+8(SB)/8, $2
DATA evenIdx<>+16(SB)/8, $4
DATA evenIdx<>+24(SB)/8, $6
DATA evenIdx<>+32(SB)/8, $8
DATA evenIdx<>+40(SB)/8, $10
DATA evenIdx<>+48(SB)/8, $12
DATA evenIdx<>+56(SB)/8, $14
GLOBL evenIdx<>(SB), RODATA|NOPTR, $64

DATA oddIdx<>+0(SB)/8, $1
DATA oddIdx<>+8(SB)/8, $3
DATA oddIdx<>+16(SB)/8, $5
DATA oddIdx<>+24(SB)/8, $7
DATA oddIdx<>+32(SB)/8, $9
DATA oddIdx<>+40(SB)/8, $11
DATA oddIdx<>+48(SB)/8, $13
DATA oddIdx<>+56(SB)/8, $15
GLOBL oddIdx<>(SB), RODATA|NOPTR, $64

// func fwdStage4IFMA(dst, src, w, wShoup *uint64, m, q int, p uint64)
// Two forward stages in one pass over m blocks of four quarters x0..x3 of
// q coefficients each (4mq = n, q % 8 == 0): the stage with m groups of
// stride 2q — (x0, x2) and (x1, x3) by block i's twiddle, table entry
// m+i — then the stage with 2m groups of stride q — (x0, x1) by entry
// 2m+2i and (x2, x3) by entry 2m+2i+1. w and wShoup are the table bases
// (&psi[0], &psiShoup52[0]). Loads come from src and stores go to dst.
TEXT ·fwdStage4IFMA(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ w+16(FP), R8
	MOVQ wShoup+24(FP), R9
	MOVQ m+32(FP), DX
	MOVQ q+40(FP), R10
	MOVQ p+48(FP), AX
	NTTCONST
	LEAQ (R8)(DX*8), R8             // first stage's twiddles, entry m
	LEAQ (R9)(DX*8), R9
	LEAQ (R8)(DX*8), R11            // second stage's, entry 2m
	LEAQ (R9)(DX*8), R12
	SHLQ $3, R10                    // one quarter in bytes
	LEAQ (R10)(R10*2), R13          // three quarters
block:
	VPBROADCASTQ (R8), Z6
	VPBROADCASTQ (R9), Z7
	VPBROADCASTQ (R11), Z8
	VPBROADCASTQ (R12), Z9
	VPBROADCASTQ 8(R11), Z10
	VPBROADCASTQ 8(R12), Z11
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $16, R11
	ADDQ $16, R12
	MOVQ R10, CX
	SHRQ $6, CX
inner:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 (SI)(R10*1), Z1
	VMOVDQU64 (SI)(R10*2), Z2
	VMOVDQU64 (SI)(R13*1), Z3
	FWDBFLY(Z0, Z2, Z6, Z7, Z4, Z5)
	FWDBFLY(Z1, Z3, Z6, Z7, Z16, Z17)
	FWDBFLY(Z0, Z1, Z8, Z9, Z4, Z5)
	FWDBFLY(Z2, Z3, Z10, Z11, Z16, Z17)
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, (DI)(R10*1)
	VMOVDQU64 Z2, (DI)(R10*2)
	VMOVDQU64 Z3, (DI)(R13*1)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  inner
	ADDQ R13, SI                    // next block starts where x3 ended
	ADDQ R13, DI
	DECQ DX
	JNZ  block
	VZEROUPPER
	RET

// func fwdTailIFMA(a, w, wShoup *uint64, n, stages int, p uint64)
// The last forward stages of an n-coefficient row in one pass: strides 4,
// 2 and 1 (stages == 3), preceded by stride 8 when stages == 4. w and
// wShoup are the table bases (&psi[0], &psiShoup52[0]). Inputs in
// [0, 4p), outputs fully reduced. n % 16 == 0.
TEXT ·fwdTailIFMA(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), DI
	MOVQ w+8(FP), R8
	MOVQ wShoup+16(FP), R9
	MOVQ n+24(FP), CX
	MOVQ stages+32(FP), SI
	MOVQ p+40(FP), AX
	NTTCONST
	VMOVDQU64 spread4<>(SB), Z16
	VMOVDQU64 spread2<>(SB), Z17
	VMOVDQU64 permLo<>(SB), Z18
	VMOVDQU64 permHi<>(SB), Z19
	VMOVDQU64 zipLo<>(SB), Z20
	VMOVDQU64 zipHi<>(SB), Z21
	STRIDE8PTRS
	// The stage with stride s has n/(2s) groups, so its twiddles start at
	// table entry n/(2s): byte offset n, 2n and 4n for s = 4, 2, 1. Block b
	// (byte offset 128b in a) uses 2, 4 and 8 of them, so with DX = 16b all
	// four streams are indexed off one counter.
	ADDQ CX, R8                     // stride 4 twiddles
	ADDQ CX, R9
	LEAQ (R8)(CX*1), R10            // stride 2 twiddles
	LEAQ (R9)(CX*1), R11
	LEAQ (R10)(CX*2), R12           // stride 1 twiddles
	LEAQ (R11)(CX*2), R13
	XORQ DX, DX
block:
	VMOVDQU64 (DI)(DX*8), Z0
	VMOVDQU64 64(DI)(DX*8), Z1
	TESTQ AX, AX
	JZ   narrow
	VPBROADCASTQ (AX), Z10
	VPBROADCASTQ (BX), Z11
	ADDQ $8, AX
	ADDQ $8, BX
	FWDBFLY(Z0, Z1, Z10, Z11, Z4, Z5)       // stride 8
narrow:
	VSHUFI64X2 $0x44, Z1, Z0, Z2
	VSHUFI64X2 $0xEE, Z1, Z0, Z3
	VPERMQ (R8)(DX*1), Z16, Z10
	VPERMQ (R9)(DX*1), Z16, Z11
	FWDBFLY(Z2, Z3, Z10, Z11, Z4, Z5)       // stride 4
	VMOVDQA64 Z18, Z0
	VPERMI2Q Z3, Z2, Z0
	VPERMT2Q Z3, Z19, Z2
	VPERMQ (R10)(DX*2), Z17, Z10
	VPERMQ (R11)(DX*2), Z17, Z11
	FWDBFLY(Z0, Z2, Z10, Z11, Z4, Z5)       // stride 2
	VPUNPCKLQDQ Z2, Z0, Z1
	VPUNPCKHQDQ Z2, Z0, Z3
	VMOVDQU64 (R12)(DX*4), Z10
	VMOVDQU64 (R13)(DX*4), Z11
	FWDBFLY(Z1, Z3, Z10, Z11, Z4, Z5)       // stride 1
	VPSUBQ Z13, Z1, Z4                      // [0, 4p) to [0, 2p)
	VPMINUQ Z4, Z1, Z1
	VPSUBQ Z13, Z3, Z5
	VPMINUQ Z5, Z3, Z3
	FOLDP(Z1, Z4)
	FOLDP(Z3, Z5)
	VMOVDQA64 Z20, Z0
	VPERMI2Q Z3, Z1, Z0
	VPERMT2Q Z3, Z21, Z1
	VMOVDQU64 Z0, (DI)(DX*8)
	VMOVDQU64 Z1, 64(DI)(DX*8)
	ADDQ $16, DX
	CMPQ DX, CX
	JB   block
	VZEROUPPER
	RET

// func invStage4IFMA(a, w, wShoup *uint64, m, q int, p uint64)
// The Gentleman–Sande counterpart of fwdStage4IFMA, in place: over the
// same m blocks of four quarters, the stage with 2m groups of stride q —
// (x0, x1) by table entry 2m+2i and (x2, x3) by entry 2m+2i+1 — then the
// stage with m groups of stride 2q — (x0, x2) and (x1, x3) by entry m+i.
TEXT ·invStage4IFMA(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), DI
	MOVQ w+8(FP), R8
	MOVQ wShoup+16(FP), R9
	MOVQ m+24(FP), DX
	MOVQ q+32(FP), R10
	MOVQ p+40(FP), AX
	NTTCONST
	LEAQ (R8)(DX*8), R8             // second stage's twiddles, entry m
	LEAQ (R9)(DX*8), R9
	LEAQ (R8)(DX*8), R11            // first stage's, entry 2m
	LEAQ (R9)(DX*8), R12
	SHLQ $3, R10                    // one quarter in bytes
	LEAQ (R10)(R10*2), R13          // three quarters
block:
	VPBROADCASTQ (R11), Z6
	VPBROADCASTQ (R12), Z7
	VPBROADCASTQ 8(R11), Z8
	VPBROADCASTQ 8(R12), Z9
	VPBROADCASTQ (R8), Z10
	VPBROADCASTQ (R9), Z11
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $16, R11
	ADDQ $16, R12
	MOVQ R10, CX
	SHRQ $6, CX
inner:
	VMOVDQU64 (DI), Z0
	VMOVDQU64 (DI)(R10*1), Z1
	VMOVDQU64 (DI)(R10*2), Z2
	VMOVDQU64 (DI)(R13*1), Z3
	INVBFLY(Z0, Z1, Z6, Z7, Z4, Z5)
	INVBFLY(Z2, Z3, Z8, Z9, Z16, Z17)
	INVBFLY(Z0, Z2, Z10, Z11, Z4, Z5)
	INVBFLY(Z1, Z3, Z10, Z11, Z16, Z17)
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, (DI)(R10*1)
	VMOVDQU64 Z2, (DI)(R10*2)
	VMOVDQU64 Z3, (DI)(R13*1)
	ADDQ $64, DI
	DECQ CX
	JNZ  inner
	ADDQ R13, DI                    // next block starts where x3 ended
	DECQ DX
	JNZ  block
	VZEROUPPER
	RET

// func invHeadIFMA(dst, src, w, wShoup *uint64, n, stages int, p uint64)
// The first inverse stages of an n-coefficient row in one pass —
// fwdTailIFMA's data flow run backwards: strides 1, 2 and 4 (stages == 3),
// followed by stride 8 when stages == 4. Loads come from src and stores
// go to dst. Inputs below 2p, outputs in [0, 2p). n % 16 == 0.
TEXT ·invHeadIFMA(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ w+16(FP), R8
	MOVQ wShoup+24(FP), R9
	MOVQ n+32(FP), CX
	MOVQ stages+40(FP), SI
	MOVQ p+48(FP), AX
	NTTCONST
	VMOVDQU64 spread4<>(SB), Z16
	VMOVDQU64 spread2<>(SB), Z17
	VMOVDQU64 permLo<>(SB), Z18
	VMOVDQU64 permHi<>(SB), Z19
	VMOVDQU64 evenIdx<>(SB), Z20
	VMOVDQU64 oddIdx<>(SB), Z21
	STRIDE8PTRS
	MOVQ src+8(FP), SI
	ADDQ CX, R8                     // stride 4 twiddles, as in fwdTailIFMA
	ADDQ CX, R9
	LEAQ (R8)(CX*1), R10            // stride 2
	LEAQ (R9)(CX*1), R11
	LEAQ (R10)(CX*2), R12           // stride 1
	LEAQ (R11)(CX*2), R13
	XORQ DX, DX
block:
	VMOVDQU64 (SI)(DX*8), Z1
	VMOVDQU64 64(SI)(DX*8), Z3
	VMOVDQA64 Z20, Z0
	VPERMI2Q Z3, Z1, Z0
	VPERMT2Q Z3, Z21, Z1
	VMOVDQU64 (R12)(DX*4), Z10
	VMOVDQU64 (R13)(DX*4), Z11
	INVBFLY(Z0, Z1, Z10, Z11, Z4, Z5)       // stride 1
	VPUNPCKLQDQ Z1, Z0, Z2
	VPUNPCKHQDQ Z1, Z0, Z3
	VPERMQ (R10)(DX*2), Z17, Z10
	VPERMQ (R11)(DX*2), Z17, Z11
	INVBFLY(Z2, Z3, Z10, Z11, Z4, Z5)       // stride 2
	VMOVDQA64 Z18, Z0
	VPERMI2Q Z3, Z2, Z0
	VPERMT2Q Z3, Z19, Z2
	VPERMQ (R8)(DX*1), Z16, Z10
	VPERMQ (R9)(DX*1), Z16, Z11
	INVBFLY(Z0, Z2, Z10, Z11, Z4, Z5)       // stride 4
	VSHUFI64X2 $0x44, Z2, Z0, Z1
	VSHUFI64X2 $0xEE, Z2, Z0, Z3
	TESTQ AX, AX
	JZ   store
	VPBROADCASTQ (AX), Z10
	VPBROADCASTQ (BX), Z11
	ADDQ $8, AX
	ADDQ $8, BX
	INVBFLY(Z1, Z3, Z10, Z11, Z4, Z5)       // stride 8
store:
	VMOVDQU64 Z1, (DI)(DX*8)
	VMOVDQU64 Z3, 64(DI)(DX*8)
	ADDQ $16, DX
	CMPQ DX, CX
	JB   block
	VZEROUPPER
	RET

// func invLastIFMA(a *uint64, n int, p, nInv, nInvShoup, w, wShoup uint64)
// The closing inverse stage (one group, stride n/2): x, y =
// nInv*(u + v), w*(u - v + 2p) with w = psi^-bitrev(1) * nInv, both by a
// full Shoup multiplication, so the row ends fully reduced with the 1/n
// scaling applied. Inputs in [0, 2p). n % 16 == 0.
TEXT ·invLastIFMA(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ p+16(FP), AX
	NTTCONST
	VPBROADCASTQ nInv+24(FP), Z8
	VPBROADCASTQ nInvShoup+32(FP), Z9
	VPBROADCASTQ w+40(FP), Z10
	VPBROADCASTQ wShoup+48(FP), Z11
	LEAQ (DI)(CX*4), SI             // y half
	SHRQ $4, CX
loop:
	VMOVDQU64 (DI), Z0              // u
	VMOVDQU64 (SI), Z1              // v
	VPADDQ Z1, Z0, Z2               // u + v in [0, 4p)
	VPADDQ Z13, Z0, Z3
	VPSUBQ Z1, Z3, Z3               // u - v + 2p in (0, 4p)
	MULSHOUP(Z2, Z8, Z9, Z4, Z5)
	MULSHOUP(Z3, Z10, Z11, Z6, Z7)
	FOLDP(Z4, Z5)
	FOLDP(Z6, Z7)
	VMOVDQU64 Z4, (DI)
	VMOVDQU64 Z6, (SI)
	ADDQ $64, DI
	ADDQ $64, SI
	DECQ CX
	JNZ  loop
	VZEROUPPER
	RET
