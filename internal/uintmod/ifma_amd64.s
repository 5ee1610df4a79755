// AVX-512 IFMA row kernels for the dyadic ring operations.
//
// HEAX picks 52-bit moduli because four 27-bit DSP multipliers make one
// 54-bit product (paper Section 4); Intel's IFMA extension makes the same
// argument on CPUs: VPMADD52{L,H}UQ multiply eight 52-bit lanes at once.
//
// All kernels require: p odd and below 2^50 (every Table 2 prime
// qualifies), n > 0 and n % 8 == 0. Their Go wrappers (vec.go,
// permute.go) route a row here only when IFMAUsable.

#include "textflag.h"

// func detectIFMA() bool
TEXT ·detectIFMA(SB), NOSPLIT, $0-1
	// CPUID leaf 1: ECX bit 27 OSXSAVE, bit 28 AVX.
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	ANDL $(1<<27 | 1<<28), R8
	CMPL R8, $(1<<27 | 1<<28)
	JNE  no
	// XCR0: SSE+AVX (0x6) and opmask+zmm hi256+hi16 zmm (0xE0).
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  no
	// CPUID leaf 7 subleaf 0: EBX bit 16 AVX512F, bit 21 AVX512IFMA.
	MOVL $7, AX
	XORL CX, CX
	CPUID
	MOVL BX, R8
	ANDL $(1<<16 | 1<<21), R8
	CMPL R8, $(1<<16 | 1<<21)
	JNE  no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// ---- general-operand kernels (Barrett by halves) ------------------------
//
// The dyadic ops of the evaluator (MulPlain and sums of them, the
// Algorithm 5 tensor, the key-switch multiply-accumulate) multiply
// two variable rows, so the kernels reduce the 104-bit product with one
// Barrett constant per row and need no per-coefficient constant of either
// operand — the scheme Intel HEXL uses for its 52-bit path. Inputs and
// outputs are fully reduced, so every result equals Modulus.MulMod/AddMod
// bit for bit.
//
// Let k = bitlen(p), so 2^(k-1) < p < 2^k (p is odd) and k <= 50, and let
// x, y < p with z = x*y < 2^(2k). Per row the Go wrapper computes
//
//	mu    = floor(2^(k+51) / p)   < 2^52   (p > 2^(k-1))
//	shift = 52 - k
//
// and the loop evaluates, per lane,
//
//	c  = hi52(2x * (y << shift)) = floor(z / 2^(k-1))   < 2^(k+1) <= 2^51
//	lo = lo52(x * y)
//	q  = hi52(c * mu)
//	r  = (lo + lo52(q * (2^52 - p))) mod 2^52  =  (z - q*p) mod 2^52
//
// Both IFMA operands of the first product fit 52 bits (2x < 2^51,
// y << shift < 2^52) and the product is exact, so c is the exact floor.
// q never overestimates floor(z/p) because c <= z/2^(k-1) and
// mu <= 2^(k+51)/p. From below, c > z/2^(k-1) - 1 and mu > 2^(k+51)/p - 1
// give
//
//	c*mu/2^52 > z/p - z/2^(k+51) - 2^(k-1)/p > z/p - 2^(k-51) - 1 >= z/p - 3/2
//
// and the floor costs less than one more, so 0 <= z - q*p < 5p/2 < 2^52:
// the value mod 2^52 is the value, and two VPMINUQ folds (by 2p, then p)
// give the canonical residue.
//
// The tensor's middle term a0*b1 + a1*b0 is reduced once: both products
// accumulate in the same hi/lo lanes (VPMADD52 adds into its destination).
// Then z < 2^(2k+1), c is the sum of two floors — at least
// z/2^(k-1) - 2 and below 2^(k+2) <= 2^52 — and lo < 2^53. The same chain
// of inequalities gives c*mu/2^52 > z/p - 2^(k-50) - 2 >= z/p - 3, hence
// 0 <= z - q*p < 4p < 2^52, still inside what the two folds reduce.
//
// The dot product defers the reduction across T products. With Z = sum z_i:
// c = sum c_i lies in (Z/2^(k-1) - T, Z/2^(k-1)] and is an IFMA operand, so
// it must stay below 2^52: c < T*2^(k+1) <= 2^52 asks T <= 2^(51-k). lo
// adds T values below 2^52 and then one more, lo52(q*(2^52-p)), in a 64-bit
// lane: (T+1)*(2^52-1) < 2^64 asks T <= 4095. q = hi52(c*mu) still never
// overestimates floor(Z/p), and from below
//
//	c*mu/2^52 > Z/p - Z/2^(k+51) - T*2^(k-1)/p > Z/p - T*2^(k-51) - T >= Z/p - T - 1
//
// (Z < T*2^(2k), and T*2^(k-51) <= 1 by the first condition); the floor
// costs less than one more, so 0 <= Z - q*p < (T+2)p, and with an addend
// below p the value to fold is below (T+3)p, which must fit a lane:
// (T+3)*2^k <= 2^52 asks T <= 2^(52-k) - 3. The three conditions give the
// most products one reduction may absorb (dotPairLimit):
//
//	k       <= 39   40    43   46  48  49  50
//	limit   4095  2048   256   32   8   4   1
//
// A value below 2^f*p takes f folds, by 2^(f-1)*p down to p.
//
// Every iteration loads all of its inputs before its first store, so an
// output row may be the same slice as an input row (partial overlap is
// not supported). Constants live in Z10-Z15 for the whole loop:
//
//	Z10 mu   Z11 shift   Z12 p   Z13 2p   Z14 2^52-1   Z15 2^52-p

// DYADCONST loads the loop constants from AX = p and a kernel's two row
// constants from DX and BX (mu and shift for the kernels of this section).
#define DYADCONST \
	VPBROADCASTQ AX, Z12; \
	VPADDQ Z12, Z12, Z13; \
	VPBROADCASTQ DX, Z10; \
	VPBROADCASTQ BX, Z11; \
	MOVQ $0x000FFFFFFFFFFFFF, DX; \
	VPBROADCASTQ DX, Z14; \
	INCQ DX; \
	SUBQ AX, DX; \
	VPBROADCASTQ DX, Z15

// PRODUCT sets c = floor(x*y/2^(k-1)), lo = lo52(x*y) from x, x2 = 2x,
// y, ys = y << shift; PRODUCTACC adds a second product into the same lanes.
#define PRODUCTACC(x, x2, y, ys, c, lo) \
	VPMADD52HUQ ys, x2, c; \
	VPMADD52LUQ y, x, lo
#define PRODUCT(x, x2, y, ys, c, lo) \
	VPXORQ c, c, c; \
	VPXORQ lo, lo, lo; \
	PRODUCTACC(x, x2, y, ys, c, lo)

// BARRETT sets lo = z - floor(c*mu/2^52)*p, in [0, 4p) for one or two
// accumulated products and [0, (T+2)p) for T; t is scratch.
#define BARRETT(c, lo, t) \
	VPXORQ t, t, t; \
	VPMADD52HUQ Z10, c, t; \
	VPMADD52LUQ Z15, t, lo; \
	VPANDQ Z14, lo, lo

// FOLDP maps r in [0, 2p) to [0, p), FOLD r in [0, 4p); t is scratch.
#define FOLDP(r, t) \
	VPSUBQ Z12, r, t; \
	VPMINUQ t, r, r
#define FOLD(r, t) \
	VPSUBQ Z13, r, t; \
	VPMINUQ t, r, r; \
	FOLDP(r, t)

// func vecMulIFMA(out, x, y *uint64, n int, p, mu, shift uint64)
// out[i] = x[i]*y[i] mod p for x[i], y[i] < p.
TEXT ·vecMulIFMA(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), R8
	MOVQ n+24(FP), CX
	MOVQ p+32(FP), AX
	MOVQ mu+40(FP), DX
	MOVQ shift+48(FP), BX
	DYADCONST
	SHRQ $3, CX
loop:
	VMOVDQU64 (SI), Z0              // x
	VMOVDQU64 (R8), Z1              // y
	VPADDQ Z0, Z0, Z2               // 2x
	VPSLLVQ Z11, Z1, Z3             // y << shift
	PRODUCT(Z0, Z2, Z1, Z3, Z4, Z5)
	BARRETT(Z4, Z5, Z6)
	FOLD(Z5, Z6)
	VMOVDQU64 Z5, (DI)
	ADDQ $64, DI
	ADDQ $64, SI
	ADDQ $64, R8
	DECQ CX
	JNZ  loop
	VZEROUPPER
	RET

// func vecMulPairIFMA(out0, out1, x0, x1, y *uint64, n int, p, mu, shift uint64, compact bool)
// out0[i] = x0[i]*y[i] mod p, out1[i] = x1[i]*y[i] mod p: the shared
// operand (MulPlain's plaintext row) is loaded and shifted once. A
// compact y holds one value per 8-lane block, broadcast into the vector.
TEXT ·vecMulPairIFMA(SB), NOSPLIT, $0-73
	MOVQ out0+0(FP), DI
	MOVQ out1+8(FP), R10
	MOVQ x0+16(FP), SI
	MOVQ x1+24(FP), R9
	MOVQ y+32(FP), R8
	MOVQ n+40(FP), CX
	MOVQ p+48(FP), AX
	MOVQ mu+56(FP), DX
	MOVQ shift+64(FP), BX
	MOVBQZX compact+72(FP), R11
	DYADCONST
	SHRQ $3, CX
loop:
	VMOVDQU64 (SI), Z0              // x0
	VMOVDQU64 (R9), Z7              // x1
	TESTQ R11, R11
	JNZ  bcast
	VMOVDQU64 (R8), Z1              // y
	ADDQ $64, R8
loaded:
	VPSLLVQ Z11, Z1, Z3             // y << shift
	VPADDQ Z0, Z0, Z2               // 2*x0
	VPADDQ Z7, Z7, Z8               // 2*x1
	PRODUCT(Z0, Z2, Z1, Z3, Z4, Z5)
	PRODUCT(Z7, Z8, Z1, Z3, Z16, Z17)
	BARRETT(Z4, Z5, Z6)
	BARRETT(Z16, Z17, Z18)
	FOLD(Z5, Z6)
	FOLD(Z17, Z18)
	VMOVDQU64 Z5, (DI)
	VMOVDQU64 Z17, (R10)
	ADDQ $64, DI
	ADDQ $64, R10
	ADDQ $64, SI
	ADDQ $64, R9
	DECQ CX
	JNZ  loop
	VZEROUPPER
	RET
bcast:
	VPBROADCASTQ (R8), Z1           // y[i/8] in all eight lanes
	ADDQ $8, R8
	JMP  loaded

// func vecDotPairIFMA(out0, out1 *uint64, terms *[3][]uint64, t, limit, folds, n int, p, mu, shift uint64, acc bool)
// out0[i] = sum_j x0_j[i]*y_j[i] mod p, out1[i] = sum_j x1_j[i]*y_j[i] mod p
// over the t triples (x0_j, x1_j, y_j) at terms, added to what out0/out1
// hold when acc is set. Per 8-lane block the products of up to limit
// terms accumulate unreduced in four registers (PRODUCTACC, as in the
// tensor's middle term), one BARRETT and folds folds reduce them, and the
// reduced pair enters the next limit terms as the addend: each operand is
// read once and each output written once, whatever t and p are. A term
// whose y is shorter than n holds one value per 8-lane block (compact),
// broadcast into the vector. Requires 1 <= limit <= dotPairLimit(p) and
// 2^folds >= min(limit, t) + 3.
TEXT ·vecDotPairIFMA(SB), NOSPLIT, $0-81
	MOVQ out0+0(FP), DI
	MOVQ out1+8(FP), R10
	MOVQ terms+16(FP), R14
	MOVQ t+24(FP), R11
	MOVQ limit+32(FP), R12
	MOVQ folds+40(FP), R15
	MOVQ n+48(FP), CX
	MOVQ p+56(FP), AX
	MOVQ mu+64(FP), DX
	MOVQ shift+72(FP), BX
	DYADCONST
	LEAQ -1(R15), BX
	VPBROADCASTQ BX, Z21
	VPSLLVQ Z21, Z12, Z21           // 2^(folds-1) * p
	MOVQ CX, R9                     // n: the length of a full y
	SHLQ $3, CX                     // row bytes
	XORQ R13, R13                   // block offset
outer:
	VPXORQ Z19, Z19, Z19            // addend
	VPXORQ Z20, Z20, Z20
	CMPB acc+80(FP), $0
	JEQ  first
	VMOVDQU64 (DI)(R13*1), Z19
	VMOVDQU64 (R10)(R13*1), Z20
first:
	MOVQ R14, SI                    // next triple
	MOVQ R11, DX                    // terms left
block:
	MOVQ DX, BX
	CMPQ BX, R12
	CMOVQGT R12, BX                 // min(left, limit) terms this reduction
	SUBQ BX, DX
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
term:
	MOVQ 0(SI), R8
	MOVQ 24(SI), AX
	VMOVDQU64 (R8)(R13*1), Z0       // x0
	VMOVDQU64 (AX)(R13*1), Z7       // x1
	MOVQ 48(SI), R8
	CMPQ 56(SI), R9                 // len(y)
	JNE  bcast
	VMOVDQU64 (R8)(R13*1), Z1       // y
loaded:
	VPSLLVQ Z11, Z1, Z3             // y << shift
	VPADDQ Z0, Z0, Z2               // 2*x0
	VPADDQ Z7, Z7, Z8               // 2*x1
	PRODUCTACC(Z0, Z2, Z1, Z3, Z4, Z5)
	PRODUCTACC(Z7, Z8, Z1, Z3, Z16, Z17)
	ADDQ $72, SI
	DECQ BX
	JNZ  term
	BARRETT(Z4, Z5, Z6)
	BARRETT(Z16, Z17, Z18)
	VPADDQ Z19, Z5, Z19             // + addend: [0, 2^folds * p)
	VPADDQ Z20, Z17, Z20
	VMOVDQA64 Z21, Z22
	MOVQ R15, BX
fold:
	VPSUBQ Z22, Z19, Z6
	VPMINUQ Z6, Z19, Z19
	VPSUBQ Z22, Z20, Z18
	VPMINUQ Z18, Z20, Z20
	VPSRLQ $1, Z22, Z22
	DECQ BX
	JNZ  fold
	TESTQ DX, DX
	JNZ  block
	VMOVDQU64 Z19, (DI)(R13*1)
	VMOVDQU64 Z20, (R10)(R13*1)
	ADDQ $64, R13
	CMPQ R13, CX
	JB   outer
	VZEROUPPER
	RET
bcast:
	MOVQ R13, AX
	SHRQ $3, AX                     // this block's value: byte offset / 8
	VPBROADCASTQ (R8)(AX*1), Z1     // compact y
	JMP  loaded

// func vecMulTensorIFMA(c0, c1, c2, a0, a1, b0, b1 *uint64, n int, p, mu, shift uint64)
// Algorithm 5 in one pass: c0 = a0*b0, c1 = a0*b1 + a1*b0, c2 = a1*b1
// (mod p, fully reduced), three reductions for four products.
TEXT ·vecMulTensorIFMA(SB), NOSPLIT, $0-88
	MOVQ c0+0(FP), DI
	MOVQ c1+8(FP), R10
	MOVQ c2+16(FP), R11
	MOVQ a0+24(FP), SI
	MOVQ a1+32(FP), R9
	MOVQ b0+40(FP), R8
	MOVQ b1+48(FP), R12
	MOVQ n+56(FP), CX
	MOVQ p+64(FP), AX
	MOVQ mu+72(FP), DX
	MOVQ shift+80(FP), BX
	DYADCONST
	SHRQ $3, CX
loop:
	VMOVDQU64 (SI), Z0              // a0
	VMOVDQU64 (R9), Z1              // a1
	VMOVDQU64 (R8), Z2              // b0
	VMOVDQU64 (R12), Z3             // b1
	VPADDQ Z0, Z0, Z4               // 2*a0
	VPADDQ Z1, Z1, Z5               // 2*a1
	VPSLLVQ Z11, Z2, Z6             // b0 << shift
	VPSLLVQ Z11, Z3, Z7             // b1 << shift
	PRODUCT(Z0, Z4, Z2, Z6, Z16, Z17)       // a0*b0
	PRODUCT(Z1, Z5, Z3, Z7, Z19, Z20)       // a1*b1
	PRODUCT(Z0, Z4, Z3, Z7, Z22, Z23)       // a0*b1
	PRODUCTACC(Z1, Z5, Z2, Z6, Z22, Z23)    //  + a1*b0
	BARRETT(Z16, Z17, Z18)
	BARRETT(Z19, Z20, Z21)
	BARRETT(Z22, Z23, Z24)
	FOLD(Z17, Z18)
	FOLD(Z20, Z21)
	FOLD(Z23, Z24)
	VMOVDQU64 Z17, (DI)
	VMOVDQU64 Z23, (R10)
	VMOVDQU64 Z20, (R11)
	ADDQ $64, DI
	ADDQ $64, R10
	ADDQ $64, R11
	ADDQ $64, SI
	ADDQ $64, R9
	ADDQ $64, R8
	ADDQ $64, R12
	DECQ CX
	JNZ  loop
	VZEROUPPER
	RET

// func vecAddIFMA(out, x, y *uint64, n int, p uint64)
// out[i] = (x[i] + y[i]) mod p for x[i], y[i] < p.
TEXT ·vecAddIFMA(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), R8
	MOVQ n+24(FP), CX
	MOVQ p+32(FP), AX
	VPBROADCASTQ AX, Z12
	SHRQ $3, CX
loop:
	VMOVDQU64 (SI), Z0
	VPADDQ (R8), Z0, Z0             // x + y in [0, 2p)
	VPSUBQ Z12, Z0, Z1              // wraps when x + y < p
	VPMINUQ Z1, Z0, Z0
	VMOVDQU64 Z0, (DI)
	ADDQ $64, DI
	ADDQ $64, SI
	ADDQ $64, R8
	DECQ CX
	JNZ  loop
	VZEROUPPER
	RET

// func vecSubIFMA(out, x, y *uint64, n int, p uint64)
// out[i] = (x[i] - y[i]) mod p for x[i], y[i] < p.
TEXT ·vecSubIFMA(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), R8
	MOVQ n+24(FP), CX
	MOVQ p+32(FP), AX
	VPBROADCASTQ AX, Z12
	SHRQ $3, CX
loop:
	VMOVDQU64 (SI), Z0
	VPSUBQ (R8), Z0, Z0             // x - y, wraps when x < y
	VPADDQ Z12, Z0, Z1              // ... and this is then the residue
	VPMINUQ Z1, Z0, Z0
	VMOVDQU64 Z0, (DI)
	ADDQ $64, DI
	ADDQ $64, SI
	ADDQ $64, R8
	DECQ CX
	JNZ  loop
	VZEROUPPER
	RET

// ---- constant-operand kernels (the RNS base conversion and flooring) ----
//
// Key switching and rescaling move a coefficient row from one prime to
// another (Algorithm 7 line 6, Algorithm 6 lines 3-6): reduce it modulo
// the target prime before the transform — a one-row linear combination of
// weight 1 — and after it subtract, scale by the dropped prime's inverse
// and add. Both multiply by one constant per row, so they use the Shoup
// form w' = floor(w*2^52/p) (ShoupPrecomp52). DYADCONST puts the two row
// constants in Z10 and Z11.

// func vecSubMulAddIFMA(out, a, r, add *uint64, n int, p, w, wShoup uint64)
// out[i] = ((a[i] - r[i])*w + add[i]) mod p for a[i], r[i], add[i], w < p;
// add may be nil (no addition). d = a - r + p lies in (0, 2p), and for any
// d < 2^52 the Shoup product d*w - hi52(d*w')*p lies in [0, 2p)
// (ShoupPrecomp52), so one fold reduces it and one more the sum. Like
// vecLinCombIFMA, four 8-lane blocks go at once and a row's last blocks
// one at a time; whether add is nil is tested once, and each case has its
// own loops. Every block's inputs are loaded before its store, so out may
// be any of the rows.

// SMPROD sets acc to (a - r)*w mod p for the block at byte offset off from
// R13; d and t are scratch.
#define SMPROD(off, d, t, acc) \
	VPADDQ off(SI)(R13*1), Z12, d; \
	VPSUBQ off(R8)(R13*1), d, d; \
	VPXORQ t, t, t; \
	VPMADD52HUQ Z11, d, t; \
	VPXORQ acc, acc, acc; \
	VPMADD52LUQ Z10, d, acc; \
	VPMADD52LUQ Z15, t, acc; \
	VPANDQ Z14, acc, acc; \
	FOLDP(acc, d)

// SMADD adds the add row's block at byte offset off from R13 into acc,
// reduced; t is scratch.
#define SMADD(off, acc, t) \
	VPADDQ off(R9)(R13*1), acc, acc; \
	FOLDP(acc, t)

TEXT ·vecSubMulAddIFMA(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ r+16(FP), R8
	MOVQ add+24(FP), R9
	MOVQ n+32(FP), CX
	MOVQ p+40(FP), AX
	MOVQ w+48(FP), DX
	MOVQ wShoup+56(FP), BX
	DYADCONST
	SHLQ $3, CX                     // row bytes
	LEAQ -256(CX), R14              // the last offset four blocks start at
	XORQ R13, R13                   // block offset
	TESTQ R9, R9
	JZ   sm4
sa4:
	CMPQ R13, R14
	JGT  sa1
	SMPROD(0, Z0, Z1, Z2)
	SMPROD(64, Z3, Z4, Z5)
	SMPROD(128, Z6, Z7, Z8)
	SMPROD(192, Z16, Z17, Z18)
	SMADD(0, Z2, Z1)
	SMADD(64, Z5, Z4)
	SMADD(128, Z8, Z7)
	SMADD(192, Z18, Z17)
	VMOVDQU64 Z2, (DI)(R13*1)
	VMOVDQU64 Z5, 64(DI)(R13*1)
	VMOVDQU64 Z8, 128(DI)(R13*1)
	VMOVDQU64 Z18, 192(DI)(R13*1)
	ADDQ $256, R13
	JMP  sa4
sm4:
	CMPQ R13, R14
	JGT  sm1
	SMPROD(0, Z0, Z1, Z2)
	SMPROD(64, Z3, Z4, Z5)
	SMPROD(128, Z6, Z7, Z8)
	SMPROD(192, Z16, Z17, Z18)
	VMOVDQU64 Z2, (DI)(R13*1)
	VMOVDQU64 Z5, 64(DI)(R13*1)
	VMOVDQU64 Z8, 128(DI)(R13*1)
	VMOVDQU64 Z18, 192(DI)(R13*1)
	ADDQ $256, R13
	JMP  sm4
sa1:
	CMPQ R13, CX
	JAE  smdone
	SMPROD(0, Z0, Z1, Z2)
	SMADD(0, Z2, Z1)
	VMOVDQU64 Z2, (DI)(R13*1)
	ADDQ $64, R13
	JMP  sa1
sm1:
	CMPQ R13, CX
	JAE  smdone
	SMPROD(0, Z0, Z1, Z2)
	VMOVDQU64 Z2, (DI)(R13*1)
	ADDQ $64, R13
	JMP  sm1
smdone:
	VZEROUPPER
	RET

// func vecLinCombIFMA(out *uint64, xs *[]uint64, ws, wShoups *uint64, t, n int, p, add uint64, folds int)
// out[i] = (sum_j xs[j][i]*ws[j] + add) mod p over t rows of values below
// 2^52, ws[j] and add below p. Each Shoup product x*w - hi52(x*w')*p lies
// in [0, 2p) (ShoupPrecomp52) and is exact mod 2^52, so the sum lies in
// [0, (2t+1)p), below 2^55; folds folds, by 2^(folds-1)*p down to p, with
// 2^folds > 2t, reduce it. Four 8-lane blocks go at once, each term's
// weights broadcast once for them, so the four products overlap; the
// last blocks of a row that is not a whole number of four go one at a
// time. Per block every row is loaded before the block's one store, so
// out may be one of the rows.

// LCTERM adds the Shoup product of the term row at BX, block off, with
// w (Z10) and w' (Z11) into acc.
#define LCTERM(off, acc) \
	VMOVDQU64 off(BX)(R13*1), Z0; \
	VPXORQ Z1, Z1, Z1; \
	VPMADD52HUQ Z11, Z0, Z1; \
	VPXORQ Z2, Z2, Z2; \
	VPMADD52LUQ Z10, Z0, Z2; \
	VPMADD52LUQ Z15, Z1, Z2; \
	VPANDQ Z14, Z2, Z2; \
	VPADDQ Z2, acc, acc

// LCFOLD subtracts the fold step in Z22 from acc where it does not
// underflow; t is scratch.
#define LCFOLD(acc, t) \
	VPSUBQ Z22, acc, t; \
	VPMINUQ t, acc, acc

TEXT ·vecLinCombIFMA(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), DI
	MOVQ xs+8(FP), SI
	MOVQ ws+16(FP), R8
	MOVQ wShoups+24(FP), R9
	MOVQ t+32(FP), R11
	MOVQ n+40(FP), CX
	MOVQ p+48(FP), AX
	MOVQ add+56(FP), DX
	MOVQ folds+64(FP), R15
	VPBROADCASTQ AX, Z12
	MOVQ $0x000FFFFFFFFFFFFF, BX
	VPBROADCASTQ BX, Z14            // 2^52 - 1
	INCQ BX
	SUBQ AX, BX
	VPBROADCASTQ BX, Z15            // 2^52 - p
	VPBROADCASTQ DX, Z13            // add
	LEAQ -1(R15), BX
	VPBROADCASTQ BX, Z21
	VPSLLVQ Z21, Z12, Z21           // 2^(folds-1) * p
	SHLQ $3, CX                     // row bytes
	MOVQ CX, R14
	SUBQ $256, R14                  // the last offset four blocks start at
	XORQ R13, R13                   // block offset
lc4:
	CMPQ R13, R14
	JGT  lc1
	VMOVDQA64 Z13, Z19              // sums = add
	VMOVDQA64 Z13, Z23
	VMOVDQA64 Z13, Z24
	VMOVDQA64 Z13, Z25
	MOVQ SI, R12                    // next row header
	XORQ R10, R10                   // next weight
lc4term:
	MOVQ (R12), BX
	VPBROADCASTQ (R8)(R10*8), Z10   // w
	VPBROADCASTQ (R9)(R10*8), Z11   // w'
	LCTERM(0, Z19)
	LCTERM(64, Z23)
	LCTERM(128, Z24)
	LCTERM(192, Z25)
	ADDQ $24, R12
	INCQ R10
	CMPQ R10, R11
	JB   lc4term
	VMOVDQA64 Z21, Z22
	MOVQ R15, BX
lc4fold:
	LCFOLD(Z19, Z6)
	LCFOLD(Z23, Z7)
	LCFOLD(Z24, Z8)
	LCFOLD(Z25, Z9)
	VPSRLQ $1, Z22, Z22
	DECQ BX
	JNZ  lc4fold
	VMOVDQU64 Z19, (DI)(R13*1)
	VMOVDQU64 Z23, 64(DI)(R13*1)
	VMOVDQU64 Z24, 128(DI)(R13*1)
	VMOVDQU64 Z25, 192(DI)(R13*1)
	ADDQ $256, R13
	JMP  lc4
lc1:
	CMPQ R13, CX
	JAE  lcdone
	VMOVDQA64 Z13, Z19
	MOVQ SI, R12
	XORQ R10, R10
lc1term:
	MOVQ (R12), BX
	VPBROADCASTQ (R8)(R10*8), Z10
	VPBROADCASTQ (R9)(R10*8), Z11
	LCTERM(0, Z19)
	ADDQ $24, R12
	INCQ R10
	CMPQ R10, R11
	JB   lc1term
	VMOVDQA64 Z21, Z22
	MOVQ R15, BX
lc1fold:
	LCFOLD(Z19, Z6)
	VPSRLQ $1, Z22, Z22
	DECQ BX
	JNZ  lc1fold
	VMOVDQU64 Z19, (DI)(R13*1)
	ADDQ $64, R13
	JMP  lc1
lcdone:
	VZEROUPPER
	RET

// ---- block permutations (NTT-domain automorphisms) ----------------------
//
// An automorphism of a bit-reversed NTT row moves whole aligned 8-lane
// blocks and reorders the lanes of each with one of at most 8 shuffles
// (ring.Automorphism derives why). One 32-bit word per output block,
// src<<3 | k, names its source block and its shuffle; lanes holds the 8
// shuffles as VPERMQ index vectors, 512 bytes that stay in L1. A block is
// then one load of its source, one VPERMQ and one store: the memory
// traffic of a row copy, not a scalar gather. These kernels need only
// AVX-512F; outputs must not overlap the sources.

// func vecPermuteIFMA(out, x *uint64, blocks *uint32, lanes *[8][8]uint64, nb int)
// out[8b+l] = x[8*(blocks[b]>>3) + lanes[blocks[b]&7][l]] for b < nb.
TEXT ·vecPermuteIFMA(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ blocks+16(FP), R8
	MOVQ lanes+24(FP), R9
	MOVQ nb+32(FP), CX
loop:
	MOVL (R8), AX
	MOVL AX, BX
	ANDL $7, BX
	SHLL $6, BX                     // shuffle k at lanes + 64k
	ANDL $-8, AX
	SHLQ $3, AX                     // source block at x + 64*src
	VMOVDQU64 (R9)(BX*1), Z1
	VPERMQ (SI)(AX*1), Z1, Z0
	VMOVDQU64 Z0, (DI)
	ADDQ $4, R8
	ADDQ $64, DI
	DECQ CX
	JNZ  loop
	VZEROUPPER
	RET

// func vecPermutePairIFMA(out0, out1, x0, x1 *uint64, blocks *uint32, lanes *[8][8]uint64, nb int, p uint64, add bool)
// vecPermuteIFMA of x0 into out0 and of x1 into out1 under one map, each
// word and index vector loaded once; with add, out0 = (out0 + σ(x0)) mod p
// for out0[i], x0[i] < p.
TEXT ·vecPermutePairIFMA(SB), NOSPLIT, $0-65
	MOVQ out0+0(FP), DI
	MOVQ out1+8(FP), DX
	MOVQ x0+16(FP), SI
	MOVQ x1+24(FP), R10
	MOVQ blocks+32(FP), R8
	MOVQ lanes+40(FP), R9
	MOVQ nb+48(FP), CX
	MOVQ p+56(FP), AX
	VPBROADCASTQ AX, Z12
	CMPB add+64(FP), $0
	JNE  addloop
loop:
	MOVL (R8), AX
	MOVL AX, BX
	ANDL $7, BX
	SHLL $6, BX
	ANDL $-8, AX
	SHLQ $3, AX
	VMOVDQU64 (R9)(BX*1), Z1
	VPERMQ (SI)(AX*1), Z1, Z0
	VPERMQ (R10)(AX*1), Z1, Z2
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z2, (DX)
	ADDQ $4, R8
	ADDQ $64, DI
	ADDQ $64, DX
	DECQ CX
	JNZ  loop
	VZEROUPPER
	RET
addloop:
	MOVL (R8), AX
	MOVL AX, BX
	ANDL $7, BX
	SHLL $6, BX
	ANDL $-8, AX
	SHLQ $3, AX
	VMOVDQU64 (R9)(BX*1), Z1
	VPERMQ (SI)(AX*1), Z1, Z0
	VPERMQ (R10)(AX*1), Z1, Z2
	VPADDQ (DI), Z0, Z0             // out0 + σ(x0) in [0, 2p)
	VPSUBQ Z12, Z0, Z3              // wraps when the sum is below p
	VPMINUQ Z3, Z0, Z0
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z2, (DX)
	ADDQ $4, R8
	ADDQ $64, DI
	ADDQ $64, DX
	DECQ CX
	JNZ  addloop
	VZEROUPPER
	RET
