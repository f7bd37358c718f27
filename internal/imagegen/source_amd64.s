// AVX2 kernel of source.Seed. Lane l of each ymm register is register
// word 4b+l. The chain states are below 2³¹, so VPMULUDQ, which
// multiplies the low 32 bits of each 64-bit lane, forms the exact 62-bit
// product x0·48271ⁿ, and the reduction is lehmer's: the low and high
// 31-bit halves added, then 2³¹−1 subtracted where the sum reaches it.
// The integer arithmetic is exact, so every word is seedWords' own.

#include "textflag.h"

// func seedBlocksAVX2(reg *int64, pow *uint64, cooked *int64, x0 uint64, blocks int)
TEXT ·seedBlocksAVX2(SB), NOSPLIT, $0-40
	MOVQ         reg+0(FP), DI
	MOVQ         pow+8(FP), SI
	MOVQ         cooked+16(FP), DX
	VPBROADCASTQ x0+24(FP), Y15
	MOVQ         blocks+32(FP), CX
	MOVQ         $0x7fffffff, AX
	MOVQ         AX, X14
	VPBROADCASTQ X14, Y14 // 2³¹−1 in every lane
	MOVQ         $0x7ffffffe, AX
	MOVQ         AX, X13
	VPBROADCASTQ X13, Y13 // 2³¹−2: r > 2³¹−2 ⇔ r ≥ 2³¹−1
	TESTQ        CX, CX
	JZ           done

loop:
	VPMULUDQ 0(SI), Y15, Y0 // x0·p, first states
	VPMULUDQ 32(SI), Y15, Y2 // second
	VPMULUDQ 64(SI), Y15, Y4 // third
	VPSRLQ   $31, Y0, Y1
	VPSRLQ   $31, Y2, Y3
	VPSRLQ   $31, Y4, Y5
	VPAND    Y14, Y0, Y0
	VPAND    Y14, Y2, Y2
	VPAND    Y14, Y4, Y4
	VPADDQ   Y1, Y0, Y0 // r = low + high
	VPADDQ   Y3, Y2, Y2
	VPADDQ   Y5, Y4, Y4
	VPCMPGTQ Y13, Y0, Y1 // all ones where r ≥ 2³¹−1
	VPCMPGTQ Y13, Y2, Y3
	VPCMPGTQ Y13, Y4, Y5
	VPAND    Y14, Y1, Y1
	VPAND    Y14, Y3, Y3
	VPAND    Y14, Y5, Y5
	VPSUBQ   Y1, Y0, Y0
	VPSUBQ   Y3, Y2, Y2
	VPSUBQ   Y5, Y4, Y4
	VPSLLQ   $40, Y0, Y0
	VPSLLQ   $20, Y2, Y2
	VPXOR    Y2, Y0, Y0
	VPXOR    Y4, Y0, Y0
	VPXOR    0(DX), Y0, Y0 // ^ rngCooked
	VMOVDQU  Y0, 0(DI)

	ADDQ $96, SI
	ADDQ $32, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  loop

done:
	VZEROUPPER
	RET
