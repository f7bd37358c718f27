// AVX2 phase kernels of the tiled batch scan. Lane L of the ymm
// accumulator is stripe accumulator sL (dim i feeds stripe i%4, exactly
// the scalar striping), each VSUBPD/VMULPD/VADDPD is the four scalar
// IEEE ops of one 4-dim block — no FMA, whose single rounding would
// diverge from the two-rounding scalar sequence — and the reduction adds
// (s0+s1)+(s2+s3) in the canonical association. Survivor compaction,
// cursor arithmetic and the strict bound comparison mirror the SSE2
// kernels in phase1_amd64.s line for line.

#include "textflag.h"

// func phase1x32AVX2(q, head *float64, rows int, bound2 float64, s0b, s1b, s2b, s3b *float64, surv *int32) int
TEXT ·phase1x32AVX2(SB), NOSPLIT, $0-80
	MOVQ   q+0(FP), SI
	MOVQ   head+8(FP), DI
	MOVQ   rows+16(FP), CX
	VMOVSD bound2+24(FP), X12
	MOVQ   s0b+32(FP), R8
	MOVQ   s1b+40(FP), R9
	MOVQ   s2b+48(FP), R10
	MOVQ   s3b+56(FP), R11
	MOVQ   surv+64(FP), R12

	// q[0..3], q[4..7] stay in registers for the whole tile.
	VMOVUPD 0(SI), Y8
	VMOVUPD 32(SI), Y9

	XORQ  BX, BX // c1 (survivor cursor)
	XORQ  DX, DX // r  (row index)
	TESTQ CX, CX
	JZ    done

loop:
	VMOVUPD 0(DI), Y0   // row[0..3]
	VSUBPD  Y0, Y8, Y4  // d0..d3
	VMULPD  Y4, Y4, Y4  // s0..s3 = d*d
	VMOVUPD 32(DI), Y1  // row[4..7]
	VSUBPD  Y1, Y9, Y5  // d4..d7
	VMULPD  Y5, Y5, Y5
	VADDPD  Y5, Y4, Y4  // sL += d(L+4)^2

	// Store stripes and row id at the survivor cursor.
	VEXTRACTF128 $1, Y4, X5 // [s2,s3]; X4 = [s0,s1]
	VMOVLPD      X4, (R8)(BX*8)
	VMOVHPD      X4, (R9)(BX*8)
	VMOVLPD      X5, (R10)(BX*8)
	VMOVHPD      X5, (R11)(BX*8)
	MOVL         DX, (R12)(BX*4)

	// t = (s0+s1)+(s2+s3); advance cursor when t <= bound2.
	VUNPCKHPD X4, X4, X6 // [s1,s1]
	VADDSD    X6, X4, X6 // s0+s1
	VUNPCKHPD X5, X5, X7 // [s3,s3]
	VADDSD    X7, X5, X7 // s2+s3
	VADDSD    X7, X6, X6
	VUCOMISD  X6, X12    // flags: bound2 cmp t; CF=1 iff bound2 < t
	SETCC     AX         // AX = (t <= bound2), 0 on unordered
	MOVBLZX   AX, AX
	ADDQ      AX, BX

	ADDQ $64, DI // next head row (8 dims x 8 bytes)
	INCQ DX
	DECQ CX
	JNZ  loop

done:
	MOVQ BX, ret+72(FP)
	VZEROUPPER
	RET

// func phase1x32wAVX2(q, w, head *float64, rows int, bound2 float64, s0b, s1b, s2b, s3b *float64, surv *int32) int
TEXT ·phase1x32wAVX2(SB), NOSPLIT, $0-88
	MOVQ   q+0(FP), SI
	MOVQ   w+8(FP), R13
	MOVQ   head+16(FP), DI
	MOVQ   rows+24(FP), CX
	VMOVSD bound2+32(FP), X12
	MOVQ   s0b+40(FP), R8
	MOVQ   s1b+48(FP), R9
	MOVQ   s2b+56(FP), R10
	MOVQ   s3b+64(FP), R11
	MOVQ   surv+72(FP), R12

	VMOVUPD 0(SI), Y8
	VMOVUPD 32(SI), Y9
	VMOVUPD 0(R13), Y10  // w[0..3]
	VMOVUPD 32(R13), Y11 // w[4..7]

	XORQ  BX, BX
	XORQ  DX, DX
	TESTQ CX, CX
	JZ    wdone

wloop:
	// sL = (w*d)*d, matching the scalar association.
	VMOVUPD 0(DI), Y0
	VSUBPD  Y0, Y8, Y4   // d0..d3
	VMULPD  Y4, Y10, Y6  // w*d
	VMULPD  Y4, Y6, Y4   // (w*d)*d
	VMOVUPD 32(DI), Y1
	VSUBPD  Y1, Y9, Y5   // d4..d7
	VMULPD  Y5, Y11, Y7
	VMULPD  Y5, Y7, Y5
	VADDPD  Y5, Y4, Y4

	VEXTRACTF128 $1, Y4, X5
	VMOVLPD      X4, (R8)(BX*8)
	VMOVHPD      X4, (R9)(BX*8)
	VMOVLPD      X5, (R10)(BX*8)
	VMOVHPD      X5, (R11)(BX*8)
	MOVL         DX, (R12)(BX*4)

	VUNPCKHPD X4, X4, X6
	VADDSD    X6, X4, X6
	VUNPCKHPD X5, X5, X7
	VADDSD    X7, X5, X7
	VADDSD    X7, X6, X6
	VUCOMISD  X6, X12
	SETCC     AX
	MOVBLZX   AX, AX
	ADDQ      AX, BX

	ADDQ $64, DI
	INCQ DX
	DECQ CX
	JNZ  wloop

wdone:
	MOVQ BX, ret+80(FP)
	VZEROUPPER
	RET

// func phaseNext8AVX2(q8, slab8 *float64, surv *int32, count int, bound2 float64, s0b, s1b, s2b, s3b *float64, rows int) int
//
// Same contract as the SSE2 phaseNext8: continues compacted survivors by
// eight dimensions, reading stripes at the iteration index and writing
// them back at the survivor cursor. rows is unused (portable-fallback
// bound only).
TEXT ·phaseNext8AVX2(SB), NOSPLIT, $0-88
	MOVQ   q8+0(FP), SI
	MOVQ   slab8+8(FP), DI
	MOVQ   surv+16(FP), R12
	MOVQ   count+24(FP), CX
	VMOVSD bound2+32(FP), X12
	MOVQ   s0b+40(FP), R8
	MOVQ   s1b+48(FP), R9
	MOVQ   s2b+56(FP), R10
	MOVQ   s3b+64(FP), R11

	VMOVUPD 0(SI), Y8
	VMOVUPD 32(SI), Y9

	XORQ  BX, BX // cursor c
	XORQ  DX, DX // index j
	TESTQ CX, CX
	JZ    ndone

nloop:
	MOVLQSX (R12)(DX*4), R14 // r = surv[j]
	MOVQ    R14, R15
	SHLQ    $8, R15
	ADDQ    DI, R15          // row segment

	// Y4 = [s0,s1,s2,s3] gathered from the stripe buffers.
	VMOVSD      (R8)(DX*8), X4
	VMOVHPD     (R9)(DX*8), X4, X4
	VMOVSD      (R10)(DX*8), X5
	VMOVHPD     (R11)(DX*8), X5, X5
	VINSERTF128 $1, X5, Y4, Y4

	VMOVUPD 0(R15), Y0
	VSUBPD  Y0, Y8, Y6
	VMULPD  Y6, Y6, Y6
	VADDPD  Y6, Y4, Y4  // sL += dL^2
	VMOVUPD 32(R15), Y1
	VSUBPD  Y1, Y9, Y7
	VMULPD  Y7, Y7, Y7
	VADDPD  Y7, Y4, Y4  // sL += d(L+4)^2

	VEXTRACTF128 $1, Y4, X5
	VMOVLPD      X4, (R8)(BX*8)
	VMOVHPD      X4, (R9)(BX*8)
	VMOVLPD      X5, (R10)(BX*8)
	VMOVHPD      X5, (R11)(BX*8)
	MOVL         R14, (R12)(BX*4)

	VUNPCKHPD X4, X4, X6
	VADDSD    X6, X4, X6
	VUNPCKHPD X5, X5, X7
	VADDSD    X7, X5, X7
	VADDSD    X7, X6, X6
	VUCOMISD  X6, X12
	SETCC     AX
	MOVBLZX   AX, AX
	ADDQ      AX, BX

	INCQ DX
	DECQ CX
	JNZ  nloop

ndone:
	MOVQ BX, ret+80(FP)
	VZEROUPPER
	RET

// func phaseNext8wAVX2(q8, w8, slab8 *float64, surv *int32, count int, bound2 float64, s0b, s1b, s2b, s3b *float64, rows int) int
TEXT ·phaseNext8wAVX2(SB), NOSPLIT, $0-96
	MOVQ   q8+0(FP), SI
	MOVQ   w8+8(FP), R13
	MOVQ   slab8+16(FP), DI
	MOVQ   surv+24(FP), R12
	MOVQ   count+32(FP), CX
	VMOVSD bound2+40(FP), X12
	MOVQ   s0b+48(FP), R8
	MOVQ   s1b+56(FP), R9
	MOVQ   s2b+64(FP), R10
	MOVQ   s3b+72(FP), R11

	VMOVUPD 0(SI), Y8
	VMOVUPD 32(SI), Y9
	VMOVUPD 0(R13), Y10
	VMOVUPD 32(R13), Y11

	XORQ  BX, BX
	XORQ  DX, DX
	TESTQ CX, CX
	JZ    nwdone

nwloop:
	MOVLQSX (R12)(DX*4), R14
	MOVQ    R14, R15
	SHLQ    $8, R15
	ADDQ    DI, R15

	VMOVSD      (R8)(DX*8), X4
	VMOVHPD     (R9)(DX*8), X4, X4
	VMOVSD      (R10)(DX*8), X5
	VMOVHPD     (R11)(DX*8), X5, X5
	VINSERTF128 $1, X5, Y4, Y4

	VMOVUPD 0(R15), Y0
	VSUBPD  Y0, Y8, Y6   // d0..d3
	VMULPD  Y6, Y10, Y7  // w*d
	VMULPD  Y6, Y7, Y6   // (w*d)*d
	VADDPD  Y6, Y4, Y4
	VMOVUPD 32(R15), Y1
	VSUBPD  Y1, Y9, Y6
	VMULPD  Y6, Y11, Y7
	VMULPD  Y6, Y7, Y6
	VADDPD  Y6, Y4, Y4

	VEXTRACTF128 $1, Y4, X5
	VMOVLPD      X4, (R8)(BX*8)
	VMOVHPD      X4, (R9)(BX*8)
	VMOVLPD      X5, (R10)(BX*8)
	VMOVHPD      X5, (R11)(BX*8)
	MOVL         R14, (R12)(BX*4)

	VUNPCKHPD X4, X4, X6
	VADDSD    X6, X4, X6
	VUNPCKHPD X5, X5, X7
	VADDSD    X7, X5, X7
	VADDSD    X7, X6, X6
	VUCOMISD  X6, X12
	SETCC     AX
	MOVBLZX   AX, AX
	ADDQ      AX, BX

	INCQ DX
	DECQ CX
	JNZ  nwloop

nwdone:
	MOVQ BX, ret+88(FP)
	VZEROUPPER
	RET
