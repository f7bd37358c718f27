// AVX2 kernels of the tiled search: the two phase kernels and the node
// box bound. Lane L of the ymm accumulator is stripe accumulator sL (dim
// i feeds stripe i%4, exactly the scalar striping), each
// VSUBPD/VMULPD/VADDPD is the four scalar IEEE ops of one 4-dim block —
// no FMA, whose single rounding would diverge from the two-rounding
// scalar sequence — and the reduction adds (s0+s1)+(s2+s3) in the
// canonical association. Survivor compaction, cursor arithmetic and the
// strict bound comparison mirror the portable Go kernels in phase1.go
// step for step, and the box bound mirrors boxBound2 in kernel.go.

#include "textflag.h"

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

	// q[0..7] and w[0..7] stay in registers for the whole tile.
	VMOVUPD 0(SI), Y8
	VMOVUPD 32(SI), Y9
	VMOVUPD 0(R13), Y10  // w[0..3]
	VMOVUPD 32(R13), Y11 // w[4..7]

	XORQ  BX, BX // c1 (survivor cursor)
	XORQ  DX, DX // r  (row index)
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
	VADDPD  Y5, Y4, Y4   // sL += (w*d(L+4))*d(L+4)

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
	JNZ  wloop

wdone:
	MOVQ BX, ret+80(FP)
	VZEROUPPER
	RET

// func phaseNext8wAVX2(q8, w8, slab8 *float64, surv *int32, count int, bound2 float64, s0b, s1b, s2b, s3b *float64, slabRows int) int
//
// Same contract as phaseNext8wGo: continues compacted survivors
// by eight dimensions, reading stripes at the iteration index and writing
// them back at the survivor cursor. slabRows is unused (portable-fallback
// bound only).
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

// func boxBound2AVX2(q, w, box *float64) float64
//
// Same contract as boxBound2: box holds a node's 32 minima, then its 32
// maxima. Each pass of the loop is one block of four dims, dim i in lane
// i%4, added in ascending order onto accumulators that start at +0, as
// the Go loop's do. positivePart clears a value whose sign bit is set:
// VPCMPGTQ of zero against the value's bits as a signed int64 is true
// exactly then (−0 included), and VANDNPD clears those lanes.
TEXT ·boxBound2AVX2(SB), NOSPLIT, $0-32
	MOVQ q+0(FP), SI
	MOVQ w+8(FP), R13
	MOVQ box+16(FP), DI

	VXORPD Y15, Y15, Y15 // zero, for the sign compare
	VXORPD Y4, Y4, Y4    // [s0,s1,s2,s3] = +0
	MOVQ   $8, CX        // blocks of four dims

bbloop:
	VMOVUPD  0(SI), Y0
	VMOVUPD  0(DI), Y1
	VMOVUPD  256(DI), Y2
	VSUBPD   Y0, Y1, Y1     // lo − q
	VSUBPD   Y2, Y0, Y2     // q − hi
	VPCMPGTQ Y1, Y15, Y3    // all ones where lo − q has its sign bit set
	VANDNPD  Y1, Y3, Y1     // pp(lo − q)
	VPCMPGTQ Y2, Y15, Y3
	VANDNPD  Y2, Y3, Y2     // pp(q − hi)
	VADDPD   Y2, Y1, Y1     // g
	VMULPD   0(R13), Y1, Y5 // w·g
	VMULPD   Y1, Y5, Y5     // (w·g)·g
	VADDPD   Y5, Y4, Y4     // sL += (w·g)·g

	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R13
	DECQ CX
	JNZ  bbloop

	// (s0+s1)+(s2+s3)
	VEXTRACTF128 $1, Y4, X5 // [s2,s3]; X4 = [s0,s1]
	VUNPCKHPD    X4, X4, X6 // [s1,s1]
	VADDSD       X6, X4, X6 // s0+s1
	VUNPCKHPD    X5, X5, X7 // [s3,s3]
	VADDSD       X7, X5, X7 // s2+s3
	VADDSD       X7, X6, X6
	VMOVSD       X6, ret+24(FP)
	VZEROUPPER
	RET
