// SSE2 phase-1 kernels of the tiled batch scan (see kernel.go). Each
// routine mirrors the canonical stripe accumulation bit for bit: lane L
// of the two accumulator registers is stripe accumulator sL, every
// SUBPD/MULPD/ADDPD performs exactly the scalar IEEE operation per lane,
// and the final reduction adds (s0+s1) and (s2+s3) before combining —
// the same association the scalar code and vec.SqDist use (addition
// commutes exactly in IEEE 754, so lane order within a pair is free).
// SSE2 is baseline on amd64, so no feature detection is needed.

#include "textflag.h"

// func phase1x32(q, head *float64, rows int, bound2 float64, s0b, s1b, s2b, s3b *float64, surv *int32) int
TEXT ·phase1x32(SB), NOSPLIT, $0-80
	MOVQ  q+0(FP), SI
	MOVQ  head+8(FP), DI
	MOVQ  rows+16(FP), CX
	MOVSD bound2+24(FP), X12
	MOVQ  s0b+32(FP), R8
	MOVQ  s1b+40(FP), R9
	MOVQ  s2b+48(FP), R10
	MOVQ  s3b+56(FP), R11
	MOVQ  surv+64(FP), R12

	// q[0..7] stays in registers for the whole tile.
	MOVUPD 0(SI), X8
	MOVUPD 16(SI), X9
	MOVUPD 32(SI), X10
	MOVUPD 48(SI), X11

	XORQ BX, BX // c1 (survivor cursor)
	XORQ DX, DX // r  (row index)
	TESTQ CX, CX
	JZ   done

loop:
	MOVUPD 0(DI), X0  // row[0],row[1]
	MOVUPD 16(DI), X1 // row[2],row[3]
	MOVUPD 32(DI), X2 // row[4],row[5]
	MOVUPD 48(DI), X3 // row[6],row[7]

	MOVAPD X8, X4
	SUBPD  X0, X4 // d0,d1
	MULPD  X4, X4 // s0=d0*d0, s1=d1*d1
	MOVAPD X9, X5
	SUBPD  X1, X5 // d2,d3
	MULPD  X5, X5 // s2,s3
	MOVAPD X10, X6
	SUBPD  X2, X6 // d4,d5
	MULPD  X6, X6
	ADDPD  X6, X4 // s0+=d4*d4, s1+=d5*d5
	MOVAPD X11, X7
	SUBPD  X3, X7 // d6,d7
	MULPD  X7, X7
	ADDPD  X7, X5 // s2+=d6*d6, s3+=d7*d7

	// Store stripes and row id at the survivor cursor.
	MOVLPD X4, (R8)(BX*8)
	MOVHPD X4, (R9)(BX*8)
	MOVLPD X5, (R10)(BX*8)
	MOVHPD X5, (R11)(BX*8)
	MOVL   DX, (R12)(BX*4)

	// t = (s0+s1)+(s2+s3); advance cursor when t <= bound2.
	MOVAPD   X4, X6
	UNPCKHPD X6, X6 // s1,s1
	ADDSD    X4, X6 // s0+s1
	MOVAPD   X5, X7
	UNPCKHPD X7, X7 // s3,s3
	ADDSD    X5, X7 // s2+s3
	ADDSD    X7, X6 // (s0+s1)+(s2+s3)
	UCOMISD  X6, X12 // flags: bound2 cmp t; CF=1 iff bound2 < t
	SETCC    AX      // AX = (t <= bound2), 0 on unordered
	MOVBLZX  AX, AX
	ADDQ     AX, BX

	ADDQ $64, DI // next head row (8 dims x 8 bytes)
	INCQ DX
	DECQ CX
	JNZ  loop

done:
	MOVQ BX, ret+72(FP)
	RET

// func phase1x32w(q, w, head *float64, rows int, bound2 float64, s0b, s1b, s2b, s3b *float64, surv *int32) int
TEXT ·phase1x32w(SB), NOSPLIT, $0-88
	MOVQ  q+0(FP), SI
	MOVQ  w+8(FP), R13
	MOVQ  head+16(FP), DI
	MOVQ  rows+24(FP), CX
	MOVSD bound2+32(FP), X12
	MOVQ  s0b+40(FP), R8
	MOVQ  s1b+48(FP), R9
	MOVQ  s2b+56(FP), R10
	MOVQ  s3b+64(FP), R11
	MOVQ  surv+72(FP), R12

	MOVUPD 0(SI), X8
	MOVUPD 16(SI), X9
	MOVUPD 32(SI), X10
	MOVUPD 48(SI), X11
	MOVUPD 0(R13), X13  // w0,w1
	MOVUPD 16(R13), X14 // w2,w3
	MOVUPD 32(R13), X15 // w4,w5

	XORQ BX, BX
	XORQ DX, DX
	TESTQ CX, CX
	JZ   wdone

wloop:
	// Pair 0: lanes s0,s1 <- w*(q-r)*(q-r), matching scalar (w*d)*d.
	MOVUPD 0(DI), X0
	MOVAPD X8, X4
	SUBPD  X0, X4  // d0,d1
	MOVAPD X4, X6
	MULPD  X13, X4 // w*d
	MULPD  X6, X4  // (w*d)*d -> s0,s1

	// Pair 1: lanes s2,s3.
	MOVUPD 16(DI), X1
	MOVAPD X9, X5
	SUBPD  X1, X5
	MOVAPD X5, X7
	MULPD  X14, X5
	MULPD  X7, X5 // s2,s3

	// Pair 2 adds into s0,s1.
	MOVUPD 32(DI), X2
	MOVAPD X10, X6
	SUBPD  X2, X6
	MOVAPD X6, X7
	MULPD  X15, X6
	MULPD  X7, X6
	ADDPD  X6, X4

	// Pair 3 adds into s2,s3 (w6,w7 reloaded from memory; L1-resident).
	MOVUPD 48(DI), X3
	MOVAPD X11, X7
	SUBPD  X3, X7
	MOVAPD X7, X6
	MULPD  48(R13), X7
	MULPD  X6, X7
	ADDPD  X7, X5

	MOVLPD X4, (R8)(BX*8)
	MOVHPD X4, (R9)(BX*8)
	MOVLPD X5, (R10)(BX*8)
	MOVHPD X5, (R11)(BX*8)
	MOVL   DX, (R12)(BX*4)

	MOVAPD   X4, X6
	UNPCKHPD X6, X6
	ADDSD    X4, X6
	MOVAPD   X5, X7
	UNPCKHPD X7, X7
	ADDSD    X5, X7
	ADDSD    X7, X6
	UCOMISD  X6, X12
	SETCC    AX
	MOVBLZX  AX, AX
	ADDQ     AX, BX

	ADDQ $64, DI
	INCQ DX
	DECQ CX
	JNZ  wloop

wdone:
	MOVQ BX, ret+80(FP)
	RET

// func phaseNext8(q8, slab8 *float64, surv *int32, count int, bound2 float64, s0b, s1b, s2b, s3b *float64, rows int) int
//
// Continues the stripe accumulation of compacted survivors by eight more
// dimensions: q8 points at the query's 8-dim segment, slab8 at the slab
// base advanced by the same dimension offset, so row r's segment lives at
// slab8 + r*256. Reads stripes at the iteration index, writes them back
// at the survivor cursor (in place, cursor <= index), and returns the new
// survivor count. rows (the tile's row count) is unused here — the
// portable fallback needs it to bound its slices.
TEXT ·phaseNext8(SB), NOSPLIT, $0-88
	MOVQ  q8+0(FP), SI
	MOVQ  slab8+8(FP), DI
	MOVQ  surv+16(FP), R12
	MOVQ  count+24(FP), CX
	MOVSD bound2+32(FP), X12
	MOVQ  s0b+40(FP), R8
	MOVQ  s1b+48(FP), R9
	MOVQ  s2b+56(FP), R10
	MOVQ  s3b+64(FP), R11

	MOVUPD 0(SI), X8
	MOVUPD 16(SI), X9
	MOVUPD 32(SI), X10
	MOVUPD 48(SI), X11

	XORQ BX, BX // cursor c
	XORQ DX, DX // index j
	TESTQ CX, CX
	JZ   ndone

nloop:
	MOVLQSX (R12)(DX*4), R14 // r = surv[j]
	MOVQ    R14, R15
	SHLQ    $8, R15
	ADDQ    DI, R15          // row segment

	MOVLPD (R8)(DX*8), X4 // s0
	MOVHPD (R9)(DX*8), X4 // s1
	MOVLPD (R10)(DX*8), X5
	MOVHPD (R11)(DX*8), X5

	MOVUPD 0(R15), X0
	MOVAPD X8, X6
	SUBPD  X0, X6
	MULPD  X6, X6
	ADDPD  X6, X4
	MOVUPD 16(R15), X1
	MOVAPD X9, X7
	SUBPD  X1, X7
	MULPD  X7, X7
	ADDPD  X7, X5
	MOVUPD 32(R15), X2
	MOVAPD X10, X6
	SUBPD  X2, X6
	MULPD  X6, X6
	ADDPD  X6, X4
	MOVUPD 48(R15), X3
	MOVAPD X11, X7
	SUBPD  X3, X7
	MULPD  X7, X7
	ADDPD  X7, X5

	MOVLPD X4, (R8)(BX*8)
	MOVHPD X4, (R9)(BX*8)
	MOVLPD X5, (R10)(BX*8)
	MOVHPD X5, (R11)(BX*8)
	MOVL   R14, (R12)(BX*4)

	MOVAPD   X4, X6
	UNPCKHPD X6, X6
	ADDSD    X4, X6
	MOVAPD   X5, X7
	UNPCKHPD X7, X7
	ADDSD    X5, X7
	ADDSD    X7, X6
	UCOMISD  X6, X12
	SETCC    AX
	MOVBLZX  AX, AX
	ADDQ     AX, BX

	INCQ DX
	DECQ CX
	JNZ  nloop

ndone:
	MOVQ BX, ret+80(FP)
	RET

// func phaseNext8w(q8, w8, slab8 *float64, surv *int32, count int, bound2 float64, s0b, s1b, s2b, s3b *float64, rows int) int
TEXT ·phaseNext8w(SB), NOSPLIT, $0-96
	MOVQ  q8+0(FP), SI
	MOVQ  w8+8(FP), R13
	MOVQ  slab8+16(FP), DI
	MOVQ  surv+24(FP), R12
	MOVQ  count+32(FP), CX
	MOVSD bound2+40(FP), X12
	MOVQ  s0b+48(FP), R8
	MOVQ  s1b+56(FP), R9
	MOVQ  s2b+64(FP), R10
	MOVQ  s3b+72(FP), R11

	MOVUPD 0(SI), X8
	MOVUPD 16(SI), X9
	MOVUPD 32(SI), X10
	MOVUPD 48(SI), X11
	MOVUPD 0(R13), X13
	MOVUPD 16(R13), X14
	MOVUPD 32(R13), X15

	XORQ BX, BX
	XORQ DX, DX
	TESTQ CX, CX
	JZ   nwdone

nwloop:
	MOVLQSX (R12)(DX*4), R14
	MOVQ    R14, R15
	SHLQ    $8, R15
	ADDQ    DI, R15

	MOVLPD (R8)(DX*8), X4
	MOVHPD (R9)(DX*8), X4
	MOVLPD (R10)(DX*8), X5
	MOVHPD (R11)(DX*8), X5

	MOVUPD 0(R15), X0
	MOVAPD X8, X6
	SUBPD  X0, X6
	MOVAPD X6, X7
	MULPD  X13, X6
	MULPD  X7, X6
	ADDPD  X6, X4
	MOVUPD 16(R15), X1
	MOVAPD X9, X7
	SUBPD  X1, X7
	MOVAPD X7, X6
	MULPD  X14, X7
	MULPD  X6, X7
	ADDPD  X7, X5
	MOVUPD 32(R15), X2
	MOVAPD X10, X6
	SUBPD  X2, X6
	MOVAPD X6, X7
	MULPD  X15, X6
	MULPD  X7, X6
	ADDPD  X6, X4
	MOVUPD 48(R15), X3
	MOVAPD X11, X7
	SUBPD  X3, X7
	MOVAPD X7, X6
	MULPD  48(R13), X7
	MULPD  X6, X7
	ADDPD  X7, X5

	MOVLPD X4, (R8)(BX*8)
	MOVHPD X4, (R9)(BX*8)
	MOVLPD X5, (R10)(BX*8)
	MOVHPD X5, (R11)(BX*8)
	MOVL   R14, (R12)(BX*4)

	MOVAPD   X4, X6
	UNPCKHPD X6, X6
	ADDSD    X4, X6
	MOVAPD   X5, X7
	UNPCKHPD X7, X7
	ADDSD    X5, X7
	ADDSD    X7, X6
	UCOMISD  X6, X12
	SETCC    AX
	MOVBLZX  AX, AX
	ADDQ     AX, BX

	INCQ DX
	DECQ CX
	JNZ  nwloop

nwdone:
	MOVQ BX, ret+88(FP)
	RET
