// AVX2 full-sum weighted squared-distance kernel (see
// sqdist_avx2_amd64.go for the parity contract). Lane L of the ymm
// accumulator is stripe accumulator sL; blocks of four elements map one
// element per lane, so each packed op is the four scalar stripe ops of
// one block. No FMA anywhere: VFMADD's fused single rounding would
// diverge from the two-rounding scalar sequence the portable code
// performs. The reduction extracts [s0,s1] and [s2,s3] and combines
// them as ((s0+s1)+(s2+s3))+tail, the association of the portable code.
// It only runs when cpu_amd64.go detected AVX2+OS support.

#include "textflag.h"

// func sqDistWAVX2(a, b, w []float64) float64
TEXT ·sqDistWAVX2(SB), NOSPLIT, $0-80
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	MOVQ w_base+48(FP), R8

	VXORPD Y0, Y0, Y0 // [s0,s1,s2,s3]
	MOVQ   CX, DX
	SHRQ   $2, DX     // whole 4-element blocks
	JZ     wreduce

wloop4:
	VMOVUPD (SI), Y1
	VSUBPD  (DI), Y1, Y1 // d
	VMOVUPD (R8), Y2
	VMULPD  Y1, Y2, Y2   // w*d
	VMULPD  Y1, Y2, Y2   // (w*d)*d
	VADDPD  Y2, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R8
	DECQ    DX
	JNZ     wloop4

wreduce:
	// X0 = (s0+s1)+(s2+s3)
	VEXTRACTF128 $1, Y0, X1 // [s2,s3]
	VUNPCKHPD    X0, X0, X2 // [s1,s1]
	VADDSD       X2, X0, X0 // s0+s1
	VUNPCKHPD    X1, X1, X3 // [s3,s3]
	VADDSD       X3, X1, X1 // s2+s3
	VADDSD       X1, X0, X0

	// Sequential tail accumulator, added once at the end.
	ANDQ   $3, CX
	JZ     wdone
	VXORPD X4, X4, X4

wtail:
	VMOVSD (SI), X5
	VSUBSD (DI), X5, X5 // d
	VMOVSD (R8), X6
	VMULSD X5, X6, X6   // w*d
	VMULSD X5, X6, X6   // (w*d)*d
	VADDSD X6, X4, X4
	ADDQ   $8, SI
	ADDQ   $8, DI
	ADDQ   $8, R8
	DECQ   CX
	JNZ    wtail
	VADDSD X4, X0, X0

wdone:
	VMOVSD X0, ret+72(FP)
	VZEROUPPER
	RET
