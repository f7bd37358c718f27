//go:build amd64

package knn

import "repro/internal/vec"

// AVX2 phase kernels (phase1_avx2_amd64.s): one 4-lane ymm register
// carries all four stripe accumulators, so each row's eight dimensions
// take two packed sub/mul/add sequences instead of four SSE2 ones. No
// FMA — its fused rounding would break bitwise parity with the scalar
// and SSE2 tiers. Selected at init when the CPU supports AVX2.

func phase1x32AVX2(q, head *float64, rows int, bound2 float64, s0b, s1b, s2b, s3b *float64, surv *int32) int

func phase1x32wAVX2(q, w, head *float64, rows int, bound2 float64, s0b, s1b, s2b, s3b *float64, surv *int32) int

func phaseNext8AVX2(q8, slab8 *float64, surv *int32, count int, bound2 float64, s0b, s1b, s2b, s3b *float64, rows int) int

func phaseNext8wAVX2(q8, w8, slab8 *float64, surv *int32, count int, bound2 float64, s0b, s1b, s2b, s3b *float64, rows int) int

func init() {
	if vec.HasAVX2() {
		phase1x32Sel = phase1x32AVX2
		phase1x32wSel = phase1x32wAVX2
		phaseNext8Sel = phaseNext8AVX2
		phaseNext8wSel = phaseNext8wAVX2
	}
}
