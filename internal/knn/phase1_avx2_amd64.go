//go:build amd64

package knn

import "repro/internal/vec"

// AVX2 kernels (phase1_avx2_amd64.s), the two phases of the cascade and
// the node box bound: one 4-lane ymm register carries all four stripe
// accumulators, so each row's eight dimensions take two packed
// sub/mul/mul/add sequences, and a box's 32 gaps eight packed
// sub/mask/add/mul/mul/add sequences. No FMA — its fused rounding would
// break bitwise parity with the portable Go tier. Selected at init when
// the CPU supports AVX2; otherwise the Go tier runs.

func phase1x32wAVX2(q, w, head *float64, rows int, bound2 float64, s0b, s1b, s2b, s3b *float64, surv *int32) int

func phaseNext8wAVX2(q8, w8, slab8 *float64, surv *int32, count int, bound2 float64, s0b, s1b, s2b, s3b *float64, slabRows int) int

func boxBound2AVX2(q, w, box *float64) float64

func init() {
	if vec.HasAVX2() {
		phase1x32wSel = phase1x32wAVX2
		phaseNext8wSel = phaseNext8wAVX2
		boxBound2Sel = boxBound2AVX2
	}
}
