//go:build amd64

package knn

// phase1x32 is the SSE2 phase-1 kernel (phase1_amd64.s): it accumulates
// dims [0,8) of every row of the head slab (stride 64 B) into the stripe
// buffers at the survivor cursor and returns the survivor count. Bitwise
// identical to phase1x32Go.
func phase1x32(q, head *float64, rows int, bound2 float64, s0b, s1b, s2b, s3b *float64, surv *int32) int

// phase1x32w is the weighted SSE2 phase-1 kernel.
func phase1x32w(q, w, head *float64, rows int, bound2 float64, s0b, s1b, s2b, s3b *float64, surv *int32) int

// phaseNext8 continues compacted survivors by eight dimensions (SSE2,
// phase1_amd64.s); bitwise identical to phaseNext8Go.
func phaseNext8(q8, slab8 *float64, surv *int32, count int, bound2 float64, s0b, s1b, s2b, s3b *float64, rows int) int

// phaseNext8w is the weighted continuation kernel.
func phaseNext8w(q8, w8, slab8 *float64, surv *int32, count int, bound2 float64, s0b, s1b, s2b, s3b *float64, rows int) int
