//go:build amd64

package knn

// phase1x32w is the SSE2 phase-1 kernel (phase1_amd64.s): it accumulates
// dims [0,8) of every row of the head slab (stride 64 B) into the stripe
// buffers at the survivor cursor and returns the survivor count. Bitwise
// identical to phase1x32wGo.
func phase1x32w(q, w, head *float64, rows int, bound2 float64, s0b, s1b, s2b, s3b *float64, surv *int32) int

// phaseNext8w continues compacted survivors by eight dimensions (SSE2,
// phase1_amd64.s); bitwise identical to phaseNext8wGo.
func phaseNext8w(q8, w8, slab8 *float64, surv *int32, count int, bound2 float64, s0b, s1b, s2b, s3b *float64, slabRows int) int
