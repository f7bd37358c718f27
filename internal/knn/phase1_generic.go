//go:build !amd64

package knn

import "unsafe"

// phase1x32 delegates to the portable Go implementation on architectures
// without an assembly kernel.
func phase1x32(q, head *float64, rows int, bound2 float64, s0b, s1b, s2b, s3b *float64, surv *int32) int {
	return phase1x32Go(
		unsafe.Slice(q, 32), unsafe.Slice(head, rows*8), rows, bound2,
		unsafe.Slice(s0b, rows), unsafe.Slice(s1b, rows), unsafe.Slice(s2b, rows), unsafe.Slice(s3b, rows),
		unsafe.Slice(surv, rows))
}

// phase1x32w delegates to the portable weighted Go implementation.
func phase1x32w(q, w, head *float64, rows int, bound2 float64, s0b, s1b, s2b, s3b *float64, surv *int32) int {
	return phase1x32wGo(
		unsafe.Slice(q, 32), unsafe.Slice(w, 32), unsafe.Slice(head, rows*8), rows, bound2,
		unsafe.Slice(s0b, rows), unsafe.Slice(s1b, rows), unsafe.Slice(s2b, rows), unsafe.Slice(s3b, rows),
		unsafe.Slice(surv, rows))
}

// phaseNext8 delegates to the portable continuation kernel. The slab
// view length rows*32-24 is the furthest element any pass reads (the
// last row's 8-dim segment at the deepest offset) and is within the
// allocation for every segment offset (8, 16, or 24 dims in), so the
// view never extends past the feature matrix even on a short final
// tile.
func phaseNext8(q8, slab8 *float64, surv *int32, count int, bound2 float64, s0b, s1b, s2b, s3b *float64, rows int) int {
	return phaseNext8Go(
		unsafe.Slice(q8, 8), unsafe.Slice(slab8, rows*32-24), unsafe.Slice(surv, rows), count, bound2,
		unsafe.Slice(s0b, rows), unsafe.Slice(s1b, rows), unsafe.Slice(s2b, rows), unsafe.Slice(s3b, rows))
}

// phaseNext8w delegates to the portable weighted continuation kernel.
func phaseNext8w(q8, w8, slab8 *float64, surv *int32, count int, bound2 float64, s0b, s1b, s2b, s3b *float64, rows int) int {
	return phaseNext8wGo(
		unsafe.Slice(q8, 8), unsafe.Slice(w8, 8), unsafe.Slice(slab8, rows*32-24), unsafe.Slice(surv, rows), count, bound2,
		unsafe.Slice(s0b, rows), unsafe.Slice(s1b, rows), unsafe.Slice(s2b, rows), unsafe.Slice(s3b, rows))
}
