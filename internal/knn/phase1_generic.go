package knn

import "unsafe"

// phase1x32w is the baseline phase-1 kernel on every architecture: a
// pointer-signature wrapper over phase1x32wGo, so it shares one signature
// with the AVX2 kernel that replaces it at init on amd64
// (phase1_avx2_amd64.go).
func phase1x32w(q, w, head *float64, rows int, bound2 float64, s0b, s1b, s2b, s3b *float64, surv *int32) int {
	return phase1x32wGo(
		unsafe.Slice(q, 32), unsafe.Slice(w, 32), unsafe.Slice(head, rows*8), rows, bound2,
		unsafe.Slice(s0b, rows), unsafe.Slice(s1b, rows), unsafe.Slice(s2b, rows), unsafe.Slice(s3b, rows),
		unsafe.Slice(surv, rows))
}

// phaseNext8w delegates to the portable continuation kernel. Survivors
// are collection rows, so the slab view spans the whole collection: its
// length slabRows*32-24 is the furthest element any pass reads (the last
// row's 8-dim segment at the deepest offset) and is within the allocation
// for every segment offset (8, 16, or 24 dims in). The stripe and
// survivor views hold the count entries the pass reads.
func phaseNext8w(q8, w8, slab8 *float64, surv *int32, count int, bound2 float64, s0b, s1b, s2b, s3b *float64, slabRows int) int {
	return phaseNext8wGo(
		unsafe.Slice(q8, 8), unsafe.Slice(w8, 8), unsafe.Slice(slab8, slabRows*32-24), unsafe.Slice(surv, count), count, bound2,
		unsafe.Slice(s0b, count), unsafe.Slice(s1b, count), unsafe.Slice(s2b, count), unsafe.Slice(s3b, count))
}

// boxBound2Ptr is the baseline box-bound kernel: boxBound2 behind the
// pointer signature of the AVX2 kernel that replaces it at init on
// amd64. q and w point at 32 values, box at a node's 64 (32 minima, then
// 32 maxima).
func boxBound2Ptr(q, w, box *float64) float64 {
	return boxBound2(unsafe.Slice(q, 32), unsafe.Slice(w, 32), unsafe.Slice(box, 64))
}
