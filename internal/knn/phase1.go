// Portable reference implementations of the phase tile kernels. They are
// the executable specification (the AVX2 parity test asserts
// bitwise-equal outputs) and the fallback wherever AVX2 is not selected:
// other architectures, amd64 CPUs without it, and GODEBUG=cpu.avx2=off.
package knn

// phase1x32wGo accumulates dims [0,8) of every row into the stripe
// buffers, each term (w·d)·d, writing stripes and row ids at the survivor
// cursor (compacted: a failing row is overwritten by the next), and
// returns the number of rows whose partial sum is within bound2. head is
// the tile's slice of the head slab: row r's first eight dimensions at
// head[r*8 : r*8+8].
func phase1x32wGo(q, w, head []float64, rows int, bound2 float64, s0b, s1b, s2b, s3b []float64, surv []int32) int {
	q = q[:32]
	w = w[:32]
	c1 := 0
	for r := 0; r < rows; r++ {
		row := head[r*8 : r*8+8 : r*8+8]
		d0 := q[0] - row[0]
		s0 := w[0] * d0 * d0
		d1 := q[1] - row[1]
		s1 := w[1] * d1 * d1
		d2 := q[2] - row[2]
		s2 := w[2] * d2 * d2
		d3 := q[3] - row[3]
		s3 := w[3] * d3 * d3
		d4 := q[4] - row[4]
		s0 += w[4] * d4 * d4
		d5 := q[5] - row[5]
		s1 += w[5] * d5 * d5
		d6 := q[6] - row[6]
		s2 += w[6] * d6 * d6
		d7 := q[7] - row[7]
		s3 += w[7] * d7 * d7
		s0b[c1], s1b[c1], s2b[c1], s3b[c1] = s0, s1, s2, s3
		surv[c1] = int32(r)
		inc := 0
		if (s0+s1)+(s2+s3) <= bound2 {
			inc = 1
		}
		c1 += inc
	}
	return c1
}

// phaseNext8wGo continues the stripe sums of the compacted survivors by
// eight more dimensions: q8 and w8 hold the query's and the weights'
// 8-dim segments, slab8 is the tile slab advanced by the same dimension
// offset (row r's segment at slab8[r*32 : r*32+8]). Stripes are read at
// the iteration index and written back at the survivor cursor, in place.
func phaseNext8wGo(q8, w8, slab8 []float64, surv []int32, count int, bound2 float64, s0b, s1b, s2b, s3b []float64) int {
	q8 = q8[:8]
	w8 = w8[:8]
	c := 0
	for j := 0; j < count; j++ {
		r := int(surv[j])
		row := slab8[r*32 : r*32+8 : r*32+8]
		s0, s1, s2, s3 := s0b[j], s1b[j], s2b[j], s3b[j]
		d0 := q8[0] - row[0]
		s0 += w8[0] * d0 * d0
		d1 := q8[1] - row[1]
		s1 += w8[1] * d1 * d1
		d2 := q8[2] - row[2]
		s2 += w8[2] * d2 * d2
		d3 := q8[3] - row[3]
		s3 += w8[3] * d3 * d3
		d4 := q8[4] - row[4]
		s0 += w8[4] * d4 * d4
		d5 := q8[5] - row[5]
		s1 += w8[5] * d5 * d5
		d6 := q8[6] - row[6]
		s2 += w8[6] * d6 * d6
		d7 := q8[7] - row[7]
		s3 += w8[7] * d7 * d7
		s0b[c], s1b[c], s2b[c], s3b[c] = s0, s1, s2, s3
		surv[c] = int32(r)
		inc := 0
		if (s0+s1)+(s2+s3) <= bound2 {
			inc = 1
		}
		c += inc
	}
	return c
}
