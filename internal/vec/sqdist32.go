// Mixed-precision squared-distance primitives: float64 query against a
// float32 row. These serve the ANN probe stage, whose partition slabs
// are stored in float32 to halve memory bandwidth; each element is
// widened to float64 (exact — every float32 is representable) and then
// accumulated with the same canonical 4-stripe order as SqDist, so a
// probe distance computed from a float32 slab equals bit for bit the
// float64 distance against the rounded row values, on every code path
// (portable, and AVX2 via dispatch).
package vec

import "fmt"

// SqDist32 returns Σ (qᵢ − float64(rowᵢ))².
func SqDist32(q []float64, row []float32) float64 {
	mustSameLen32(q, row)
	return sqDist32Full(q, row)
}

// SqDist32W returns Σ wᵢ(qᵢ − float64(rowᵢ))².
func SqDist32W(q []float64, row []float32, w []float64) float64 {
	mustSameLen32(q, row)
	mustSameLen(q, w)
	return sqDist32WFull(q, row, w)
}

func sqDist32Abandon(q []float64, row []float32, bound2 float64) (float64, bool) {
	n := len(q)
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		qq := q[i : i+4 : i+4]
		rr := row[i : i+4 : i+4]
		d0 := qq[0] - float64(rr[0])
		s0 += d0 * d0
		d1 := qq[1] - float64(rr[1])
		s1 += d1 * d1
		d2 := qq[2] - float64(rr[2])
		s2 += d2 * d2
		d3 := qq[3] - float64(rr[3])
		s3 += d3 * d3
		if (s0+s1)+(s2+s3) > bound2 {
			return (s0 + s1) + (s2 + s3), true
		}
	}
	var st float64
	for ; i < n; i++ {
		d := q[i] - float64(row[i])
		st += d * d
	}
	s := (s0 + s1) + (s2 + s3) + st
	return s, s > bound2
}

func sqDist32WAbandon(q []float64, row []float32, w []float64, bound2 float64) (float64, bool) {
	n := len(q)
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		qq := q[i : i+4 : i+4]
		rr := row[i : i+4 : i+4]
		ww := w[i : i+4 : i+4]
		d0 := qq[0] - float64(rr[0])
		s0 += ww[0] * d0 * d0
		d1 := qq[1] - float64(rr[1])
		s1 += ww[1] * d1 * d1
		d2 := qq[2] - float64(rr[2])
		s2 += ww[2] * d2 * d2
		d3 := qq[3] - float64(rr[3])
		s3 += ww[3] * d3 * d3
		if (s0+s1)+(s2+s3) > bound2 {
			return (s0 + s1) + (s2 + s3), true
		}
	}
	var st float64
	for ; i < n; i++ {
		d := q[i] - float64(row[i])
		st += w[i] * d * d
	}
	s := (s0 + s1) + (s2 + s3) + st
	return s, s > bound2
}

func mustSameLen32(a []float64, b []float32) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: dimension mismatch: %d vs %d", len(a), len(b)))
	}
}
