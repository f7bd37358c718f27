package vec

import "math"

// Full-sum kernel dispatch. SqDist and SqDistW call
// through these variables; the defaults are the portable Go loops, and
// the amd64 build replaces them at init with AVX2 routines when the CPU
// supports them (sqdist_avx2_amd64.go). Every implementation performs
// the identical IEEE operation sequence — the canonical 4-stripe
// accumulation — so dispatch never changes a sum's bits, only how many
// cycles it takes; the parity tests assert this against the Go
// references. Only the full (non-abandoning) sums dispatch to AVX2: the
// abandoning variants' block-boundary bound checks are branchy enough
// that the wider vectors buy nothing over SSE2/portable there.
var (
	sqDistFull  = sqDistFullGo
	sqDistWFull = sqDistWFullGo
)

func sqDistFullGo(a, b []float64) float64 {
	s, _ := sqDistAbandon(a, b, math.Inf(1))
	return s
}

func sqDistWFullGo(a, b, w []float64) float64 {
	s, _ := sqDistWAbandon(a, b, w, math.Inf(1))
	return s
}
