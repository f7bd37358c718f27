package vec

import "math"

// Full-sum kernel dispatch. SqDistW calls through this variable; the
// default is the portable Go loop, and the amd64 build replaces it at
// init with the AVX2 routine when the CPU supports it
// (sqdist_avx2_amd64.go). Both perform the identical IEEE operation
// sequence — the canonical 4-stripe accumulation — so dispatch never
// changes a sum's bits, only how many cycles it takes; the parity test
// asserts this against the Go reference. Only the full (non-abandoning)
// sum dispatches to AVX2: the abandoning variant's block-boundary bound
// checks are branchy enough that the wider vectors buy nothing over the
// portable loop there.
var sqDistWFull = sqDistWFullGo

func sqDistWFullGo(a, b, w []float64) float64 {
	s, _ := sqDistWAbandon(a, b, w, math.Inf(1))
	return s
}
