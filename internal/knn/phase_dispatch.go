package knn

// Phase-kernel dispatch. The names phase1x32w and phaseNext8w resolve per
// build to the SSE2 assembly (amd64, phase1_amd64.s) or the portable Go
// loops (phase1_generic.go); these selector variables are what the tiled
// scan actually calls, and the amd64 build swaps in the AVX2 kernels at
// init when the CPU supports them (phase1_avx2_amd64.go). All three tiers
// are bitwise identical — the parity tests compare them output-for-output
// — so dispatch is purely a throughput decision made once at startup.
var (
	phase1x32wSel  = phase1x32w
	phaseNext8wSel = phaseNext8w
)
