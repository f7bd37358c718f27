package knn

// Kernel dispatch. These selector variables are what the tiled search
// calls: the two phase kernels of the cascade and the node box bound.
// They start at phase1x32w, phaseNext8w and boxBound2Ptr, the wrappers
// over the portable Go loops (phase1_generic.go, kernel.go), and the
// amd64 build swaps in the AVX2 kernels at init when the CPU supports
// them (phase1_avx2_amd64.go).
// The two tiers are bitwise identical — the parity tests compare them
// output-for-output — so dispatch is purely a throughput decision made
// once at startup.
var (
	phase1x32wSel  = phase1x32w
	phaseNext8wSel = phaseNext8w
	boxBound2Sel   = boxBound2Ptr
)
