//go:build amd64

package vec

// AVX2 full-sum kernels (sqdist_avx2_amd64.s). Each is bitwise identical
// to its Go reference in sqdist_dispatch.go: one 4-lane ymm register IS
// the four stripe accumulators (lane L = sL), every VSUBPD/VMULPD/VADDPD
// performs exactly the per-lane scalar IEEE operation — deliberately no
// FMA, whose fused single rounding would change low bits — and the
// reduction extracts the lanes and adds ((s0+s1)+(s2+s3))+tail in the
// canonical association.

func sqDistAVX2(a, b []float64) float64

func sqDistWAVX2(a, b, w []float64) float64

func init() {
	if hasAVX2 {
		sqDistFull = sqDistAVX2
		sqDistWFull = sqDistWAVX2
	}
}
