//go:build amd64

package imagegen

import (
	"reflect"
	"testing"

	"repro/internal/vec"
)

// TestSeedAVX2Parity holds the packed Seed kernel to seedGo word for
// word at every seed TestSourceMatchesMathRand draws from, and Seed's
// dispatch to the packed kernel exactly when vec.HasAVX2. Skipped, like
// the knn kernels' parity tests, when AVX2 is absent or disabled.
func TestSeedAVX2Parity(t *testing.T) {
	if got := reflect.ValueOf(seedSel).Pointer() == reflect.ValueOf(seedAVX2).Pointer(); got != vec.HasAVX2() {
		t.Fatalf("Seed dispatches to the AVX2 kernel: %v, HasAVX2: %v", got, vec.HasAVX2())
	}
	if !vec.HasAVX2() {
		t.Skip("AVX2 unavailable or disabled; Seed runs seedGo")
	}
	defer func() { seedSel = seedAVX2 }()
	var packed, scalar source
	for _, s := range sourceSeeds() {
		seedSel = seedAVX2
		packed.Seed(s)
		seedSel = seedGo
		scalar.Seed(s)
		for i := range packed.vec {
			if packed.vec[i] != scalar.vec[i] {
				t.Fatalf("seed %d, word %d: AVX2 %#x, Go %#x", s, i, packed.vec[i], scalar.vec[i])
			}
		}
	}
}
