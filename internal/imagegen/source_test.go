package imagegen

import (
	"math"
	"math/rand"
	"testing"
)

// TestSourceMatchesMathRand holds source to math/rand's own: the same
// Uint64 stream after Seed, at the seed arithmetic's edges (zero, signs,
// multiples of 2³¹−1, the zero-seed replacement) and at every seed the
// first 20,000 images of a collection draw from, and the same Intn,
// Float64 and NormFloat64 sequences through rand.New.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 5000
	seeds := []int64{0, 1, -1, 89482311, int32max, int32max + 5, -int32max, 1 << 62, math.MinInt64}
	for id := range 20000 {
		seeds = append(seeds, imageSeed(1, id))
	}
	var src source
	for _, s := range seeds {
		src.Seed(s)
		want := rand.NewSource(s).(rand.Source64)
		for d := range draws {
			if got, w := src.Uint64(), want.Uint64(); got != w {
				t.Fatalf("seed %d, draw %d: Uint64 %#x, math/rand %#x", s, d, got, w)
			}
		}
	}

	for _, s := range seeds[:12] {
		src.Seed(s)
		got, want := rand.New(&src), rand.New(rand.NewSource(s))
		for d := range draws {
			if g, w := got.Intn(7), want.Intn(7); g != w {
				t.Fatalf("seed %d, draw %d: Intn %d, math/rand %d", s, d, g, w)
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d, draw %d: Float64 %v, math/rand %v", s, d, g, w)
			}
			if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
				t.Fatalf("seed %d, draw %d: NormFloat64 %v, math/rand %v", s, d, g, w)
			}
		}
	}
}
