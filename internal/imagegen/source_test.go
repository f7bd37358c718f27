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
// Float64 and NormFloat64 sequences, both through rand.New and drawn
// directly: Intn and NormFloat64 on the source, Float64 as the cursor's
// float, the draws the renderer makes.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 5000
	seeds := sourceSeeds()
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

	// The direct draws: Intn at a power of two (the mask), at 7 and at
	// 2³⁰+1, where Int31n rejects nearly half its draws, and enough
	// normals that some come from the base strip's tail beyond rn.
	tail := 0
	for _, s := range seeds[:12] {
		src.Seed(s)
		want := rand.New(rand.NewSource(s))
		for d := range draws {
			for _, n := range []int{8, 7, 1<<30 + 1} {
				if g, w := src.Intn(n), want.Intn(n); g != w {
					t.Fatalf("seed %d, draw %d: Intn(%d) %d, math/rand %d", s, d, n, g, w)
				}
			}
			var f float64
			src.cur, f = src.cur.float()
			if w := want.Float64(); f != w {
				t.Fatalf("seed %d, draw %d: cursor float %v, math/rand's Float64 %v", s, d, f, w)
			}
			g, w := src.NormFloat64(), want.NormFloat64()
			if g != w {
				t.Fatalf("seed %d, draw %d: NormFloat64 %v, math/rand %v", s, d, g, w)
			}
			if math.Abs(g) > rn {
				tail++
			}
		}
	}
	if tail == 0 {
		t.Errorf("no NormFloat64 draw lay beyond the tail bound %v; the base strip's tail went unchecked", rn)
	}
}

// sourceSeeds are the seeds the source is held to math/rand's at: the
// edges of Seed's arithmetic (zero, signs, multiples of 2³¹−1, the
// zero-seed replacement), then the seeds of a collection's first 20,000
// images.
func sourceSeeds() []int64 {
	seeds := []int64{0, 1, -1, 89482311, int32max, int32max + 5, -int32max, 1 << 62, math.MinInt64}
	for id := range 20000 {
		seeds = append(seeds, imageSeed(1, id))
	}
	return seeds
}

// TestSourceIntnRange holds Intn to the n it draws for: math/rand panics
// for n ≤ 0, and the copy also for n > 2³¹−1, which math/rand would draw
// with Int63n.
func TestSourceIntnRange(t *testing.T) {
	var src source
	src.Seed(1)
	for _, n := range []int{0, -1, int32max + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			src.Intn(n)
		}()
	}
	if got := src.Intn(int32max); got < 0 || got >= int32max {
		t.Errorf("Intn(2³¹−1) = %d", got)
	}
}

// BenchmarkSourceSeed prices one Seed, the register fill every image
// pays before its first draw, at the seeds of successive images.
func BenchmarkSourceSeed(b *testing.B) {
	var src source
	for i := 0; i < b.N; i++ {
		src.Seed(imageSeed(1, i))
	}
}
