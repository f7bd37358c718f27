package vec

import (
	"math"
	"math/rand"
	"testing"
)

// TestDispatchParity pins the dispatched full-sum kernels (AVX2 when the
// host supports it, otherwise the same Go functions) bitwise to the
// portable references, across lengths that exercise every tail shape and
// across adversarial values (zeros, ties, subnormal-scale, huge-scale).
func TestDispatchParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	scales := []float64{1, 1e-160, 1e150, 0}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 31, 32, 33, 100, 257} {
		for _, scale := range scales {
			a := make([]float64, n)
			b := make([]float64, n)
			w := make([]float64, n)
			for i := range a {
				a[i] = scale * rng.NormFloat64()
				b[i] = scale * rng.NormFloat64()
				w[i] = rng.Float64() * 3
				if i%5 == 0 {
					w[i] = 0 // zero weights must contribute exactly +0
				}
				if i%7 == 0 {
					b[i] = a[i] // exact ties
				}
			}
			if got, want := SqDist(a, b), sqDistFullGo(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d scale=%g: SqDist=%x want %x", n, scale, math.Float64bits(got), math.Float64bits(want))
			}
			if got, want := SqDistW(a, b, w), sqDistWFullGo(a, b, w); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d scale=%g: SqDistW=%x want %x", n, scale, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

func TestGodebugDisables(t *testing.T) {
	cases := []struct {
		godebug string
		want    bool
	}{
		{"", false},
		{"cpu.avx2=off", true},
		{"cpu.avx2=0", true},
		{"cpu.avx2=on", false},
		{"gctrace=1,cpu.avx2=off", true},
		{"cpu.avx2=off,cpu.avx2=on", false}, // last wins
		{"cpu.avx2=on,cpu.avx2=off", true},
		{"cpu.avx512=off", false}, // different key
	}
	for _, c := range cases {
		if got := godebugDisables(c.godebug, "cpu.avx2"); got != c.want {
			t.Errorf("godebugDisables(%q) = %v, want %v", c.godebug, got, c.want)
		}
	}
}
