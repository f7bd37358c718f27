package vec

import (
	"math"
	"math/rand"
	"testing"
)

// TestDispatchParity pins the dispatched full-sum kernel (AVX2 when the
// host supports it, otherwise the same Go function) bitwise to the
// portable reference, across lengths that exercise every tail shape,
// across adversarial values (zeros, ties, subnormal-scale, huge-scale),
// and under random weights (some zero), unit weights (the Euclidean
// distance) and all-zero weights.
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
			for wi, w := range [][]float64{w, Ones(n), make([]float64, n)} {
				if got, want := SqDistW(a, b, w), sqDistWFullGo(a, b, w); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d scale=%g weights %d: SqDistW=%x want %x", n, scale, wi, math.Float64bits(got), math.Float64bits(want))
				}
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
