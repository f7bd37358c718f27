package simplextree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// TestRootCoordsMatchBarycentric: the closed-form root coordinates are,
// bit for bit, the ones geom.Simplex.Barycentric solves for the standard
// simplex, signed zeros included. The points mix interior coordinates
// with +0, −0, slightly negative and subnormal negative ones, and every
// fifth point is pushed past the far facet (λ₀ < 0). The −0 rule must
// fire on some of them, or the set would not test it.
func TestRootCoordsMatchBarycentric(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, d := range []int{2, 3, 8, 31, 32} {
		t.Run(fmt.Sprintf("D=%d", d), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(300 + d)))
			domain := geom.StandardSimplex(d)
			lam := make([]float64, d+1)
			flipped := 0
			for trial := 0; trial < 20000; trial++ {
				q := randomInterior(rng, d)
				for i := range q {
					switch rng.Intn(8) {
					case 0:
						q[i] = 0
					case 1:
						q[i] = negZero
					case 2:
						q[i] = -1e-12 * rng.Float64()
					case 3:
						q[i] = -math.SmallestNonzeroFloat64
					}
				}
				if trial%5 == 4 {
					for i := range q {
						q[i] *= 1.5
					}
				}
				want, err := domain.Barycentric(q)
				if err != nil {
					t.Fatal(err)
				}
				rootCoordsInto(lam, q)
				for i := range want {
					if math.Float64bits(lam[i]) != math.Float64bits(want[i]) {
						t.Fatalf("q = %v: λ%d is %v (bits %016x), Barycentric's %v (bits %016x)", q, i, lam[i], math.Float64bits(lam[i]), want[i], math.Float64bits(want[i]))
					}
				}
				for i, x := range q {
					if math.Signbit(x) && x == 0 && !math.Signbit(lam[i+1]) {
						flipped++
					}
				}
			}
			t.Logf("%d −0 coordinates came out +0", flipped)
			if flipped == 0 {
				t.Error("no −0 coordinate came out +0: the points do not exercise the signed-zero rule")
			}
		})
	}
}
