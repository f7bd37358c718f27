package distance

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// metricAxioms exercises symmetry, identity, non-negativity, and the
// triangle inequality on random vectors.
func metricAxioms(t *testing.T, m Metric, dim int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	randVec := func() []float64 {
		v := make([]float64, dim)
		for i := range v {
			v[i] = rng.NormFloat64() * 5
		}
		return v
	}
	for trial := 0; trial < 50; trial++ {
		a, b, c := randVec(), randVec(), randVec()
		dab, dba := m.Distance(a, b), m.Distance(b, a)
		if math.Abs(dab-dba) > 1e-9 {
			t.Fatalf("%s: asymmetric: %v vs %v", m.Name(), dab, dba)
		}
		if dab < 0 {
			t.Fatalf("%s: negative distance %v", m.Name(), dab)
		}
		if daa := m.Distance(a, a); daa > 1e-9 {
			t.Fatalf("%s: d(a,a) = %v", m.Name(), daa)
		}
		dac, dbc := m.Distance(a, c), m.Distance(b, c)
		if dac > dab+dbc+1e-9 {
			t.Fatalf("%s: triangle violated: d(a,c)=%v > %v + %v", m.Name(), dac, dab, dbc)
		}
	}
}

// euclid is the unweighted Euclidean distance in package vec's canonical
// accumulation order: four stripe accumulators over blocks of four, a
// sequential tail, and ((s0+s1)+(s2+s3))+tail.
func euclid(a, b []float64) float64 {
	var s [4]float64
	var tail float64
	for i := range a {
		d := a[i] - b[i]
		if i < len(a)&^3 {
			s[i%4] += d * d
		} else {
			tail += d * d
		}
	}
	return math.Sqrt((s[0] + s[1]) + (s[2] + s[3]) + tail)
}

// TestEuclideanAxiomsAndValue: the paper's default distance, the
// unit-weight WeightedEuclidean, is a metric with the Euclidean values.
func TestEuclideanAxiomsAndValue(t *testing.T) {
	m, _ := NewWeightedEuclidean(vec.Ones(8))
	metricAxioms(t, m, 8, 1)
	m2, _ := NewWeightedEuclidean(vec.Ones(2))
	if got := m2.Distance([]float64{0, 0}, []float64{3, 4}); got != 5 {
		t.Errorf("Euclidean = %v", got)
	}
}

func TestWeightedEuclideanValidation(t *testing.T) {
	if _, err := NewWeightedEuclidean(nil); err == nil {
		t.Error("empty weights should fail")
	}
	if _, err := NewWeightedEuclidean([]float64{1, -1}); err == nil {
		t.Error("negative weight should fail")
	}
	if _, err := NewWeightedEuclidean([]float64{0, 0}); err == nil {
		t.Error("all-zero weights should fail")
	}
	if _, err := NewWeightedEuclidean([]float64{1, math.NaN()}); err == nil {
		t.Error("NaN weight should fail")
	}
	if _, err := NewWeightedEuclidean([]float64{1, 0}); err != nil {
		t.Error("one zero weight among positive ones is legal (dimension ignored)")
	}
}

func TestWeightedEuclideanMatchesFormula(t *testing.T) {
	m, err := NewWeightedEuclidean([]float64{4, 1})
	if err != nil {
		t.Fatal(err)
	}
	// d = sqrt(4·(1-0)² + 1·(2-0)²) = sqrt(8)
	got := m.Distance([]float64{0, 0}, []float64{1, 2})
	if math.Abs(got-math.Sqrt(8)) > 1e-12 {
		t.Errorf("weighted = %v", got)
	}
	metricAxioms(t, m, 2, 6)
}

func TestWeightedEuclideanCopiesWeights(t *testing.T) {
	w := []float64{1, 2}
	m, _ := NewWeightedEuclidean(w)
	w[0] = 99
	if m.w[0] != 1 {
		t.Error("weights should be copied at construction")
	}
}

// TestUniformWeightedEqualsEuclidean: unit weights give the unweighted
// Euclidean distance bit for bit — each term (1·d)·d is d·d exactly — so
// the weighted kernel is the only one the retrieval core needs.
func TestUniformWeightedEqualsEuclidean(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dim := range []int{1, 4, 7, 32, 33} {
		m, _ := NewWeightedEuclidean(vec.Ones(dim))
		for trial := 0; trial < 20; trial++ {
			a, b := make([]float64, dim), make([]float64, dim)
			for i := range a {
				a[i], b[i] = rng.Float64(), rng.NormFloat64()*1e3
			}
			if got, want := m.Distance(a, b), euclid(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("dim %d: unit-weight distance %x, Euclidean %x", dim, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

func TestWeightedEuclideanBounds(t *testing.T) {
	minW, maxW := 0.25, 4.0
	m, _ := NewWeightedEuclidean([]float64{minW, maxW})
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		a := []float64{rng.NormFloat64(), rng.NormFloat64()}
		b := []float64{rng.NormFloat64(), rng.NormFloat64()}
		l2 := euclid(a, b)
		d := m.Distance(a, b)
		lo := math.Sqrt(minW) * l2
		hi := math.Sqrt(maxW) * l2
		if d < lo-1e-9 || d > hi+1e-9 {
			t.Fatalf("weighted distance %v outside [%v, %v]", d, lo, hi)
		}
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"euclidean-via-vec", func() { vec.SqDistW([]float64{1}, []float64{1, 2}, vec.Ones(1)) }},
		{"weighted", func() {
			m, _ := NewWeightedEuclidean(vec.Ones(2))
			m.Distance([]float64{1}, []float64{1, 2})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			c.fn()
		})
	}
}
