package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, err := Mean(xs)
	if err != nil || m != 5 {
		t.Errorf("Mean = %v, %v", m, err)
	}
}

func TestEmptyErrors(t *testing.T) {
	if _, err := Mean(nil); err != ErrEmpty {
		t.Errorf("Mean(nil) err = %v", err)
	}
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Errorf("Quantile(nil) err = %v", err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {1.0 / 3.0, 2},
	} {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if _, err := Quantile(xs, -0.1); err == nil {
		t.Error("expected range error")
	}
	if _, err := Quantile(xs, 1.1); err == nil {
		t.Error("expected range error")
	}
	one, err := Quantile([]float64{7}, 0.3)
	if err != nil || one != 7 {
		t.Errorf("single-element quantile = %v, %v", one, err)
	}
}

// Property: quantile is monotone in q.
func TestQuantileMonotoneQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v, err := Quantile(xs, q)
			if err != nil {
				t.Fatal(err)
			}
			if v < prev-1e-9 {
				t.Fatalf("quantile not monotone at q=%v: %v < %v", q, v, prev)
			}
			prev = v
		}
	}
}
