package eval

import (
	"math"
	"testing"
)

func TestPrecisionGain(t *testing.T) {
	g, err := PrecisionGain(0.4, 0.2)
	if err != nil || math.Abs(g-100) > 1e-12 {
		t.Errorf("gain = %v, %v", g, err)
	}
	g, _ = PrecisionGain(0.2, 0.2)
	if g != 0 {
		t.Errorf("no-gain = %v", g)
	}
	if _, err := PrecisionGain(0.4, 0); err == nil {
		t.Error("zero default should error")
	}
}

func TestSavedMetrics(t *testing.T) {
	if SavedCycles(4, 1) != 3 {
		t.Error("SavedCycles")
	}
	if SavedCycles(1, 2) != -1 {
		t.Error("SavedCycles can be negative (prediction hurt)")
	}
}

func TestRunning(t *testing.T) {
	var r Running
	if r.Mean() != 0 {
		t.Error("empty running")
	}
	r.Add(1)
	r.Add(3)
	if r.Mean() != 2 {
		t.Errorf("Mean = %v", r.Mean())
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Append(1, 2)
	s.Append(3, 4)
	if s.Len() != 2 || s.X[1] != 3 || s.Y[1] != 4 {
		t.Errorf("series = %+v", s)
	}
}

func TestCumulativeSeries(t *testing.T) {
	obs := []float64{1, 2, 3, 4, 5}
	s, err := CumulativeSeries("test", obs, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Samples at 2, 4, and the final 5.
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.X[0] != 2 || math.Abs(s.Y[0]-1.5) > 1e-12 {
		t.Errorf("point 0 = (%v, %v)", s.X[0], s.Y[0])
	}
	if s.X[2] != 5 || math.Abs(s.Y[2]-3) > 1e-12 {
		t.Errorf("final point = (%v, %v)", s.X[2], s.Y[2])
	}
	if _, err := CumulativeSeries("x", obs, 0); err == nil {
		t.Error("zero interval should error")
	}
}

func TestWindowSeries(t *testing.T) {
	obs := []float64{0, 0, 0, 10, 10, 10}
	s, err := WindowSeries("w", obs, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Samples at 3 (avg of first 3 = 0) and 6 (avg of last 3 = 10).
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Y[0] != 0 || s.Y[1] != 10 {
		t.Errorf("windows = %v", s.Y)
	}
	if _, err := WindowSeries("w", obs, 0, 1); err == nil {
		t.Error("zero window should error")
	}
}
