// Package eval implements the §5 measures the figure drivers share: the
// precision gain over Default, Saved-Cycles, and the running-average and
// trailing-window series the paper's figures plot.
package eval

import (
	"errors"
	"fmt"
)

// PrecisionGain is the percentage improvement over the Default strategy
// (Figure 10b):
//
//	PrGain = (Pr(method) / Pr(Default) − 1) × 100.
func PrecisionGain(method, deflt float64) (float64, error) {
	if deflt <= 0 {
		return 0, errors.New("eval: default precision must be positive")
	}
	return (method/deflt - 1) * 100, nil
}

// SavedCycles is the average number of feedback iterations saved by
// starting from predicted instead of default parameters (Figure 15a).
func SavedCycles(itersFromDefault, itersFromPredicted int) int {
	return itersFromDefault - itersFromPredicted
}

// Running accumulates a running (cumulative) average, the smoothing the
// paper's learning-curve figures use.
type Running struct {
	n   int
	sum float64
}

// Add incorporates an observation.
func (r *Running) Add(x float64) {
	r.n++
	r.sum += x
}

// Mean returns the current average (0 when empty).
func (r *Running) Mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}

// Series is one plotted curve: parallel X and Y slices.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Append adds a point.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// CumulativeSeries converts per-query observations into the running-average
// curve sampled every `every` queries (and at the final query).
func CumulativeSeries(label string, obs []float64, every int) (*Series, error) {
	if every <= 0 {
		return nil, fmt.Errorf("eval: sampling interval must be positive, got %d", every)
	}
	s := &Series{Label: label}
	var r Running
	for i, x := range obs {
		r.Add(x)
		if (i+1)%every == 0 || i == len(obs)-1 {
			s.Append(float64(i+1), r.Mean())
		}
	}
	return s, nil
}

// WindowSeries converts per-query observations into a trailing-window
// average curve: each sample averages the last `window` observations. The
// savings figures use this to show improvement over time.
func WindowSeries(label string, obs []float64, window, every int) (*Series, error) {
	if window <= 0 || every <= 0 {
		return nil, fmt.Errorf("eval: window %d and interval %d must be positive", window, every)
	}
	s := &Series{Label: label}
	for i := range obs {
		if (i+1)%every != 0 && i != len(obs)-1 {
			continue
		}
		lo := i + 1 - window
		if lo < 0 {
			lo = 0
		}
		var sum float64
		for j := lo; j <= i; j++ {
			sum += obs[j]
		}
		s.Append(float64(i+1), sum/float64(i-lo+1))
	}
	return s, nil
}
