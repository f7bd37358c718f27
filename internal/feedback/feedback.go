// Package feedback implements the relevance-feedback step of §2 of the
// paper — the machinery FeedbackBypass complements rather than replaces.
// Refine is the "compute new OQPs given the scores" step of the
// interactive loop (Figure 5 of the paper), with the optimal rules of
// Ishikawa et al. [ISF98]: the query point moves to the score-weighted
// centroid of the good matches (Eq. 2), and the weighted Euclidean
// distance is re-weighted by w_i ∝ 1/σ_i².
package feedback

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/vec"
)

// Binary relevance scores (§2: "the user can mark a result object either
// as good or bad"). Graded or continuous scores are equally valid: any
// non-negative score works, with 0 meaning irrelevant.
const (
	ScoreBad  = 0.0
	ScoreGood = 1.0
)

// ErrNoGoodMatches is returned when no result carries a positive score;
// callers should keep the current query parameters (the paper's engine
// simply has nothing to learn from such an iteration).
var ErrNoGoodMatches = errors.New("feedback: no positively scored results")

// varianceFloor bounds the 1/σ² weights on dimensions where the good
// matches agree exactly.
const varianceFloor = 1e-6

// GoodSubset returns the result vectors with positive scores and their
// scores. Every score must be finite and non-negative, and so must the
// sum Refine divides by (else the weights turn NaN).
func GoodSubset(results [][]float64, scores []float64) (good [][]float64, goodScores []float64, err error) {
	if len(results) != len(scores) {
		return nil, nil, fmt.Errorf("feedback: %d results but %d scores", len(results), len(scores))
	}
	good = make([][]float64, 0, len(scores))
	goodScores = make([]float64, 0, len(scores))
	var total float64
	for i, s := range scores {
		if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
			return nil, nil, fmt.Errorf("feedback: invalid score %v at %d", s, i)
		}
		if s > 0 {
			good = append(good, results[i])
			goodScores = append(goodScores, s)
			total += s
		}
	}
	if math.IsInf(total, 0) {
		return nil, nil, fmt.Errorf("feedback: positive scores sum to %v", total)
	}
	return good, goodScores, nil
}

// Refine computes the next query point and weight vector from the scored
// results of one round. The query point is Eq. 2 of the paper, the
// score-weighted average of the positively scored results,
//
//	q' = Σ_j Score(p_j)·p_j / Σ_j Score(p_j),
//
// and the weights are w_i ∝ 1/σ_i², with σ_i² the score-weighted variance
// of the good matches around q' in dimension i, floored at varianceFloor
// and normalized to geometric mean 1 (the det-1 normalization of
// MindReader, fixing the one redundant degree of freedom the paper notes
// in Example 1). It returns ErrNoGoodMatches when no score is positive,
// and an error when the scores are malformed or so small that q' or w is
// not finite (a subnormal total overflows 1/Σ).
func Refine(results [][]float64, scores []float64) (q, w []float64, err error) {
	good, goodScores, err := GoodSubset(results, scores)
	if err != nil {
		return nil, nil, err
	}
	if len(good) == 0 {
		return nil, nil, ErrNoGoodMatches
	}
	dim := len(good[0])
	q = make([]float64, dim)
	var total float64
	for j, p := range good {
		if len(p) != dim {
			return nil, nil, fmt.Errorf("feedback: result %d has dimension %d, want %d", j, len(p), dim)
		}
		vec.Axpy(q, goodScores[j], p)
		total += goodScores[j]
	}
	vec.ScaleInPlace(q, 1/total)
	w = make([]float64, dim)
	for j, p := range good {
		for i := range p {
			d := p[i] - q[i]
			w[i] += goodScores[j] * d * d
		}
	}
	vec.ScaleInPlace(w, 1/total)
	for i, v := range w {
		if v < varianceFloor {
			v = varianceFloor
		}
		w[i] = 1 / v
	}
	normalizeGeometricMean(w)
	if !vec.IsFinite(q) || !vec.IsFinite(w) {
		return nil, nil, fmt.Errorf("feedback: positive scores summing to %v give a non-finite query point or weights", total)
	}
	return q, w, nil
}

// normalizeGeometricMean rescales positive weights in place so their
// geometric mean is 1, leaving the induced distance ordering unchanged.
func normalizeGeometricMean(w []float64) {
	var logSum float64
	for _, x := range w {
		logSum += math.Log(x)
	}
	vec.ScaleInPlace(w, math.Exp(-logSum/float64(len(w))))
}
