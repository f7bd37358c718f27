// Package feedback implements the relevance-feedback strategies of §2 of
// the paper — the machinery FeedbackBypass complements rather than
// replaces:
//
//   - query-point movement: Rocchio's formula [Sal88] and the optimal
//     score-weighted centroid of Ishikawa et al. [ISF98] (Eq. 2);
//   - re-weighting for weighted Euclidean distances: the early MARS rule
//     w_i = 1/σ_i [RHOM98] and the optimal rule w_i ∝ 1/σ_i² [ISF98];
//
// plus an Engine that composes a movement rule and a weighting rule into
// the "compute new OQPs given the scores" step of the interactive loop
// (Figure 5 of the paper).
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

// MovementRule selects the query-point movement strategy.
type MovementRule int

const (
	// MoveDefault is the zero value and selects the paper's default
	// movement rule, MoveOptimal. Making the default its own named value
	// (rather than defaulting on a zero struct) lets callers ask for
	// MoveNone deliberately without it being mistaken for "unset".
	MoveDefault MovementRule = iota
	// MoveNone leaves the query point unchanged.
	MoveNone
	// MoveOptimal uses the score-weighted centroid of the good matches
	// (Eq. 2 of the paper, proved optimal in [ISF98]).
	MoveOptimal
	// MoveRocchio uses Rocchio's formula with the engine's α, β, γ.
	MoveRocchio
)

// String implements fmt.Stringer.
func (m MovementRule) String() string {
	switch m {
	case MoveDefault:
		return "default(optimal)"
	case MoveNone:
		return "none"
	case MoveOptimal:
		return "optimal"
	case MoveRocchio:
		return "rocchio"
	default:
		return fmt.Sprintf("movement(%d)", int(m))
	}
}

// WeightingRule selects the re-weighting strategy.
type WeightingRule int

const (
	// WeightDefault is the zero value and selects the paper's default
	// re-weighting rule, WeightOptimal.
	WeightDefault WeightingRule = iota
	// WeightNone keeps uniform weights.
	WeightNone
	// WeightMARS uses w_i = 1/σ_i (early MARS, [RHOM98]).
	WeightMARS
	// WeightOptimal uses w_i ∝ 1/σ_i² (optimal for weighted Euclidean,
	// [ISF98]).
	WeightOptimal
)

// String implements fmt.Stringer.
func (w WeightingRule) String() string {
	switch w {
	case WeightDefault:
		return "default(optimal)"
	case WeightNone:
		return "none"
	case WeightMARS:
		return "mars-1/sigma"
	case WeightOptimal:
		return "optimal-1/sigma2"
	default:
		return fmt.Sprintf("weighting(%d)", int(w))
	}
}

// GoodSubset returns the result vectors with positive scores and their
// scores. Every score must be finite and non-negative, and so must the
// sum the score-weighted rules divide by (else the weights turn NaN).
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

// OptimalQueryPoint computes Eq. 2 of the paper: the score-weighted
// average of the positively scored results,
//
//	q' = Σ_j Score(p_j)·p_j / Σ_j Score(p_j).
//
// It returns ErrNoGoodMatches when every score is zero.
func OptimalQueryPoint(results [][]float64, scores []float64) ([]float64, error) {
	good, goodScores, err := GoodSubset(results, scores)
	if err != nil {
		return nil, err
	}
	if len(good) == 0 {
		return nil, ErrNoGoodMatches
	}
	dim := len(good[0])
	out := make([]float64, dim)
	var total float64
	for j, p := range good {
		if len(p) != dim {
			return nil, fmt.Errorf("feedback: result %d has dimension %d, want %d", j, len(p), dim)
		}
		vec.Axpy(out, goodScores[j], p)
		total += goodScores[j]
	}
	vec.ScaleInPlace(out, 1/total)
	return out, nil
}

// Rocchio computes the classic Rocchio update
//
//	q' = α·q + β·centroid(good) − γ·centroid(bad)
//
// where good results are those with positive scores and bad results those
// with zero scores. When there are no bad results the γ term vanishes; when
// there are no good results it returns ErrNoGoodMatches.
func Rocchio(q []float64, results [][]float64, scores []float64, alpha, beta, gamma float64) ([]float64, error) {
	if len(results) != len(scores) {
		return nil, fmt.Errorf("feedback: %d results but %d scores", len(results), len(scores))
	}
	good := make([]float64, len(q))
	bad := make([]float64, len(q))
	var nGood, nBad int
	for i, p := range results {
		if len(p) != len(q) {
			return nil, fmt.Errorf("feedback: result %d has dimension %d, want %d", i, len(p), len(q))
		}
		if scores[i] > 0 {
			vec.AddInPlace(good, p)
			nGood++
		} else {
			vec.AddInPlace(bad, p)
			nBad++
		}
	}
	if nGood == 0 {
		return nil, ErrNoGoodMatches
	}
	out := vec.Scale(q, alpha)
	vec.Axpy(out, beta/float64(nGood), good)
	if nBad > 0 {
		vec.Axpy(out, -gamma/float64(nBad), bad)
	}
	return out, nil
}

// WeightedDimensionVariance computes the score-weighted per-dimension
// variance of the good matches around their score-weighted mean — the σ_i²
// of the re-weighting formulas.
func WeightedDimensionVariance(good [][]float64, scores []float64) ([]float64, error) {
	if len(good) == 0 {
		return nil, ErrNoGoodMatches
	}
	if len(good) != len(scores) {
		return nil, fmt.Errorf("feedback: %d vectors but %d scores", len(good), len(scores))
	}
	dim := len(good[0])
	mean := make([]float64, dim)
	var total float64
	for j, p := range good {
		if len(p) != dim {
			return nil, fmt.Errorf("feedback: vector %d has dimension %d, want %d", j, len(p), dim)
		}
		vec.Axpy(mean, scores[j], p)
		total += scores[j]
	}
	if total <= 0 {
		return nil, ErrNoGoodMatches
	}
	vec.ScaleInPlace(mean, 1/total)
	variance := make([]float64, dim)
	for j, p := range good {
		for i := range p {
			d := p[i] - mean[i]
			variance[i] += scores[j] * d * d
		}
	}
	vec.ScaleInPlace(variance, 1/total)
	return variance, nil
}

// Reweight derives weighted-Euclidean weights from the positively scored
// results according to the rule, flooring each variance at varFloor to
// keep weights finite on dimensions where the good matches agree exactly.
// The weights are normalized to geometric mean 1 (the det-1 normalization
// of MindReader), fixing the one redundant degree of freedom the paper
// notes in Example 1.
func Reweight(results [][]float64, scores []float64, rule WeightingRule, varFloor float64) ([]float64, error) {
	good, goodScores, err := GoodSubset(results, scores)
	if err != nil {
		return nil, err
	}
	if len(good) == 0 {
		return nil, ErrNoGoodMatches
	}
	if varFloor <= 0 {
		return nil, fmt.Errorf("feedback: variance floor must be positive, got %v", varFloor)
	}
	dim := len(good[0])
	if rule == WeightDefault {
		rule = WeightOptimal
	}
	if rule == WeightNone {
		return vec.Ones(dim), nil
	}
	variance, err := WeightedDimensionVariance(good, goodScores)
	if err != nil {
		return nil, err
	}
	w := make([]float64, dim)
	for i, v := range variance {
		if v < varFloor {
			v = varFloor
		}
		switch rule {
		case WeightMARS:
			w[i] = 1 / math.Sqrt(v)
		case WeightOptimal:
			w[i] = 1 / v
		default:
			return nil, fmt.Errorf("feedback: unknown weighting rule %v", rule)
		}
	}
	return NormalizeGeometricMean(w), nil
}

// NormalizeGeometricMean rescales positive weights so their geometric mean
// is 1, leaving the induced distance ordering unchanged.
func NormalizeGeometricMean(w []float64) []float64 {
	var logSum float64
	for _, x := range w {
		logSum += math.Log(x)
	}
	scale := math.Exp(-logSum / float64(len(w)))
	return vec.Scale(w, scale)
}

// The Engine's fixed coefficients: Rocchio's common α=1, β=0.75, γ=0.25
// (used only with MoveRocchio), and the floor that bounds 1/σ² weights.
const (
	rocchioAlpha, rocchioBeta, rocchioGamma = 1, 0.75, 0.25
	varianceFloor                           = 1e-6
)

// Options configures an Engine. The zero value selects the paper's
// defaults: MoveDefault and WeightDefault resolve to the optimal movement
// and re-weighting rules (optimal query-point movement plus optimal 1/σ²
// re-weighting) at construction, while a deliberate MoveNone/WeightNone
// (both non-zero values) survives construction unchanged.
type Options struct {
	Movement  MovementRule
	Weighting WeightingRule
	// NormalizeQuery clamps the moved query point at zero and rescales it
	// to unit component sum after each movement step. Rocchio's update is
	// not a convex combination, so iterating it grows the query's mass
	// without bound on histogram features; normalized Rocchio is the
	// standard remedy [Sal88]. The optimal movement rule (Eq. 2) is a
	// convex combination of normalized vectors and never needs this.
	NormalizeQuery bool
}

// Engine composes a movement rule and a weighting rule into the feedback
// step of the interactive loop.
type Engine struct {
	opts Options
}

// New validates the options and returns an engine. The zero-value rules
// MoveDefault and WeightDefault resolve to the paper's optimal rules here;
// every other rule is taken literally.
func New(opts Options) (*Engine, error) {
	if opts.Movement < MoveDefault || opts.Movement > MoveRocchio {
		return nil, fmt.Errorf("feedback: unknown movement rule %d", opts.Movement)
	}
	if opts.Weighting < WeightDefault || opts.Weighting > WeightOptimal {
		return nil, fmt.Errorf("feedback: unknown weighting rule %d", opts.Weighting)
	}
	if opts.Movement == MoveDefault {
		opts.Movement = MoveOptimal
	}
	if opts.Weighting == WeightDefault {
		opts.Weighting = WeightOptimal
	}
	return &Engine{opts: opts}, nil
}

// Name describes the engine configuration.
func (e *Engine) Name() string {
	return fmt.Sprintf("move=%s,weight=%s", e.opts.Movement, e.opts.Weighting)
}

// Refine computes the next query point and weight vector from the scored
// results of the current iteration. It returns ErrNoGoodMatches — with the
// inputs echoed back unchanged — when no result was marked relevant.
func (e *Engine) Refine(q []float64, results [][]float64, scores []float64) (newQ []float64, weights []float64, err error) {
	good, _, err := GoodSubset(results, scores)
	if err != nil {
		return nil, nil, err
	}
	if len(good) == 0 {
		return vec.Clone(q), vec.Ones(len(q)), ErrNoGoodMatches
	}
	switch e.opts.Movement {
	case MoveNone:
		newQ = vec.Clone(q)
	case MoveOptimal:
		newQ, err = OptimalQueryPoint(results, scores)
	case MoveRocchio:
		newQ, err = Rocchio(q, results, scores, rocchioAlpha, rocchioBeta, rocchioGamma)
	}
	if err != nil {
		return nil, nil, err
	}
	if e.opts.NormalizeQuery {
		clamped := vec.Clamp(newQ, 0, math.Inf(1))
		if normalized, nerr := vec.Normalize(clamped); nerr == nil {
			newQ = normalized
		}
	}
	weights, err = Reweight(results, scores, e.opts.Weighting, varianceFloor)
	if err != nil {
		return nil, nil, err
	}
	return newQ, weights, nil
}
