// Package engine implements the interactive retrieval system of §2 and §5:
// query processing over the image collection, the automatic category-
// driven relevance oracle, and the feedback loop that iterates until the
// result list stabilizes ("no changes are observed anymore in the result
// list"). The engine is the substrate FeedbackBypass plugs into, following
// the architecture of Figure 4.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/feedback"
	"repro/internal/knn"
	"repro/internal/vec"
)

// DefaultMaxIterations is the round budget the figures give every Loop,
// and the service's default. Most queries stabilize in a handful of
// rounds, but convergence can be slow when precision creeps up one result
// at a time (§1: "numerous iterations might occur"); the bound guards
// genuinely non-converging trajectories.
const DefaultMaxIterations = 30

// Engine is an interactive similarity retrieval system over a dataset.
type Engine struct {
	ds       *dataset.Dataset
	searcher knn.Searcher // the one retrieval seam: the exact scan, or an injected wrapper of it
}

// Options configures an engine.
type Options struct {
	// Searcher injects a pre-built searcher in place of the default exact
	// scan — the HTTP benchmark's tracer (bench/trace.go) wraps a
	// knn.Scan this way to time every search. It must cover exactly the
	// dataset's rows.
	Searcher knn.Searcher
}

// New builds an engine over the dataset. Sequential scan is the default
// query-processing strategy because the feedback loop changes the metric
// at every iteration; Options.Searcher replaces it.
func New(ds *dataset.Dataset, opts Options) (*Engine, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, errors.New("engine: empty dataset")
	}
	e := &Engine{ds: ds, searcher: opts.Searcher}
	if e.searcher == nil {
		var err error
		if e.searcher, err = knn.NewScanBackend(ds.Matrix()); err != nil {
			return nil, err
		}
	} else if e.searcher.Len() != ds.Len() {
		return nil, fmt.Errorf("engine: injected searcher covers %d rows, dataset has %d", e.searcher.Len(), ds.Len())
	}
	return e, nil
}

// Dataset returns the underlying collection.
func (e *Engine) Dataset() *dataset.Dataset { return e.ds }

// Retrieve runs the query-processing step: the k nearest items to q under
// the weighted Euclidean distance with the given weights (uniform weights
// = the default Euclidean distance of §5).
func (e *Engine) Retrieve(q, w []float64, k int) ([]knn.Result, error) {
	m, err := distance.NewWeightedEuclidean(w)
	if err != nil {
		return nil, err
	}
	return e.searcher.Search(q, k, m)
}

// Score applies the automatic relevance oracle of §5: an item scores
// ScoreGood iff it belongs to the query's category.
func (e *Engine) Score(queryCategory string, results []knn.Result) []float64 {
	scores := make([]float64, len(results))
	for i, r := range results {
		if e.ds.IsGood(r.Index, queryCategory) {
			scores[i] = feedback.ScoreGood
		} else {
			scores[i] = feedback.ScoreBad
		}
	}
	return scores
}

// GoodCount returns how many results are relevant to the query category.
func (e *Engine) GoodCount(queryCategory string, results []knn.Result) int {
	n := 0
	for _, r := range results {
		if e.ds.IsGood(r.Index, queryCategory) {
			n++
		}
	}
	return n
}

// ErrInvalidScores wraps a round Step cannot consume: a score count that
// does not match the result list, a negative, NaN or infinite score,
// scores whose sum overflows, or a positive sum so small (subnormal) that
// the refined parameters would not be finite.
var ErrInvalidScores = errors.New("engine: invalid relevance scores")

// Loop is one interactive session of Figure 5. Start runs the first
// retrieval; each Step consumes one round of judgements. The loop ends
// when "no changes are observed anymore in the result list" (§5) — the
// list is unchanged or repeats an earlier one — when a round marks no
// result good, or when the budget is spent. A round is every judgement
// the loop consumed, the terminal one included. A Loop is not safe for
// concurrent use.
type Loop struct {
	e       *Engine
	k       int
	q0, w0  []float64 // the parameters the loop started from
	q, w    []float64
	results []knn.Result
	seen    map[uint64]bool // every list's signature, for limit cycles
	rounds  int
	budget  int
	done    bool
}

// Start retrieves the first result list for (q, w) and returns a loop of
// at most budget rounds (0: already done). The loop keeps q and w; the
// caller must not modify them.
func (e *Engine) Start(q, w []float64, k, budget int) (*Loop, error) {
	if k <= 0 || budget < 0 {
		return nil, fmt.Errorf("engine: need k > 0 and budget >= 0, got k=%d budget=%d", k, budget)
	}
	results, err := e.Retrieve(q, w, k)
	if err != nil {
		return nil, err
	}
	return &Loop{
		e: e, k: k,
		q0: q, w0: w, q: q, w: w,
		results: results,
		seen:    map[uint64]bool{signature(results): true},
		budget:  budget,
		done:    budget == 0,
	}, nil
}

// Step consumes one round of scores, one per current result (non-negative,
// 0 = irrelevant): refine, re-retrieve, decide whether the loop is done.
// On a finished loop it is a no-op. On any error the loop is unchanged,
// so a retried Step reproduces the round: malformed scores wrap
// ErrInvalidScores, and a ctx done before the retrieval returns its error.
func (l *Loop) Step(ctx context.Context, scores []float64) error {
	if l.done {
		return nil
	}
	if len(scores) != len(l.results) {
		return fmt.Errorf("%d scores for %d results: %w", len(scores), len(l.results), ErrInvalidScores)
	}
	vectors := make([][]float64, len(l.results))
	for i, r := range l.results {
		v, err := l.e.ds.Feature(r.Index) // bounds-checked: a faulty searcher's index is an error, not a panic
		if err != nil {
			return fmt.Errorf("engine: result index %d: %w", r.Index, err)
		}
		vectors[i] = v
	}
	newQ, newW, err := feedback.Refine(vectors, scores)
	if errors.Is(err, feedback.ErrNoGoodMatches) {
		// Nothing to learn from: the loop ends with the current parameters.
		l.rounds++
		l.done = true
		return nil
	}
	if err != nil {
		return fmt.Errorf("%w: %w", err, ErrInvalidScores)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	results, err := l.e.Retrieve(newQ, newW, l.k)
	if err != nil {
		return err
	}
	sig := signature(results)
	l.rounds++
	l.done = knn.SameIndexSet(results, l.results) || l.seen[sig] || l.rounds >= l.budget
	l.q, l.w, l.results, l.seen[sig] = newQ, newW, results, true
	return nil
}

// Results, Params and K describe the current state; callers must not
// modify the returned slices.
func (l *Loop) Results() []knn.Result    { return l.results }
func (l *Loop) Params() (q, w []float64) { return l.q, l.w }
func (l *Loop) K() int                   { return l.k }

// Rounds, BudgetLeft and Done count the judgements consumed and left.
func (l *Loop) Rounds() int     { return l.rounds }
func (l *Loop) BudgetLeft() int { return l.budget - l.rounds }
func (l *Loop) Done() bool      { return l.done }

// Moved is Figure 5's "if (vPred != v)", the one insert rule: whether the
// current parameters differ bitwise from the ones the loop started from.
func (l *Loop) Moved() bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return !slices.EqualFunc(l.q, l.q0, same) || !slices.EqualFunc(l.w, l.w0, same)
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvMix(h, x uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h ^= (x >> s) & 0xff
		h *= fnvPrime64
	}
	return h
}

// signature encodes a result list's index sequence for cycle detection:
// allocation-free FNV-1a over the little-endian index bytes. A 64-bit
// collision merely ends the loop one round early.
func signature(results []knn.Result) uint64 {
	h := uint64(fnvOffset64)
	for _, r := range results {
		h = fnvMix(h, uint64(r.Index))
	}
	return h
}

// QuerySignature hashes a query point (FNV-1a over the little-endian
// IEEE-754 bits of each component) — the cache key of the serving layer's
// prediction cache. It is allocation-free and distinguishes +0/−0 and any
// NaN payloads bitwise, so two queries with equal signatures are, for
// finite inputs, overwhelmingly likely to be the same point; callers that
// cannot tolerate the residual collision risk must compare the points.
func QuerySignature(q []float64) uint64 {
	h := uint64(fnvOffset64)
	for _, x := range q {
		h = fnvMix(h, math.Float64bits(x))
	}
	return h
}

// UniformWeights returns the all-ones weight vector of the collection's
// dimensionality — the default distance function.
func (e *Engine) UniformWeights() []float64 { return vec.Ones(e.ds.Dim) }
