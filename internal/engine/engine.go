// Package engine implements the interactive retrieval system of §2 and §5:
// query processing over the image collection, the automatic category-
// driven relevance oracle, and the feedback loop that iterates until the
// result list stabilizes ("no changes are observed anymore in the result
// list"). The engine is the substrate FeedbackBypass plugs into, following
// the architecture of Figure 4.
package engine

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/feedback"
	"repro/internal/knn"
	"repro/internal/vec"
)

// DefaultMaxIterations bounds the feedback loop. Most queries stabilize in
// a handful of iterations, but convergence can be slow when precision
// creeps up one result at a time (§1: "numerous iterations might occur");
// the bound guards genuinely non-converging trajectories.
const DefaultMaxIterations = 30

// NoFeedbackLoop disables the feedback loop entirely when assigned to
// Options.MaxIterations: RunLoop returns after the initial retrieval. The
// zero value of MaxIterations selects DefaultMaxIterations, so "no
// iterations" needs its own sentinel.
const NoFeedbackLoop = -1

// Engine is an interactive similarity retrieval system over a dataset.
type Engine struct {
	ds       *dataset.Dataset
	searcher knn.BatchSearcher // the one retrieval seam: the exact scan, or an injected index (e.g. ann.Index)
	fb       *feedback.Engine
	maxIters int
}

// Options configures an engine.
type Options struct {
	// Feedback selects the relevance-feedback strategy. The zero value
	// resolves to the paper's default (optimal movement + optimal
	// re-weighting) inside feedback.New via the MoveDefault/WeightDefault
	// rules, so a deliberate MoveNone/WeightNone configuration is passed
	// through unchanged.
	Feedback feedback.Options
	// MaxIterations bounds the feedback loop; DefaultMaxIterations when 0,
	// no loop at all when NoFeedbackLoop. Other negatives are errors.
	MaxIterations int
	// Searcher injects a pre-built retrieval tier — typically an IVF
	// ann.Index over the dataset's backend — in place of the exact scan.
	// The tier must cover exactly the dataset's rows.
	Searcher knn.BatchSearcher
}

// New builds an engine over the dataset. Sequential scan is the default
// query-processing strategy because the feedback loop changes the metric
// at every iteration; Options.Searcher replaces it.
func New(ds *dataset.Dataset, opts Options) (*Engine, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, errors.New("engine: empty dataset")
	}
	switch {
	case opts.MaxIterations == 0:
		opts.MaxIterations = DefaultMaxIterations
	case opts.MaxIterations == NoFeedbackLoop:
		opts.MaxIterations = 0
	case opts.MaxIterations < 0:
		return nil, fmt.Errorf("engine: max iterations must be positive, 0 (default) or NoFeedbackLoop, got %d", opts.MaxIterations)
	}
	fb, err := feedback.New(opts.Feedback)
	if err != nil {
		return nil, err
	}
	e := &Engine{ds: ds, searcher: opts.Searcher, fb: fb, maxIters: opts.MaxIterations}
	if e.searcher == nil {
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

// MaxIterations returns the feedback-loop bound the engine was built with
// (0 when constructed with NoFeedbackLoop).
func (e *Engine) MaxIterations() int { return e.maxIters }

// FeedbackName describes the configured relevance-feedback strategy.
func (e *Engine) FeedbackName() string { return e.fb.Name() }

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

// Retrieval names the active retrieval tier — "scan", or the injected
// searcher's own description (e.g. "ivf(nlist=…,nprobe=…)") — for the
// serving layer's stats surface.
func (e *Engine) Retrieval() string { return e.searcher.Describe() }

// WeightedQuery pairs a query point with the weight vector of its
// re-weighted metric.
type WeightedQuery struct {
	Q, W []float64
}

// RetrieveBatch answers several weighted retrievals in one call through
// the scan's cache-tiled SearchBatchMulti: every L2-sized block of the
// collection is streamed once for the whole batch, with each query
// evaluated under its own weighted metric against the hot block. Results
// are positionally aligned with qs and identical to calling Retrieve per
// query. A singleton batch goes through Retrieve (a lone kernel query is
// served best-first by Search, which stops early).
func (e *Engine) RetrieveBatch(qs []WeightedQuery, k int) ([][]knn.Result, error) {
	if len(qs) == 1 {
		res, err := e.Retrieve(qs[0].Q, qs[0].W, k)
		if err != nil {
			return nil, err
		}
		return [][]knn.Result{res}, nil
	}
	points := make([][]float64, len(qs))
	metrics := make([]distance.Metric, len(qs))
	for i, wq := range qs {
		m, err := distance.NewWeightedEuclidean(wq.W)
		if err != nil {
			return nil, err
		}
		points[i] = wq.Q
		metrics[i] = m
	}
	return e.searcher.SearchBatchMulti(points, k, metrics)
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

// RefineFromScores computes the next query point and weight vector from
// caller-provided relevance scores for the given result list — the
// feedback step of Figure 5 driven by an external user (e.g. a service
// session) instead of the category oracle RunLoop embeds. It passes
// feedback.ErrNoGoodMatches through unchanged so callers can terminate
// their loop the way RunLoop does.
func (e *Engine) RefineFromScores(q []float64, results []knn.Result, scores []float64) (newQ, newW []float64, err error) {
	if len(results) != len(scores) {
		return nil, nil, fmt.Errorf("engine: %d results but %d scores", len(results), len(scores))
	}
	vectors := make([][]float64, len(results))
	for i, r := range results {
		// The bounds-checked accessor turns a hostile index from a
		// serving-path client into an errors.Is-able store.ErrOutOfRange
		// instead of a slice-bounds panic inside an HTTP handler.
		v, err := e.ds.Feature(r.Index)
		if err != nil {
			return nil, nil, fmt.Errorf("engine: result index %d: %w", r.Index, err)
		}
		vectors[i] = v
	}
	return e.fb.Refine(q, vectors, scores)
}

// LoopOutcome summarizes one run of the feedback loop.
type LoopOutcome struct {
	// QOpt and WOpt are the converged optimal query parameters.
	QOpt, WOpt []float64
	// Iterations counts the feedback cycles performed: each cycle is one
	// round of user scores, parameter refinement, and re-retrieval. Zero
	// means the very first refinement left the result list unchanged or no
	// feedback was available.
	Iterations int
	// Retrievals counts database searches, Iterations+1.
	Retrievals int
	// FirstResults is the result list of the initial retrieval (what the
	// user sees before any feedback).
	FirstResults []knn.Result
	// FinalResults is the stable result list of Result(Qopt, dopt).
	FinalResults []knn.Result
	// Converged is false when the iteration bound stopped the loop.
	Converged bool
}

// RunLoop executes the interactive feedback loop of Figure 5 starting from
// the given query point and weights, using the category oracle in place of
// the user. It iterates until the result list no longer changes, no good
// matches are found, or the iteration bound is reached.
func (e *Engine) RunLoop(queryCategory string, q0, w0 []float64, k int) (LoopOutcome, error) {
	if k <= 0 {
		return LoopOutcome{}, fmt.Errorf("engine: k must be positive, got %d", k)
	}
	q, w := vec.Clone(q0), vec.Clone(w0)
	results, err := e.Retrieve(q, w, k)
	if err != nil {
		return LoopOutcome{}, err
	}
	out := LoopOutcome{FirstResults: results}
	// The refinement is a deterministic function of the result list, so a
	// repeated list means the loop has entered a limit cycle and no further
	// improvement is possible ("stable situation", §5). Track every list
	// seen to terminate both on fixed points and on longer cycles.
	seen := map[uint64]bool{signature(results): true}
	for iter := 0; iter < e.maxIters; iter++ {
		scores := e.Score(queryCategory, results)
		vectors := make([][]float64, len(results))
		for i, r := range results {
			vectors[i] = e.ds.Items[r.Index].Feature
		}
		newQ, newW, err := e.fb.Refine(q, vectors, scores)
		if errors.Is(err, feedback.ErrNoGoodMatches) {
			// Nothing to learn from: the loop terminates with the current
			// parameters (§5: improvement requires good matches).
			out.Converged = true
			break
		}
		if err != nil {
			return LoopOutcome{}, err
		}
		newResults, err := e.Retrieve(newQ, newW, k)
		if err != nil {
			return LoopOutcome{}, err
		}
		q, w = newQ, newW
		if knn.SameIndexSet(newResults, results) {
			results = newResults
			out.Converged = true
			break
		}
		results = newResults
		out.Iterations++
		sig := signature(results)
		if seen[sig] {
			out.Converged = true
			break
		}
		seen[sig] = true
	}
	out.QOpt, out.WOpt = q, w
	out.FinalResults = results
	out.Retrievals = out.Iterations + 1
	return out, nil
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
// FNV-1a over the little-endian index bytes. The previous implementation
// built a string with one fmt.Fprintf per result per iteration, which
// dominated the loop's bookkeeping cost; the hash is allocation-free. A
// 64-bit collision between the handful of lists one loop can see is
// vanishingly unlikely (and a collision merely ends refinement one
// iteration early, it cannot corrupt results).
func signature(results []knn.Result) uint64 {
	h := uint64(fnvOffset64)
	for _, r := range results {
		h = fnvMix(h, uint64(r.Index))
	}
	return h
}

// ResultSignature is the exported form of the loop's cycle-detection hash;
// service sessions use it to detect stable result lists across feedback
// rounds exactly the way RunLoop does.
func ResultSignature(results []knn.Result) uint64 { return signature(results) }

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

// ShardOf is the partition function of the sharded bypass plane: it maps
// a query point to one of `shards` partitions by reducing QuerySignature
// modulo the shard count. Every layer that routes by query point — the
// sharded bypass's insert path, the serving layer's per-shard cache
// generations, recovery replay — must agree on this function, and any
// durable module directory bakes its shard count into its manifest, so
// the mapping is pinned by test (TestShardOfPinned): changing it is a
// resharding migration of every existing module, not a refactor.
func ShardOf(q []float64, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(QuerySignature(q) % uint64(shards))
}

// UniformWeights returns the all-ones weight vector of the collection's
// dimensionality — the default distance function.
func (e *Engine) UniformWeights() []float64 { return vec.Ones(e.ds.Dim) }
