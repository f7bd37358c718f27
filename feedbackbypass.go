// Package feedbackbypass is a Go implementation of FeedbackBypass
// (Bartolini, Ciaccia, Waas: "FeedbackBypass: A New Approach to
// Interactive Similarity Query Processing", VLDB 2001).
//
// FeedbackBypass sits next to an interactive similarity-retrieval system
// that refines queries through relevance feedback. It learns the optimal
// query mapping Mopt: q ↦ (Δopt, Wopt) — from an initial query point to
// the optimal query-point offset and distance-function parameters past
// feedback loops converged to — and stores it in a Simplex Tree, a
// wavelet-based incremental triangulation of the query domain. For a new
// query it predicts near-optimal parameters immediately; for an
// already-seen query it returns the stored optimum, bypassing the feedback
// loop entirely.
//
// # Quick start
//
//	bypass, codec, err := feedbackbypass.NewForHistograms(32, feedbackbypass.Config{Epsilon: 0.05})
//	// before searching:
//	qp, _ := codec.QueryPoint(queryHistogram)
//	oqp, _ := bypass.Predict(qp)
//	qOpt, weights, _ := codec.DecodeOQP(queryHistogram, oqp)
//	// ... search with qOpt and weights; run the feedback loop if needed ...
//	// after the loop converges to (qBest, wBest):
//	learned, _ := codec.EncodeOQP(queryHistogram, qBest, wBest)
//	bypass.Insert(qp, learned)
//
// Trees persist across sessions with Save/Load — remembering feedback
// outcomes between sessions is the point of the technique.
//
// The packages under internal implement every substrate of the paper's
// evaluation: distance functions, relevance-feedback engines, HSV
// histogram extraction, a synthetic categorized image collection, k-NN
// query processing (an exact kernelized scan and an approximate IVF tier
// behind one Searcher interface), and the experiment harness reproducing
// Figures 1 and 9–16 (see DESIGN.md and internal/experiments).
package feedbackbypass

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/persist"
	"repro/internal/reduce"
	"repro/internal/shardedbypass"
	"repro/internal/simplextree"
)

// ErrOutOfDomain is returned (wrapped, errors.Is-able) by Predict and
// Insert for query points outside the module's domain simplex.
var ErrOutOfDomain = core.ErrOutOfDomain

// OQP is the pair of optimal query parameters of §3 of the paper: the
// offset Δopt from the initial to the optimal query point, and the
// distance-function parameters Wopt.
type OQP = core.OQP

// Config tunes a Bypass module (insert threshold ε, geometric tolerance,
// custom query domain, default weight parameters).
type Config = core.Config

// Bypass is the FeedbackBypass module: Predict (the paper's Mopt method)
// and Insert over a Simplex Tree. Predictions are pure reads and run in
// parallel; PredictBatch/InsertBatch amortize one lock acquisition over a
// whole batch.
type Bypass = core.Bypass

// DurableBypass is a Bypass whose accepted inserts are journaled to a
// write-ahead log before the tree mutates; recovery is snapshot + replay
// (see OpenDurable).
type DurableBypass = core.DurableBypass

// DurableOptions tunes DurableBypass compaction and fsync behaviour.
type DurableOptions = core.DurableOptions

// PredictStats reports per-prediction lookup measurements (simplices
// traversed — the Figure 16 series).
type PredictStats = simplextree.PredictStats

// HistogramCodec maps between full normalized histograms (with one weight
// per bin) and the module's reduced query domain: the last bin is dropped
// and the last weight pinned to 1, exactly Example 1 of the paper. Weights
// travel in a log-ratio parameterization (see the core package docs).
type HistogramCodec = core.HistogramCodec

// TreeStats summarizes the Simplex Tree's shape (points, leaves, depth,
// average leaf depth).
type TreeStats = simplextree.Stats

// QuadraticCodec serves the quadratic (Mahalanobis) distance class of §2:
// OQPs carry a symmetric weight matrix flattened to D·(D+1)/2 parameters;
// interpolated matrices are projected back onto the PSD cone at decode
// time.
type QuadraticCodec = core.QuadraticCodec

// ReducedBypass is a module whose query domain has been PCA-reduced (the
// paper's §3 future-work direction); see Reducer.
type ReducedBypass = core.ReducedBypass

// Reducer fits PCA on sample query points and maps queries into [0,1]^k.
type Reducer = reduce.Reducer

// NewQuadraticCodec returns a codec for the quadratic distance class over
// features in [0,1]^dim (pair it with Config.Domain = CoveringSimplex(dim)
// and Config.DefaultWeights = codec.DefaultWeights()).
func NewQuadraticCodec(dim int) (QuadraticCodec, error) { return core.NewQuadraticCodec(dim) }

// FitReducer fits a k-dimensional PCA reducer on sample query points.
func FitReducer(samples [][]float64, k int) (*Reducer, error) { return reduce.Fit(samples, k) }

// NewReduced builds a module over a PCA-reduced query domain: queries are
// projected to the reducer's k dimensions while OQPs keep their full
// dimensionality (D-dimensional offsets, P weight parameters).
func NewReduced(r *Reducer, d, p int, cfg Config) (*ReducedBypass, error) {
	return core.NewReduced(r, d, p, cfg)
}

// Domain constructors for Config.Domain.
var (
	// StandardSimplex returns the simplex spanned by 0, e1, …, ed — the
	// query domain of normalized-histogram features with the last bin
	// dropped (§4.1).
	StandardSimplex = geom.StandardSimplex
	// CoveringSimplex returns the corner simplex 0, d·e1, …, d·ed, which
	// covers the unit hypercube [0,1]^d (§4.1).
	CoveringSimplex = geom.CoveringSimplex
)

// New creates a FeedbackBypass module for a D-dimensional query domain
// with P distance-function parameters.
func New(d, p int, cfg Config) (*Bypass, error) { return core.New(d, p, cfg) }

// ShardedBypass partitions the learned mapping across S independent
// Simplex Trees (each with its own lock and, in durable mode, its own
// WAL and snapshot), so insert throughput scales with partitions and an
// insert invalidates only its shard. S = 1 behaves bitwise-identically
// to a single tree. See internal/shardedbypass for the layout and
// recovery contract.
type ShardedBypass = shardedbypass.Sharded

// ShardedOptions tunes a ShardedBypass (shard count, per-shard WAL
// behaviour).
type ShardedOptions = shardedbypass.Options

// ErrShardReplaying is returned (wrapped, errors.Is-able) by sharded
// operations routed to a shard whose startup recovery has not finished;
// it is retryable.
var ErrShardReplaying = shardedbypass.ErrReplaying

// NewSharded creates an in-memory S-way partitioned module.
func NewSharded(d, p int, cfg Config, opts ShardedOptions) (*ShardedBypass, error) {
	return shardedbypass.New(d, p, cfg, opts)
}

// OpenSharded opens (or initializes) a durable sharded module rooted at
// dir, recovering every shard in parallel. The shard count is pinned by
// the directory's manifest: reopening with a different count fails.
func OpenSharded(dir string, d, p int, cfg Config, opts ShardedOptions) (*ShardedBypass, error) {
	return shardedbypass.Open(dir, d, p, cfg, opts)
}

// OpenDurable opens (or initializes) a crash-safe module rooted at dir:
// accepted inserts are journaled to a write-ahead log, recovery replays
// the journal on top of the latest snapshot, and compaction keeps the
// journal short. See core.DurableBypass for the consistency contract.
func OpenDurable(dir string, d, p int, cfg Config, opts DurableOptions) (*DurableBypass, error) {
	return core.OpenDurable(dir, d, p, cfg, opts)
}

// NewHistogramCodec returns the codec for normalized histograms with the
// given number of bins.
func NewHistogramCodec(bins int) (HistogramCodec, error) { return core.NewHistogramCodec(bins) }

// NewForHistograms wires a Bypass and its codec for normalized-histogram
// features in one call: D = P = bins−1, standard-simplex domain, log-ratio
// default weights. Only Epsilon and Tol of cfg are consulted.
func NewForHistograms(bins int, cfg Config) (*Bypass, HistogramCodec, error) {
	codec, err := core.NewHistogramCodec(bins)
	if err != nil {
		return nil, HistogramCodec{}, err
	}
	b, err := core.New(codec.D(), codec.P(), Config{
		Epsilon:        cfg.Epsilon,
		Tol:            cfg.Tol,
		DefaultWeights: codec.DefaultWeights(),
	})
	if err != nil {
		return nil, HistogramCodec{}, err
	}
	return b, codec, nil
}

// Save writes the module's Simplex Tree to w in the versioned, checksummed
// binary format of package persist.
func Save(w io.Writer, b *Bypass) error {
	if b == nil {
		return fmt.Errorf("feedbackbypass: nil module")
	}
	return persist.Save(w, b.Tree())
}

// SaveFile writes the module's Simplex Tree to the named file.
func SaveFile(path string, b *Bypass) error {
	if b == nil {
		return fmt.Errorf("feedbackbypass: nil module")
	}
	return persist.SaveFile(path, b.Tree())
}

// Load reads a Simplex Tree from r and wraps it as a Bypass with p
// distance-function parameters (the stored vectors must have length D+p).
func Load(r io.Reader, p int) (*Bypass, error) {
	tree, err := persist.Load(r)
	if err != nil {
		return nil, err
	}
	return core.FromTree(tree, p)
}

// LoadFile reads a Simplex Tree from the named file.
func LoadFile(path string, p int) (*Bypass, error) {
	tree, err := persist.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return core.FromTree(tree, p)
}
