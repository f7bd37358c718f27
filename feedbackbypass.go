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
// Trees persist across sessions — remembering feedback outcomes between
// sessions is the point of the technique: a module opened with
// OpenDurable journals every accepted insert to a log in its directory,
// Close keeps it, and the next OpenDurable of that directory recovers it.
//
// The packages under internal implement every substrate of the paper's
// evaluation: the weighted Euclidean distance, the relevance-feedback
// step (the optimal query-point movement and 1/σ² re-weighting of
// [ISF98]), HSV histogram extraction, a synthetic categorized image
// collection, k-NN query processing (an exact kernelized scan behind one
// Searcher interface), and the experiment harness reproducing Figures 1
// and 9–16 (see DESIGN.md and internal/experiments).
package feedbackbypass

import "repro/internal/core"

// ErrOutOfDomain is returned (wrapped, errors.Is-able) by Predict and
// Insert for query points outside the module's domain simplex.
var ErrOutOfDomain = core.ErrOutOfDomain

// OQP is the pair of optimal query parameters of §3 of the paper: the
// offset Δopt from the initial to the optimal query point, and the
// distance-function parameters Wopt.
type OQP = core.OQP

// Config tunes a Bypass module (insert threshold ε, geometric tolerance,
// default weight parameters, resource quotas, aging).
type Config = core.Config

// Bypass is the FeedbackBypass module: Predict (the paper's Mopt method)
// and Insert over a Simplex Tree, one query per call. Predictions are
// pure reads, each on its caller's goroutine, and any number run in
// parallel; writes (Insert, Compact, Close) serialize on one mutex. A
// module opened with a directory journals its accepted inserts to a log
// there (see OpenDurable).
type Bypass = core.Bypass

// DurableOptions tunes a module's compaction trigger and, with a
// directory, its log's fsync behaviour.
type DurableOptions = core.DurableOptions

// HistogramCodec maps between full normalized histograms (with one weight
// per bin) and the module's reduced query domain: the last bin is dropped
// and the last weight pinned to 1, exactly Example 1 of the paper. Weights
// travel in a log-ratio parameterization (see the core package docs).
type HistogramCodec = core.HistogramCodec

// New creates a FeedbackBypass module for P distance-function parameters
// over the D-dimensional standard simplex spanned by 0, e1, …, eD — the
// query domain of normalized-histogram features with the last bin dropped
// (§4.1). Use it with a codec of one's own; NewForHistograms wires the
// paper's.
func New(d, p int, cfg Config) (*Bypass, error) { return core.New(d, p, cfg) }

// OpenDurable opens (or initializes) a crash-safe module rooted at dir:
// accepted inserts are journaled to a log after a census of the tree,
// recovery rebuilds the census and replays the journal, and compaction
// keeps the journal short. Close keeps the module for the next
// OpenDurable of dir. With dir "" it is New with a compaction trigger.
// See core.OpenDurable for the consistency contract.
func OpenDurable(dir string, d, p int, cfg Config, opts DurableOptions) (*Bypass, error) {
	return core.OpenDurable(dir, d, p, cfg, opts)
}

// NewForHistograms wires a Bypass and its codec for normalized-histogram
// features in one call: D = P = bins−1, standard-simplex domain, log-ratio
// default weights. Only Epsilon of cfg is consulted.
func NewForHistograms(bins int, cfg Config) (*Bypass, HistogramCodec, error) {
	codec, err := core.NewHistogramCodec(bins)
	if err != nil {
		return nil, HistogramCodec{}, err
	}
	b, err := core.New(codec.D(), codec.P(), Config{
		Epsilon:        cfg.Epsilon,
		DefaultWeights: codec.DefaultWeights(),
	})
	if err != nil {
		return nil, HistogramCodec{}, err
	}
	return b, codec, nil
}
