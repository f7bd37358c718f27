// Package experiments reproduces the evaluation of §5: it builds the
// synthetic IMSI-like collection, processes query streams through the
// interactive engine with FeedbackBypass attached, and provides one driver
// per figure of the paper (Figures 1 and 9–16). cmd/fbbench prints the
// resulting series; bench_test.go wraps the drivers as benchmarks;
// DESIGN.md records the measured shapes.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/feedback"
	"repro/internal/histogram"
	"repro/internal/imagegen"
	"repro/internal/knn"
)

// Config drives a training/evaluation session.
type Config struct {
	// Seed makes the whole session deterministic.
	Seed int64
	// Scale multiplies the paper's collection cardinalities (1 = ~10,000
	// images; tests use a small fraction).
	Scale float64
	// NumQueries is the length of the training query stream (paper: 1000).
	NumQueries int
	// K is the number of results retrieved per query (paper default: 50).
	K int
	// Epsilon is the Simplex Tree insert threshold ε.
	Epsilon float64
	// MeasureSavings additionally replays each feedback loop from the
	// predicted parameters, enabling the Figure 15 metrics (doubles the
	// loop cost).
	MeasureSavings bool
	// Feedback selects the relevance-feedback strategy (paper default
	// when zero).
	Feedback feedback.Options
}

func (c Config) validate() error {
	if c.Scale <= 0 {
		return fmt.Errorf("experiments: scale must be positive, got %v", c.Scale)
	}
	if c.NumQueries <= 0 {
		return fmt.Errorf("experiments: need at least one query, got %d", c.NumQueries)
	}
	if c.K <= 0 {
		return fmt.Errorf("experiments: k must be positive, got %d", c.K)
	}
	if c.Epsilon < 0 {
		return fmt.Errorf("experiments: negative epsilon %v", c.Epsilon)
	}
	return nil
}

// QueryRecord captures everything measured while processing one query.
type QueryRecord struct {
	Position  int // 1-based position in the stream
	ItemIndex int
	Category  string
	K         int
	Relevant  int // category size (recall denominator)

	GoodDefault int // relevant results with default parameters
	GoodBypass  int // relevant results with predicted parameters
	GoodSeen    int // relevant results with the converged optimal parameters

	ItersFromDefault   int // rounds (engine.Loop.Rounds) starting from default parameters
	ItersFromPredicted int // rounds starting from predicted (−1 if not measured)

	Traversed  int // simplices traversed by the prediction
	TreeDepth  int
	TreePoints int
	TreeLeaves int

	Inserted bool // whether the OQPs were stored
}

// PrecisionDefault returns GoodDefault/K.
func (r QueryRecord) PrecisionDefault() float64 { return float64(r.GoodDefault) / float64(r.K) }

// PrecisionBypass returns GoodBypass/K.
func (r QueryRecord) PrecisionBypass() float64 { return float64(r.GoodBypass) / float64(r.K) }

// PrecisionSeen returns GoodSeen/K.
func (r QueryRecord) PrecisionSeen() float64 { return float64(r.GoodSeen) / float64(r.K) }

// RecallDefault returns GoodDefault/Relevant.
func (r QueryRecord) RecallDefault() float64 { return float64(r.GoodDefault) / float64(r.Relevant) }

// RecallBypass returns GoodBypass/Relevant.
func (r QueryRecord) RecallBypass() float64 { return float64(r.GoodBypass) / float64(r.Relevant) }

// RecallSeen returns GoodSeen/Relevant.
func (r QueryRecord) RecallSeen() float64 { return float64(r.GoodSeen) / float64(r.Relevant) }

// Session wires the dataset, engine and FeedbackBypass module together and
// records per-query measurements.
type Session struct {
	Config  Config
	DS      *dataset.Dataset
	Engine  *engine.Engine
	Bypass  *core.Bypass
	Codec   core.HistogramCodec
	Records []QueryRecord

	rng     *rand.Rand
	queries []int // sampled query stream
}

// NewSession builds the collection and components without processing any
// queries.
func NewSession(cfg Config) (*Session, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ds, err := dataset.Build(imagegen.IMSILike(cfg.Seed, cfg.Scale), histogram.DefaultExtractor)
	if err != nil {
		return nil, err
	}
	return newSessionOver(cfg, ds)
}

// NewSessionOver reuses an existing dataset (several figures compare
// sessions over the same collection).
func NewSessionOver(cfg Config, ds *dataset.Dataset) (*Session, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return newSessionOver(cfg, ds)
}

func newSessionOver(cfg Config, ds *dataset.Dataset) (*Session, error) {
	eng, err := engine.New(ds, engine.Options{Feedback: cfg.Feedback})
	if err != nil {
		return nil, err
	}
	codec, err := core.NewHistogramCodec(ds.Dim)
	if err != nil {
		return nil, err
	}
	bypass, err := core.New(codec.D(), codec.P(), core.Config{
		Epsilon:        cfg.Epsilon,
		DefaultWeights: codec.DefaultWeights(),
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1000))
	queries, err := ds.SampleQueries(rng, cfg.NumQueries)
	if err != nil {
		return nil, err
	}
	return &Session{
		Config:  cfg,
		DS:      ds,
		Engine:  eng,
		Bypass:  bypass,
		Codec:   codec,
		rng:     rng,
		queries: queries,
	}, nil
}

// Run processes the full query stream.
func (s *Session) Run() error {
	for _, itemIdx := range s.queries {
		if _, err := s.ProcessQuery(itemIdx); err != nil {
			return err
		}
	}
	return nil
}

// ProcessQuery runs the complete per-query protocol of §5:
//
//  1. predict OQPs for the query from the current tree (FeedbackBypass);
//  2. measure first-round precision under default and predicted
//     parameters;
//  3. run the feedback loop to convergence from the default parameters
//     (the training signal) and measure its final precision (AlreadySeen);
//  4. optionally replay the loop from the predicted parameters to measure
//     saved cycles;
//  5. insert the converged OQPs into the tree.
func (s *Session) ProcessQuery(itemIdx int) (QueryRecord, error) {
	if itemIdx < 0 || itemIdx >= s.DS.Len() {
		return QueryRecord{}, fmt.Errorf("experiments: item index %d out of range", itemIdx)
	}
	item := s.DS.Items[itemIdx]
	k := s.Config.K
	rec := QueryRecord{
		Position:           len(s.Records) + 1,
		ItemIndex:          itemIdx,
		Category:           item.Category,
		K:                  k,
		Relevant:           s.DS.Relevant(item.Category),
		ItersFromPredicted: -1,
	}
	q := item.Feature
	uniform := s.Engine.UniformWeights()

	// (1) Predict OQPs — always for a query whose own optimum has not yet
	// been inserted at this position (records measure never-seen-before
	// behaviour as positions increase).
	qp, err := s.Codec.QueryPoint(q)
	if err != nil {
		return rec, err
	}
	oqp, pst, err := s.Bypass.PredictWithStats(qp)
	if err != nil {
		return rec, err
	}
	rec.Traversed = pst.Traversed
	qPred, wPred, err := s.Codec.DecodeOQP(q, oqp)
	if err != nil {
		return rec, err
	}

	// (2) First-round retrieval under default and predicted parameters.
	firstDefault, err := s.Engine.Retrieve(q, uniform, k)
	if err != nil {
		return rec, err
	}
	firstBypass, err := s.Engine.Retrieve(qPred, wPred, k)
	if err != nil {
		return rec, err
	}
	rec.GoodDefault = s.Engine.GoodCount(item.Category, firstDefault)
	rec.GoodBypass = s.Engine.GoodCount(item.Category, firstBypass)

	// (3) Feedback loop from the default parameters.
	loop, err := OracleLoop(s.Engine, item.Category, q, uniform, k)
	if err != nil {
		return rec, err
	}
	rec.ItersFromDefault = loop.Rounds()
	rec.GoodSeen = s.Engine.GoodCount(item.Category, loop.Results())

	// (4) Replay from predicted parameters for the savings metrics.
	if s.Config.MeasureSavings {
		fromPred, err := OracleLoop(s.Engine, item.Category, qPred, wPred, k)
		if err != nil {
			return rec, err
		}
		rec.ItersFromPredicted = fromPred.Rounds()
	}

	// (5) Store the converged OQPs — skipped entirely when the loop left
	// the parameters where it started (Figure 5: "if(vPred != v)").
	if loop.Moved() {
		qOpt, wOpt := loop.Params()
		stored, err := s.Codec.EncodeOQP(q, qOpt, wOpt)
		if err != nil {
			return rec, err
		}
		rec.Inserted, err = s.Bypass.Insert(qp, stored)
		if err != nil {
			return rec, err
		}
	}
	st := s.Bypass.Stats()
	rec.TreeDepth = st.Depth
	rec.TreePoints = st.Points
	rec.TreeLeaves = st.Leaves
	s.Records = append(s.Records, rec)
	return rec, nil
}

// OracleLoop runs one feedback loop from (q, w) to its end with the
// category oracle of §5 judging every round in place of the user.
func OracleLoop(eng *engine.Engine, category string, q, w []float64, k int) (*engine.Loop, error) {
	loop, err := eng.Start(q, w, k, engine.DefaultMaxIterations)
	if err != nil {
		return nil, err
	}
	for !loop.Done() {
		if err := loop.Step(context.Background(), eng.Score(category, loop.Results())); err != nil {
			return nil, err
		}
	}
	return loop, nil
}

// SampleEvalQueries draws n fresh evaluation queries (uniformly from the
// query categories) using the session's RNG stream.
func (s *Session) SampleEvalQueries(n int) ([]int, error) {
	return s.DS.SampleQueries(s.rng, n)
}

// EvalCounts holds, for one evaluated query, the number of good matches
// among the top r results (one entry per requested r) under the three
// scenarios: default parameters, predicted parameters, and the optimal
// parameters from a converged loop.
type EvalCounts struct {
	GoodDefault []int
	GoodBypass  []int
	GoodSeen    []int
}

// EvaluateManyAtK evaluates a batch of query items against the trained
// tree. The evaluation loop is read-only with respect to the Simplex
// Tree, so all Mopt predictions for the batch are answered by one
// Bypass.PredictBatch call — a single read-lock acquisition sharded
// across goroutines — before the per-item retrievals run.
func (s *Session) EvaluateManyAtK(itemIdxs []int, rs []int) ([]EvalCounts, error) {
	maxR := 0
	for _, r := range rs {
		if r <= 0 {
			return nil, errors.New("experiments: retrieved-object counts must be positive")
		}
		if r > maxR {
			maxR = r
		}
	}
	qps := make([][]float64, len(itemIdxs))
	for i, itemIdx := range itemIdxs {
		if itemIdx < 0 || itemIdx >= s.DS.Len() {
			return nil, fmt.Errorf("experiments: item index %d out of range", itemIdx)
		}
		qp, err := s.Codec.QueryPoint(s.DS.Items[itemIdx].Feature)
		if err != nil {
			return nil, err
		}
		qps[i] = qp
	}
	oqps, err := s.Bypass.PredictBatch(qps)
	if err != nil {
		return nil, err
	}
	uniform := s.Engine.UniformWeights()
	out := make([]EvalCounts, len(itemIdxs))
	for i, itemIdx := range itemIdxs {
		item := s.DS.Items[itemIdx]
		q := item.Feature
		qPred, wPred, err := s.Codec.DecodeOQP(q, oqps[i])
		if err != nil {
			return nil, err
		}
		loop, err := OracleLoop(s.Engine, item.Category, q, uniform, s.Config.K)
		if err != nil {
			return nil, err
		}
		qOpt, wOpt := loop.Params()
		// The three scenarios: default, predicted and converged parameters.
		var scenario [3][]int
		for j, p := range [3][2][]float64{{q, uniform}, {qPred, wPred}, {qOpt, wOpt}} {
			res, err := s.Engine.Retrieve(p[0], p[1], maxR)
			if err != nil {
				return nil, err
			}
			scenario[j] = knn.Indices(res)
		}
		countTop := func(resIdx []int, r int) int {
			n := 0
			for j := 0; j < r && j < len(resIdx); j++ {
				if s.DS.IsGood(resIdx[j], item.Category) {
					n++
				}
			}
			return n
		}
		for _, r := range rs {
			out[i].GoodDefault = append(out[i].GoodDefault, countTop(scenario[0], r))
			out[i].GoodBypass = append(out[i].GoodBypass, countTop(scenario[1], r))
			out[i].GoodSeen = append(out[i].GoodSeen, countTop(scenario[2], r))
		}
	}
	return out, nil
}

// SeriesByScenario bundles the three per-scenario curves most figures
// plot.
type SeriesByScenario struct {
	Default     *eval.Series
	Bypass      *eval.Series
	AlreadySeen *eval.Series
}
