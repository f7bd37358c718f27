package feedbackbypass_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/histogram"
	"repro/internal/httpapi"
	"repro/internal/imagegen"
)

// The served-effect operating point, fixed before any shape was run: a
// scale-0.3 collection, fbserve's ε, a first page of 15, a stream of 400
// training queries scored at four points of its learning curve on 150
// held-out queries, three seeds.
const (
	effectScale   = 0.3
	effectEpsilon = 0.05
	effectK       = 15
	effectTrain   = 400
	effectEval    = 150
	effectSeeds   = 3
)

// effectCheckpoints are the training-stream positions at which the
// held-out queries are scored: Figure 10's gain is a learning curve, and
// a shape that learns more slowly shows on it before the curve flattens.
var effectCheckpoints = []int{50, 100, 200, 400}

// effect is one trained module's score on the held-out queries, averaged
// over the checkpoints: the first-page gain in good results over
// engine.Retrieve with uniform weights, and the feedback rounds saved
// against a loop started from those defaults.
type effect struct{ gain, saved float64 }

// learner is one module under test: learn feeds it one training query;
// score reports one held-out query's good results on the first page and
// the rounds its session needs, without teaching the module anything.
type learner interface {
	learn(t *testing.T, idx int)
	score(t *testing.T, idx int) (good, rounds int)
}

// effectStream is one seed's collection, training stream and held-out
// queries, with each held-out query's default first page and rounds.
type effectStream struct {
	seed        int64
	ds          *dataset.Dataset
	eng         *engine.Engine
	train, eval []int
	defGood     []int
	defRounds   []int
}

func newEffectStream(t *testing.T, seed int64) *effectStream {
	t.Helper()
	ds, err := dataset.Build(imagegen.IMSILike(seed, effectScale), histogram.DefaultExtractor)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(ds, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := &effectStream{seed: seed, ds: ds, eng: eng}
	rng := rand.New(rand.NewSource(seed))
	if st.train, err = ds.SampleQueries(rng, effectTrain); err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool, effectTrain)
	for _, idx := range st.train {
		seen[idx] = true
	}
	for len(st.eval) < effectEval {
		draw, err := ds.SampleQueries(rng, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !seen[draw[0]] {
			seen[draw[0]] = true
			st.eval = append(st.eval, draw[0])
		}
	}
	uniform := eng.UniformWeights()
	for _, idx := range st.eval {
		item := ds.Items[idx]
		first, err := eng.Retrieve(item.Feature, uniform, effectK)
		if err != nil {
			t.Fatal(err)
		}
		loop, err := experiments.OracleLoop(eng, item.Category, item.Feature, uniform, effectK)
		if err != nil {
			t.Fatal(err)
		}
		st.defGood = append(st.defGood, eng.GoodCount(item.Category, first))
		st.defRounds = append(st.defRounds, loop.Rounds())
	}
	return st
}

// curve trains l on the stream and scores the held-out queries at every
// checkpoint.
func (st *effectStream) curve(t *testing.T, l learner) effect {
	t.Helper()
	var e effect
	next := 0
	for i, idx := range st.train {
		l.learn(t, idx)
		if next < len(effectCheckpoints) && i+1 == effectCheckpoints[next] {
			next++
			for j, idx := range st.eval {
				good, rounds := l.score(t, idx)
				e.gain += float64(good - st.defGood[j])
				e.saved += float64(st.defRounds[j] - rounds)
			}
		}
	}
	n := float64(len(effectCheckpoints) * len(st.eval))
	return effect{e.gain / n, e.saved / n}
}

// figuresLearner is the reference: the figures' single core.New tree,
// trained by experiments.Session's per-query protocol.
type figuresLearner struct{ s *experiments.Session }

func (st *effectStream) reference(t *testing.T) (*figuresLearner, error) {
	s, err := experiments.NewSessionOver(experiments.Config{
		Seed: st.seed, Scale: effectScale, NumQueries: effectTrain, K: effectK, Epsilon: effectEpsilon,
	}, st.ds)
	return &figuresLearner{s}, err
}

func (f *figuresLearner) learn(t *testing.T, idx int) {
	if _, err := f.s.ProcessQuery(idx); err != nil {
		t.Fatal(err)
	}
}

func (f *figuresLearner) score(t *testing.T, idx int) (int, int) {
	s := f.s
	item := s.DS.Items[idx]
	qp, err := s.Codec.QueryPoint(item.Feature)
	if err != nil {
		t.Fatal(err)
	}
	oqp, err := s.Bypass.Predict(qp)
	if err != nil {
		t.Fatal(err)
	}
	q, w, err := s.Codec.DecodeOQP(item.Feature, oqp)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Engine.Retrieve(q, w, effectK)
	if err != nil {
		t.Fatal(err)
	}
	loop, err := experiments.OracleLoop(s.Engine, item.Category, q, w, effectK)
	if err != nil {
		t.Fatal(err)
	}
	return s.Engine.GoodCount(item.Category, first), loop.Rounds()
}

// servedLearner is a collection assembled as fbserve assembles it,
// trained through its service: every training query is one session the
// oracle user runs to convergence and closes. A held-out query is a
// session left open, so it teaches the module nothing.
type servedLearner struct {
	c   *httpapi.Collection
	eng *engine.Engine
}

func (l *servedLearner) session(t *testing.T, idx int) (good, rounds int, id uint64) {
	ctx := context.Background()
	item := l.c.Dataset.Items[idx]
	s, err := l.c.Service.Open(ctx, item.Feature, effectK)
	if err != nil {
		t.Fatal(err)
	}
	good = l.eng.GoodCount(item.Category, s.Results)
	for !s.Converged {
		if s, err = l.c.Service.Feedback(ctx, s.ID, l.eng.Score(item.Category, s.Results)); err != nil {
			t.Fatal(err)
		}
	}
	return good, s.Iterations, s.ID
}

func (l *servedLearner) learn(t *testing.T, idx int) {
	_, _, id := l.session(t, idx)
	// A full quota refuses the outcome (fbserve's 507) while the session
	// itself closes: the shape learns less, as served.
	if _, err := l.c.Service.Close(context.Background(), id); err != nil && !errors.Is(err, core.ErrQuotaExceeded) {
		t.Fatal(err)
	}
}

func (l *servedLearner) score(t *testing.T, idx int) (int, int) {
	good, rounds, _ := l.session(t, idx)
	return good, rounds
}

// TestBypassEffectEveryServedShape holds every configuration fbserve
// serves to the paper's effect: predicted parameters must lift the first
// page of held-out queries about as much as the figures' single tree
// trained on the same stream does. The bar is set from the reference
// alone, before any shape runs: a shape's gain, averaged over the seeds,
// must reach the reference's mean gain less the reference's own spread
// across seeds (max − min). Rounds saved are reported, not barred: they
// are small and noisy at this size.
func TestBypassEffectEveryServedShape(t *testing.T) {
	streams := make([]*effectStream, effectSeeds)
	var refMean, refMin, refMax, refSaved float64
	for i := range streams {
		st := newEffectStream(t, int64(i+1))
		streams[i] = st
		ref, err := st.reference(t)
		if err != nil {
			t.Fatal(err)
		}
		e := st.curve(t, ref)
		t.Logf("reference seed %d: gain %+.3f, rounds saved %+.3f, %d stored points",
			st.seed, e.gain, e.saved, ref.s.Bypass.Stats().Points)
		refMean += e.gain / effectSeeds
		refSaved += e.saved / effectSeeds
		if i == 0 || e.gain < refMin {
			refMin = e.gain
		}
		if i == 0 || e.gain > refMax {
			refMax = e.gain
		}
	}
	bar := refMean - (refMax - refMin)
	share := bar / refMean
	t.Logf("reference: mean gain %+.3f, spread %.3f, rounds saved %+.3f; bar %+.3f (%.0f%% of the reference)",
		refMean, refMax-refMin, refSaved, bar, 100*share)
	if share < 0.5 {
		t.Fatalf("the reference spreads too widely across seeds (bar at %.0f%% of its gain) to tell a shape that halves the effect", 100*share)
	}

	// Aging's horizon is a quarter of the training stream, so its
	// compactions reclaim vertices the stream has left behind; the quota
	// trips before the stream ends, and its compact-then-retry reclaims
	// what the horizon has left behind.
	corners := streams[0].ds.Dim
	shapes := []struct {
		name  string
		cfg   func(t *testing.T) httpapi.Config
		check func(t *testing.T, c *httpapi.Collection)
	}{
		{name: "memory", cfg: func(*testing.T) httpapi.Config { return httpapi.Config{} }},
		{name: "dir", cfg: func(t *testing.T) httpapi.Config {
			return httpapi.Config{Dir: t.TempDir(), CompactEvery: 512}
		}},
		{name: "aging", cfg: func(*testing.T) httpapi.Config {
			return httpapi.Config{AgeHorizon: effectTrain / 4, CompactEvery: effectTrain / 4}
		}, check: requireReclaimed},
		{name: "quota", cfg: func(t *testing.T) httpapi.Config {
			return httpapi.Config{Dir: t.TempDir(), CompactEvery: 512,
				MaxVertices: corners + 3*effectTrain/4, AgeHorizon: 5 * effectTrain / 8}
		}, check: requireCompactions},
	}
	for _, shape := range shapes {
		var mean, saved float64
		for _, st := range streams {
			cfg := shape.cfg(t)
			cfg.K, cfg.Epsilon = effectK, effectEpsilon
			c, err := httpapi.Assemble(st.ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			e := st.curve(t, &servedLearner{c: c, eng: st.eng})
			if shape.check != nil {
				shape.check(t, c)
			}
			c.Shutdown()
			t.Logf("%s seed %d: gain %+.3f, rounds saved %+.3f", shape.name, st.seed, e.gain, e.saved)
			mean += e.gain / effectSeeds
			saved += e.saved / effectSeeds
		}
		t.Logf("%s: mean gain %+.3f (%.0f%% of the reference), rounds saved %+.3f", shape.name, mean, 100*mean/refMean, saved)
		if mean < bar {
			t.Errorf("%s: mean first-page gain %+.3f is below the bar %+.3f (%.0f%% of the reference's %+.3f)",
				shape.name, mean, bar, 100*share, refMean)
		}
	}
}

// requireReclaimed fails a shape meant to age whose compactions never
// reclaimed a vertex.
func requireReclaimed(t *testing.T, c *httpapi.Collection) {
	t.Helper()
	requireCompactions(t, c)
	if c.Bypass.Reclaimed() == 0 {
		t.Error("the shape's compactions never reclaimed a vertex")
	}
	t.Logf("%d compactions reclaimed %d vertices", c.Bypass.Compactions(), c.Bypass.Reclaimed())
}

// requireCompactions fails a shape meant to compact whose module never
// ran an aged compaction.
func requireCompactions(t *testing.T, c *httpapi.Collection) {
	t.Helper()
	if c.Bypass.Compactions() == 0 {
		t.Error("the shape never compacted")
	}
}
