package experiments

import (
	"testing"

	"repro/internal/eval"
)

// sharedSession runs one small session for the whole test file (building
// the dataset and replaying feedback loops is the expensive part).
var sharedSession *Session

// testConfig is a fast, small-scale configuration exercising the code
// paths of the paper's operating point (seed 1, scale 1, 1000 queries,
// k = 50, ε = 0.05).
func testConfig() Config {
	return Config{
		Seed:           7,
		Scale:          0.04,
		NumQueries:     40,
		K:              10,
		Epsilon:        0.05,
		MeasureSavings: true,
	}
}

func getSession(t *testing.T) *Session {
	t.Helper()
	if sharedSession != nil {
		return sharedSession
	}
	cfg := testConfig()
	cfg.NumQueries = 80
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	sharedSession = s
	return s
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Scale: 0, NumQueries: 1, K: 1},
		{Scale: 1, NumQueries: 0, K: 1},
		{Scale: 1, NumQueries: 1, K: 0},
		{Scale: 1, NumQueries: 1, K: 1, Epsilon: -1},
	}
	for i, cfg := range bad {
		if _, err := NewSession(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

func TestSessionRecordsComplete(t *testing.T) {
	s := getSession(t)
	if len(s.Records) != s.Config.NumQueries {
		t.Fatalf("records = %d, want %d", len(s.Records), s.Config.NumQueries)
	}
	for i, r := range s.Records {
		if r.Position != i+1 {
			t.Errorf("record %d has position %d", i, r.Position)
		}
		if r.K != s.Config.K || r.Relevant <= 0 {
			t.Errorf("record %d: K=%d relevant=%d", i, r.K, r.Relevant)
		}
		if r.GoodDefault < 0 || r.GoodDefault > r.K {
			t.Errorf("record %d: GoodDefault=%d", i, r.GoodDefault)
		}
		if r.ItersFromDefault < 0 || r.ItersFromPredicted < 0 {
			t.Errorf("record %d: iteration counts %d, %d", i, r.ItersFromDefault, r.ItersFromPredicted)
		}
		if r.Traversed < 1 {
			t.Errorf("record %d: traversed %d", i, r.Traversed)
		}
		if r.TreeDepth < 1 || r.TreeLeaves < 1 {
			t.Errorf("record %d: tree shape depth=%d leaves=%d", i, r.TreeDepth, r.TreeLeaves)
		}
	}
}

// The headline result of the paper: feedback improves over default, and
// FeedbackBypass predictions for new queries close a meaningful part of
// that gap (Figure 10 ordering: AlreadySeen ≥ FeedbackBypass ≥ Default on
// average, with strict improvement for the learned strategies).
func TestScenarioOrdering(t *testing.T) {
	s := getSession(t)
	// Evaluate over the second half of the stream, after the tree has had
	// a chance to learn.
	half := s.Records[len(s.Records)/2:]
	var def, fb, seen float64
	for _, r := range half {
		def += r.PrecisionDefault()
		fb += r.PrecisionBypass()
		seen += r.PrecisionSeen()
	}
	n := float64(len(half))
	def, fb, seen = def/n, fb/n, seen/n
	t.Logf("avg precision: default=%.3f bypass=%.3f alreadySeen=%.3f", def, fb, seen)
	if seen <= def {
		t.Errorf("feedback loop does not improve over default: %.3f vs %.3f", seen, def)
	}
	if fb <= def {
		t.Errorf("FeedbackBypass predictions do not improve over default: %.3f vs %.3f", fb, def)
	}
	if seen < fb {
		t.Errorf("AlreadySeen %.3f below FeedbackBypass %.3f", seen, fb)
	}
}

// Figure 15's premise. At this micro scale the training stream contains no
// repeats, so we assert (a) new-query predictions cost at most marginally
// more cycles than defaults, and (b) replaying an already-trained query
// from its prediction converges at least as fast as from defaults — the
// deterministic core of the savings claim.
func TestSavedCycles(t *testing.T) {
	s := getSession(t)
	half := s.Records[len(s.Records)/2:]
	var saved float64
	for _, r := range half {
		saved += float64(eval.SavedCycles(r.ItersFromDefault, r.ItersFromPredicted))
	}
	saved /= float64(len(half))
	t.Logf("avg saved cycles for new queries (2nd half) = %.2f", saved)
	if saved < -0.75 {
		t.Errorf("predictions cost substantially more cycles: %.2f", saved)
	}
	// Replay trained queries: prediction is (near-)exact.
	replayed, savedTotal := 0, 0
	for _, r := range s.Records[:10] {
		item := s.DS.Items[r.ItemIndex]
		qp, err := s.Codec.QueryPoint(item.Feature)
		if err != nil {
			t.Fatal(err)
		}
		oqp, err := s.Bypass.Predict(qp)
		if err != nil {
			t.Fatal(err)
		}
		qPred, wPred, err := s.Codec.DecodeOQP(item.Feature, oqp)
		if err != nil {
			t.Fatal(err)
		}
		fromPred, err := OracleLoop(s.Engine, item.Category, qPred, wPred, s.Config.K)
		if err != nil {
			t.Fatal(err)
		}
		fromDef, err := OracleLoop(s.Engine, item.Category, item.Feature, s.Engine.UniformWeights(), s.Config.K)
		if err != nil {
			t.Fatal(err)
		}
		replayed++
		savedTotal += eval.SavedCycles(fromDef.Rounds(), fromPred.Rounds())
	}
	t.Logf("replayed %d trained queries, total saved cycles = %d", replayed, savedTotal)
	if savedTotal < 0 {
		t.Errorf("replaying trained queries saved %d cycles, want ≥ 0", savedTotal)
	}
}

func TestTreeGrowthBounded(t *testing.T) {
	s := getSession(t)
	last := s.Records[len(s.Records)-1]
	if last.TreePoints == 0 {
		t.Error("tree learned nothing")
	}
	if last.TreePoints > s.Config.NumQueries {
		t.Errorf("tree stored %d points for %d queries", last.TreePoints, s.Config.NumQueries)
	}
	// Depth must stay far below the stored-point count (logarithmic-ish
	// growth, Figure 16).
	if last.TreeDepth > last.TreePoints/2+2 {
		t.Errorf("depth %d too close to point count %d", last.TreeDepth, last.TreePoints)
	}
}

func TestProcessQueryValidation(t *testing.T) {
	s := getSession(t)
	if _, err := s.ProcessQuery(-1); err == nil {
		t.Error("negative index should error")
	}
	if _, err := s.ProcessQuery(s.DS.Len()); err == nil {
		t.Error("out-of-range index should error")
	}
}
