package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/feedback"
	"repro/internal/knn"
	"repro/internal/vec"
)

// clusteredDataset builds a small synthetic collection with two categories
// separable only on dimension 0, whose gap (0.45 vs 0.55) is small against
// the uniform noise on dimension 1 — so the default Euclidean ranking mixes
// the categories and re-weighting genuinely helps.
func clusteredDataset(t *testing.T, n int, seed int64) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var items []dataset.Item
	for i := 0; i < n; i++ {
		cat := "A"
		base := 0.45
		if i%2 == 1 {
			cat = "B"
			base = 0.55
		}
		items = append(items, dataset.Item{
			ID:       i,
			Category: cat,
			Feature:  []float64{base + rng.NormFloat64()*0.02, rng.Float64()},
		})
	}
	ds, err := dataset.FromItems(items, []string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Error("nil dataset should error")
	}
	ds := clusteredDataset(t, 10, 1)
	e, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Dataset() != ds {
		t.Error("Dataset accessor")
	}
	if !vec.Equal(e.UniformWeights(), []float64{1, 1}) {
		t.Error("UniformWeights")
	}
}

func TestRetrieveAndScore(t *testing.T) {
	ds := clusteredDataset(t, 40, 2)
	e, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Items[0].Feature // category A
	rs, err := e.Retrieve(q, e.UniformWeights(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 5 {
		t.Fatalf("got %d results", len(rs))
	}
	if rs[0].Index != 0 || rs[0].Distance != 0 {
		t.Errorf("self should be first: %+v", rs[0])
	}
	scores := e.Score("A", rs)
	if scores[0] != feedback.ScoreGood {
		t.Error("self should be good")
	}
	good := e.GoodCount("A", rs)
	count := 0
	for _, s := range scores {
		if s > 0 {
			count++
		}
	}
	if good != count {
		t.Errorf("GoodCount %d vs scores %d", good, count)
	}
	if _, err := e.Retrieve(q, []float64{-1, 1}, 5); err == nil {
		t.Error("invalid weights should error")
	}
}

// oracleLoop runs a loop from (q, w) to its end with the category oracle
// and returns it with the first result list.
func oracleLoop(t *testing.T, e *Engine, category string, q, w []float64, k, budget int) ([]knn.Result, *Loop) {
	t.Helper()
	l, err := e.Start(q, w, k, budget)
	if err != nil {
		t.Fatal(err)
	}
	first := l.Results()
	for !l.Done() {
		if err := l.Step(context.Background(), e.Score(category, l.Results())); err != nil {
			t.Fatal(err)
		}
	}
	return first, l
}

func TestRunLoopImprovesPrecision(t *testing.T) {
	ds := clusteredDataset(t, 200, 3)
	e, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := 20
	improvedSome := false
	for qi := 0; qi < 10; qi++ {
		item := ds.Items[qi]
		firstRes, l := oracleLoop(t, e, item.Category, item.Feature, e.UniformWeights(), k, DefaultMaxIterations)
		if l.Rounds() >= DefaultMaxIterations {
			t.Errorf("query %d did not converge", qi)
		}
		first := e.GoodCount(item.Category, firstRes)
		final := e.GoodCount(item.Category, l.Results())
		if final < first {
			t.Errorf("query %d: feedback degraded precision %d -> %d", qi, first, final)
		}
		if final > first {
			improvedSome = true
		}
		if q, w := l.Params(); len(q) != 2 || len(w) != 2 {
			t.Errorf("query %d: OQP dims", qi)
		}
	}
	if !improvedSome {
		t.Error("feedback never improved any query on a noisy dataset")
	}
}

func TestRunLoopOptimalWeightsFavorSignalDimension(t *testing.T) {
	ds := clusteredDataset(t, 300, 4)
	e, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	item := ds.Items[0]
	_, l := oracleLoop(t, e, item.Category, item.Feature, e.UniformWeights(), 30, DefaultMaxIterations)
	// Dimension 0 separates the categories (low variance among good
	// matches); dimension 1 is noise. The learned weights must reflect it.
	if _, w := l.Params(); w[0] <= w[1] {
		t.Errorf("weights = %v: signal dimension not favored", w)
	}
}

func TestRunLoopStartingFromOptimalConvergesImmediately(t *testing.T) {
	ds := clusteredDataset(t, 200, 5)
	e, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	item := ds.Items[2]
	k := 15
	_, l1 := oracleLoop(t, e, item.Category, item.Feature, e.UniformWeights(), k, DefaultMaxIterations)
	// Restart from the converged parameters: the first judgement finds the
	// list stable, and that terminal judgement is the restart's one round.
	q, w := l1.Params()
	_, l2 := oracleLoop(t, e, item.Category, q, w, k, DefaultMaxIterations)
	if l2.Rounds() != 1 {
		t.Errorf("restart took %d rounds, want 1", l2.Rounds())
	}
	if l2.Rounds() > l1.Rounds() {
		t.Error("restart should not need more rounds than the original loop")
	}
}

func TestRunLoopNoGoodMatches(t *testing.T) {
	ds := clusteredDataset(t, 50, 6)
	e, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Query for a category that exists nowhere near: oracle never fires.
	// The judgement with no good match is consumed and ends the loop.
	_, l := oracleLoop(t, e, "Nonexistent", ds.Items[0].Feature, e.UniformWeights(), 10, DefaultMaxIterations)
	if l.Rounds() != 1 || !l.Done() || l.Moved() {
		t.Errorf("loop without good matches: %d rounds, done %v, moved %v", l.Rounds(), l.Done(), l.Moved())
	}
	if q, _ := l.Params(); !vec.Equal(q, ds.Items[0].Feature) {
		t.Error("parameters should be unchanged")
	}
}

func TestRunLoopKValidation(t *testing.T) {
	ds := clusteredDataset(t, 20, 7)
	e, _ := New(ds, Options{})
	if _, err := e.Start(ds.Items[0].Feature, e.UniformWeights(), 0, DefaultMaxIterations); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := e.Start(ds.Items[0].Feature, e.UniformWeights(), 5, -1); err == nil {
		t.Error("negative budget should error")
	}
}

func TestRunLoopIterationBound(t *testing.T) {
	ds := clusteredDataset(t, 100, 8)
	e, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	item := ds.Items[0]
	_, l := oracleLoop(t, e, item.Category, item.Feature, e.UniformWeights(), 20, 1)
	if l.Rounds() != 1 || l.BudgetLeft() != 0 {
		t.Errorf("budget 1: %d rounds, %d left", l.Rounds(), l.BudgetLeft())
	}
	// A Step on a finished loop is a no-op.
	if err := l.Step(context.Background(), nil); err != nil || l.Rounds() != 1 {
		t.Errorf("Step past the budget: err %v, %d rounds", err, l.Rounds())
	}
}

func TestRunLoopWithRocchioAndMARS(t *testing.T) {
	ds := clusteredDataset(t, 150, 9)
	e, err := New(ds, Options{Feedback: feedback.Options{
		Movement:  feedback.MoveRocchio,
		Weighting: feedback.WeightMARS,
	}})
	if err != nil {
		t.Fatal(err)
	}
	item := ds.Items[1]
	firstRes, l := oracleLoop(t, e, item.Category, item.Feature, e.UniformWeights(), 15, DefaultMaxIterations)
	first := e.GoodCount(item.Category, firstRes)
	final := e.GoodCount(item.Category, l.Results())
	if final < first {
		t.Errorf("Rocchio+MARS degraded precision %d -> %d", first, final)
	}
}

func TestSignatureDistinguishesLists(t *testing.T) {
	a := []knn.Result{{Index: 1}, {Index: 2}, {Index: 3}}
	b := []knn.Result{{Index: 1}, {Index: 2}, {Index: 4}}
	c := []knn.Result{{Index: 3}, {Index: 2}, {Index: 1}}
	if signature(a) == signature(b) {
		t.Error("different index sets should hash differently")
	}
	if signature(a) == signature(c) {
		t.Error("order must matter: reversed list should hash differently")
	}
	if signature(a) != signature([]knn.Result{{Index: 1}, {Index: 2}, {Index: 3}}) {
		t.Error("equal lists must hash equally")
	}
	if signature(nil) != signature([]knn.Result{}) {
		t.Error("empty list hash must be stable")
	}
}

// BenchmarkFeedbackSignature measures the allocation-free FNV-1a cycle
// key that replaced the fmt.Fprintf string builder in the feedback loop.
func BenchmarkFeedbackSignature(b *testing.B) {
	results := make([]knn.Result, 50)
	for i := range results {
		results[i] = knn.Result{Index: i * 37}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= signature(results)
	}
	_ = sink
}

// TestZeroFeedbackOptionsSurvive pins the regression where engine.New
// compared opts.Feedback against feedback.Options{} and silently replaced
// a deliberate all-none configuration with the paper defaults. With the
// MoveDefault/WeightDefault zero values, Options{} still means "paper
// defaults" but an explicit MoveNone/WeightNone survives construction.
func TestZeroFeedbackOptionsSurvive(t *testing.T) {
	ds := clusteredDataset(t, 40, 2)

	def, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := def.fb.Name(); got != "move=optimal,weight=optimal-1/sigma2" {
		t.Errorf("zero Options resolved to %q, want the paper defaults", got)
	}

	none, err := New(ds, Options{Feedback: feedback.Options{
		Movement:  feedback.MoveNone,
		Weighting: feedback.WeightNone,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := none.fb.Name(); got != "move=none,weight=none" {
		t.Errorf("explicit none/none became %q", got)
	}
	// Behavioural check: a none/none loop can never move the parameters,
	// so its first judgement finds the list stable.
	item := ds.Items[0]
	_, l := oracleLoop(t, none, item.Category, item.Feature, none.UniformWeights(), 5, DefaultMaxIterations)
	if q, w := l.Params(); l.Moved() || !vec.Equal(q, item.Feature) || !vec.Equal(w, none.UniformWeights()) {
		t.Error("none/none feedback changed the query parameters")
	}
	if !l.Done() || l.Rounds() != 1 {
		t.Errorf("none/none loop: done=%v rounds=%d, want one stable round", l.Done(), l.Rounds())
	}
}

// TestNoFeedbackLoop pins the budget-0 case of Start: the loop is done
// after the first retrieval, and Step consumes nothing.
func TestNoFeedbackLoop(t *testing.T) {
	ds := clusteredDataset(t, 40, 2)
	e, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	item := ds.Items[0]
	l, err := e.Start(item.Feature, e.UniformWeights(), 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	first := l.Results()
	if !l.Done() || l.BudgetLeft() != 0 {
		t.Fatalf("budget 0: done %v, %d left", l.Done(), l.BudgetLeft())
	}
	if err := l.Step(context.Background(), e.Score(item.Category, first)); err != nil {
		t.Fatal(err)
	}
	if l.Rounds() != 0 || l.Moved() || !knn.SameIndexSet(first, l.Results()) {
		t.Errorf("budget 0 ran %d rounds, moved %v", l.Rounds(), l.Moved())
	}
}

// TestStepRejectsMalformedRounds checks that Step consumes nothing from a
// round it cannot use: wrong score count, invalid scores, a result index
// outside the collection, or a context that ends before the retrieval. A
// retried valid round then matches a loop that never saw the bad ones.
func TestStepRejectsMalformedRounds(t *testing.T) {
	ds := clusteredDataset(t, 40, 2)
	e, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	item := ds.Items[0]
	start := func() *Loop {
		l, err := e.Start(item.Feature, e.UniformWeights(), 8, DefaultMaxIterations)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	l := start()
	scores := e.Score(item.Category, l.Results())
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	nan := append([]float64(nil), scores...)
	nan[1] = math.NaN()
	for name, step := range map[string]func() error{
		"length":   func() error { return l.Step(context.Background(), scores[:1]) },
		"nan":      func() error { return l.Step(context.Background(), nan) },
		"negative": func() error { return l.Step(context.Background(), vec.Scale(scores, -1)) },
		"canceled": func() error { return l.Step(canceled, scores) },
	} {
		err := step()
		if err == nil {
			t.Fatalf("%s: round accepted", name)
		}
		if invalid := errors.Is(err, ErrInvalidScores); invalid != (name != "canceled") {
			t.Errorf("%s: errors.Is(%v, ErrInvalidScores) = %v", name, err, invalid)
		}
		if l.Rounds() != 0 || l.Moved() || l.Done() {
			t.Fatalf("%s: rejected round changed the loop", name)
		}
	}
	if err := l.Step(context.Background(), scores); err != nil {
		t.Fatal(err)
	}
	fresh := start()
	if err := fresh.Step(context.Background(), scores); err != nil {
		t.Fatal(err)
	}
	q, w := l.Params()
	fq, fw := fresh.Params()
	if !vec.Equal(q, fq) || !vec.Equal(w, fw) || !knn.SameIndexSet(l.Results(), fresh.Results()) || l.Rounds() != 1 {
		t.Error("the round after rejected ones differs from a clean first round")
	}

	bad := start()
	bad.results = []knn.Result{{Index: ds.Len() + 5}}
	if err := bad.Step(context.Background(), []float64{1}); err == nil || bad.Rounds() != 0 {
		t.Errorf("out-of-range result index: err %v, %d rounds", err, bad.Rounds())
	}
}

// TestQuerySignature pins the cache key: equal points collide, any
// component difference (including ±0) separates.
func TestQuerySignature(t *testing.T) {
	a := []float64{0.25, 0.5, 0.125}
	b := []float64{0.25, 0.5, 0.125}
	if QuerySignature(a) != QuerySignature(b) {
		t.Error("equal points have different signatures")
	}
	c := []float64{0.25, 0.5, 0.1250000001}
	if QuerySignature(a) == QuerySignature(c) {
		t.Error("distinct points share a signature")
	}
	if QuerySignature([]float64{0}) == QuerySignature([]float64{math.Copysign(0, -1)}) {
		t.Error("+0 and -0 should hash differently (bitwise key)")
	}
}
