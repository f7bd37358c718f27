package engine

import (
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
	if _, err := New(ds, Options{MaxIterations: -2}); err == nil {
		t.Error("negative max iterations (other than NoFeedbackLoop) should error")
	}
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
		out, err := e.RunLoop(item.Category, item.Feature, e.UniformWeights(), k)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Converged {
			t.Errorf("query %d did not converge", qi)
		}
		if out.Retrievals != out.Iterations+1 {
			t.Errorf("retrievals %d vs iterations %d", out.Retrievals, out.Iterations)
		}
		first := e.GoodCount(item.Category, out.FirstResults)
		final := e.GoodCount(item.Category, out.FinalResults)
		if final < first {
			t.Errorf("query %d: feedback degraded precision %d -> %d", qi, first, final)
		}
		if final > first {
			improvedSome = true
		}
		if len(out.QOpt) != 2 || len(out.WOpt) != 2 {
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
	out, err := e.RunLoop(item.Category, item.Feature, e.UniformWeights(), 30)
	if err != nil {
		t.Fatal(err)
	}
	// Dimension 0 separates the categories (low variance among good
	// matches); dimension 1 is noise. The learned weights must reflect it.
	if out.WOpt[0] <= out.WOpt[1] {
		t.Errorf("weights = %v: signal dimension not favored", out.WOpt)
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
	out1, err := e.RunLoop(item.Category, item.Feature, e.UniformWeights(), k)
	if err != nil {
		t.Fatal(err)
	}
	// Restart from the converged parameters: no further iterations needed.
	out2, err := e.RunLoop(item.Category, out1.QOpt, out1.WOpt, k)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Iterations != 0 {
		t.Errorf("restart took %d iterations, want 0", out2.Iterations)
	}
	if out2.Iterations > out1.Iterations {
		t.Error("restart should not need more cycles than the original loop")
	}
}

func TestRunLoopNoGoodMatches(t *testing.T) {
	ds := clusteredDataset(t, 50, 6)
	e, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Query for a category that exists nowhere near: oracle never fires.
	out, err := e.RunLoop("Nonexistent", ds.Items[0].Feature, e.UniformWeights(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if out.Iterations != 0 || !out.Converged {
		t.Errorf("loop without good matches: %+v", out)
	}
	if !vec.Equal(out.QOpt, ds.Items[0].Feature) {
		t.Error("parameters should be unchanged")
	}
}

func TestRunLoopKValidation(t *testing.T) {
	ds := clusteredDataset(t, 20, 7)
	e, _ := New(ds, Options{})
	if _, err := e.RunLoop("A", ds.Items[0].Feature, e.UniformWeights(), 0); err == nil {
		t.Error("k=0 should error")
	}
}

func TestRunLoopIterationBound(t *testing.T) {
	ds := clusteredDataset(t, 100, 8)
	e, err := New(ds, Options{MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	item := ds.Items[0]
	out, err := e.RunLoop(item.Category, item.Feature, e.UniformWeights(), 20)
	if err != nil {
		t.Fatal(err)
	}
	if out.Iterations > 1 {
		t.Errorf("iterations %d exceeded bound", out.Iterations)
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
	out, err := e.RunLoop(item.Category, item.Feature, e.UniformWeights(), 15)
	if err != nil {
		t.Fatal(err)
	}
	first := e.GoodCount(item.Category, out.FirstResults)
	final := e.GoodCount(item.Category, out.FinalResults)
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

func TestRetrieveBatchMatchesRetrieve(t *testing.T) {
	ds := clusteredDataset(t, 200, 11)
	e, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	uniform := e.UniformWeights()
	shifted := make([]float64, ds.Dim)
	for i := range shifted {
		shifted[i] = 0.5 + float64(i%3)
	}
	qs := []WeightedQuery{
		{Q: ds.Items[0].Feature, W: uniform},
		{Q: ds.Items[1].Feature, W: uniform}, // same weights: grouped into one batch
		{Q: ds.Items[2].Feature, W: shifted}, // new weights: new group
	}
	batch, err := e.RetrieveBatch(qs, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i, wq := range qs {
		want, err := e.Retrieve(wq.Q, wq.W, 9)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch[i]) != len(want) {
			t.Fatalf("query %d: %d results, want %d", i, len(batch[i]), len(want))
		}
		for j := range want {
			if batch[i][j] != want[j] {
				t.Fatalf("query %d result %d: %+v != %+v", i, j, batch[i][j], want[j])
			}
		}
	}
}

// BenchmarkFeedbackSignature measures the allocation-free FNV-1a cycle
// key that replaced the fmt.Fprintf string builder in RunLoop.
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
	// Behavioural check: a none/none loop can never move the parameters.
	item := ds.Items[0]
	out, err := none.RunLoop(item.Category, item.Feature, none.UniformWeights(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(out.QOpt, item.Feature) || !vec.Equal(out.WOpt, none.UniformWeights()) {
		t.Error("none/none feedback changed the query parameters")
	}
	if !out.Converged || out.Iterations != 0 {
		t.Errorf("none/none loop: converged=%v iterations=%d, want immediate convergence", out.Converged, out.Iterations)
	}
}

// TestNoFeedbackLoop pins the MaxIterations sentinel: NoFeedbackLoop runs
// zero feedback cycles (the zero value still selects the default bound).
func TestNoFeedbackLoop(t *testing.T) {
	ds := clusteredDataset(t, 40, 2)
	e, err := New(ds, Options{MaxIterations: NoFeedbackLoop})
	if err != nil {
		t.Fatal(err)
	}
	if e.maxIters != 0 {
		t.Fatalf("MaxIterations() = %d, want 0", e.maxIters)
	}
	item := ds.Items[0]
	out, err := e.RunLoop(item.Category, item.Feature, e.UniformWeights(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if out.Iterations != 0 || out.Retrievals != 1 {
		t.Errorf("NoFeedbackLoop ran %d iterations, %d retrievals", out.Iterations, out.Retrievals)
	}
	if !knn.SameIndexSet(out.FirstResults, out.FinalResults) {
		t.Error("NoFeedbackLoop changed the result list")
	}

	def, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if def.maxIters != DefaultMaxIterations {
		t.Errorf("zero MaxIterations resolved to %d, want DefaultMaxIterations", def.maxIters)
	}
}

// TestRefineFromScores checks the externally driven feedback step agrees
// with the engine's own oracle-driven refinement.
func TestRefineFromScores(t *testing.T) {
	ds := clusteredDataset(t, 40, 2)
	e, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	item := ds.Items[0]
	results, err := e.Retrieve(item.Feature, e.UniformWeights(), 8)
	if err != nil {
		t.Fatal(err)
	}
	scores := e.Score(item.Category, results)
	newQ, newW, err := e.RefineFromScores(item.Feature, results, scores)
	if err != nil {
		t.Fatal(err)
	}
	if len(newQ) != ds.Dim || len(newW) != ds.Dim {
		t.Fatalf("refined dimensions %d/%d, want %d", len(newQ), len(newW), ds.Dim)
	}
	// All-zero scores surface ErrNoGoodMatches, errors.Is-able.
	zero := make([]float64, len(results))
	if _, _, err := e.RefineFromScores(item.Feature, results, zero); !errors.Is(err, feedback.ErrNoGoodMatches) {
		t.Errorf("zero scores: error %v is not ErrNoGoodMatches", err)
	}
	// Mismatched lengths and bad indices are rejected.
	if _, _, err := e.RefineFromScores(item.Feature, results, scores[:1]); err == nil {
		t.Error("score-length mismatch accepted")
	}
	bad := []knn.Result{{Index: ds.Len() + 5}}
	if _, _, err := e.RefineFromScores(item.Feature, bad, []float64{1}); err == nil {
		t.Error("out-of-range result index accepted")
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
	if ResultSignature([]knn.Result{{Index: 3}}) != signature([]knn.Result{{Index: 3}}) {
		t.Error("ResultSignature diverges from the internal hash")
	}
}

// TestShardOfPinned pins the sharded bypass plane's partition function to
// golden values. Durable sharded module directories bake their shard
// count into a manifest and route every WAL record by this function, so
// a change here silently orphans persisted state — if this test fails,
// you are doing a resharding migration, not a refactor.
func TestShardOfPinned(t *testing.T) {
	points := [][]float64{
		{0.25, 0.25, 0.25},
		{0.1, 0.2, 0.3, 0.4},
		{0.5},
		{0.031, 0.002, 0.967, 0, 0, 0.0001},
		{1, 0, 0},
	}
	sigs := []uint64{
		5361427632939035000,
		6192810792582908260,
		12315068107728651944,
		5852497454591052768,
		13656591783786892216,
	}
	// Rows follow points; columns follow shardCounts.
	shardCounts := []int{2, 3, 4, 5, 7, 8}
	want := [][]int{
		{0, 2, 0, 0, 0, 0},
		{0, 1, 0, 0, 4, 4},
		{0, 2, 0, 4, 0, 0},
		{0, 0, 0, 3, 6, 0},
		{0, 1, 0, 1, 3, 0},
	}
	for i, q := range points {
		if got := QuerySignature(q); got != sigs[i] {
			t.Errorf("QuerySignature(%v) = %d, want %d", q, got, sigs[i])
		}
		for j, s := range shardCounts {
			if got := ShardOf(q, s); got != want[i][j] {
				t.Errorf("ShardOf(%v, %d) = %d, want %d", q, s, got, want[i][j])
			}
		}
		// Degenerate shard counts collapse to one partition.
		if ShardOf(q, 1) != 0 || ShardOf(q, 0) != 0 || ShardOf(q, -3) != 0 {
			t.Errorf("ShardOf(%v, <=1) must be 0", q)
		}
	}
}
