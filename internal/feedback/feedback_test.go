package feedback

import (
	"errors"
	"math"
	"testing"

	"repro/internal/vec"
)

func TestGoodSubset(t *testing.T) {
	results := [][]float64{{1}, {2}, {3}}
	good, scores, err := GoodSubset(results, []float64{1, 0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(good) != 2 || good[0][0] != 1 || good[1][0] != 3 {
		t.Errorf("good = %v", good)
	}
	if scores[0] != 1 || scores[1] != 0.5 {
		t.Errorf("scores = %v", scores)
	}
	if _, _, err := GoodSubset(results, []float64{1}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, _, err := GoodSubset(results, []float64{1, -1, 0}); err == nil {
		t.Error("negative score should error")
	}
	if _, _, err := GoodSubset(results, []float64{1, math.NaN(), 0}); err == nil {
		t.Error("NaN score should error")
	}
	if _, _, err := GoodSubset(results, []float64{1e308, 1e308, 0}); err == nil {
		t.Error("finite scores whose sum overflows should error")
	}
	if _, _, err := GoodSubset(results, []float64{math.MaxFloat64, 0, 0}); err != nil {
		t.Errorf("the largest finite score alone: %v", err)
	}
}

// TestGoodSubsetAllocs holds GoodSubset to its two result slices on a
// 10-result page: each is sized once, not grown by append.
func TestGoodSubsetAllocs(t *testing.T) {
	results := make([][]float64, 10)
	scores := make([]float64, 10)
	for i := range results {
		results[i] = []float64{float64(i)}
		scores[i] = float64(i % 3)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := GoodSubset(results, scores); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Errorf("GoodSubset on a 10-result page: %v allocations, want at most 2", allocs)
	}
}

func TestOptimalQueryPointEq2(t *testing.T) {
	results := [][]float64{{0, 0}, {2, 2}, {4, 0}}
	// Scores 1, 1, 0: centroid of first two.
	q, err := OptimalQueryPoint(results, []float64{1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !vec.EqualTol(q, []float64{1, 1}, 1e-12) {
		t.Errorf("q' = %v", q)
	}
	// Graded scores weight the average.
	q, err = OptimalQueryPoint(results, []float64{3, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !vec.EqualTol(q, []float64{0.5, 0.5}, 1e-12) {
		t.Errorf("graded q' = %v", q)
	}
}

func TestOptimalQueryPointNoGood(t *testing.T) {
	_, err := OptimalQueryPoint([][]float64{{1}}, []float64{0})
	if !errors.Is(err, ErrNoGoodMatches) {
		t.Errorf("err = %v", err)
	}
}

func TestOptimalQueryPointRaggedResults(t *testing.T) {
	if _, err := OptimalQueryPoint([][]float64{{1, 2}, {3}}, []float64{1, 1}); err == nil {
		t.Error("ragged results should error")
	}
}

func TestRocchio(t *testing.T) {
	q := []float64{0, 0}
	results := [][]float64{{2, 0}, {0, 2}, {10, 10}}
	scores := []float64{1, 1, 0}
	// α=1, β=1, γ=1: q + goodCentroid − badCentroid = (1,1) − (10,10).
	got, err := Rocchio(q, results, scores, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.EqualTol(got, []float64{-9, -9}, 1e-12) {
		t.Errorf("Rocchio = %v", got)
	}
	// Without bad results the γ term vanishes.
	got, err = Rocchio(q, results[:2], scores[:2], 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.EqualTol(got, []float64{1, 1}, 1e-12) {
		t.Errorf("Rocchio no-bad = %v", got)
	}
	if _, err := Rocchio(q, results, []float64{0, 0, 0}, 1, 1, 1); !errors.Is(err, ErrNoGoodMatches) {
		t.Errorf("err = %v", err)
	}
	if _, err := Rocchio(q, results, []float64{1}, 1, 1, 1); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Rocchio(q, [][]float64{{1}}, []float64{1}, 1, 1, 1); err == nil {
		t.Error("dimension mismatch should error")
	}
}

func TestWeightedDimensionVariance(t *testing.T) {
	good := [][]float64{{0, 5}, {2, 5}}
	v, err := WeightedDimensionVariance(good, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// dim 0: mean 1, var ((1)²+(1)²)/2 = 1; dim 1: constant → 0.
	if math.Abs(v[0]-1) > 1e-12 || v[1] != 0 {
		t.Errorf("variance = %v", v)
	}
	// Weighted: score 3 on first point pulls the mean.
	v, err = WeightedDimensionVariance(good, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	// mean0 = (3·0 + 1·2)/4 = 0.5; var0 = (3·0.25 + 1·2.25)/4 = 0.75.
	if math.Abs(v[0]-0.75) > 1e-12 {
		t.Errorf("weighted variance = %v", v)
	}
	if _, err := WeightedDimensionVariance(nil, nil); !errors.Is(err, ErrNoGoodMatches) {
		t.Errorf("empty err = %v", err)
	}
}

func TestReweightOptimalFavorsLowVariance(t *testing.T) {
	// Good matches agree on dim 0 (tight) and disagree on dim 1 (loose):
	// the optimal rule must weight dim 0 far above dim 1.
	results := [][]float64{
		{0.50, 0.1},
		{0.51, 0.9},
		{0.49, 0.5},
		{0.50, 0.2},
	}
	scores := []float64{1, 1, 1, 1}
	w, err := Reweight(results, scores, WeightOptimal, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if w[0] <= w[1] {
		t.Errorf("weights = %v: tight dimension not favored", w)
	}
	// Geometric mean 1.
	gm := math.Sqrt(w[0] * w[1])
	if math.Abs(gm-1) > 1e-9 {
		t.Errorf("geometric mean = %v", gm)
	}
	// Optimal weights are proportional to 1/σ²: the ratio must equal the
	// inverse variance ratio.
	variance, _ := WeightedDimensionVariance(results, scores)
	wantRatio := variance[1] / variance[0]
	if math.Abs(w[0]/w[1]-wantRatio) > 1e-6*wantRatio {
		t.Errorf("weight ratio %v, want %v", w[0]/w[1], wantRatio)
	}
}

func TestReweightMARSIsInverseSigma(t *testing.T) {
	results := [][]float64{
		{0.5, 0.1},
		{0.7, 0.9},
	}
	scores := []float64{1, 1}
	w, err := Reweight(results, scores, WeightMARS, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	variance, _ := WeightedDimensionVariance(results, scores)
	wantRatio := math.Sqrt(variance[1] / variance[0])
	if math.Abs(w[0]/w[1]-wantRatio) > 1e-6*wantRatio {
		t.Errorf("MARS ratio %v, want %v", w[0]/w[1], wantRatio)
	}
}

func TestReweightSingleGoodMatchIsUniform(t *testing.T) {
	// One good match: zero variance everywhere, floored → uniform weights.
	w, err := Reweight([][]float64{{0.3, 0.7}}, []float64{1}, WeightOptimal, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.EqualTol(w, []float64{1, 1}, 1e-9) {
		t.Errorf("single-match weights = %v", w)
	}
}

func TestReweightErrors(t *testing.T) {
	if _, err := Reweight([][]float64{{1}}, []float64{0}, WeightOptimal, 1e-6); !errors.Is(err, ErrNoGoodMatches) {
		t.Errorf("err = %v", err)
	}
	if _, err := Reweight([][]float64{{1}}, []float64{1}, WeightOptimal, 0); err == nil {
		t.Error("zero floor should error")
	}
	if _, err := Reweight([][]float64{{1}}, []float64{1}, WeightingRule(99), 1e-6); err == nil {
		t.Error("unknown rule should error")
	}
	w, err := Reweight([][]float64{{1, 2}}, []float64{1}, WeightNone, 1e-6)
	if err != nil || !vec.Equal(w, []float64{1, 1}) {
		t.Errorf("WeightNone = %v, %v", w, err)
	}
}

func TestNormalizeGeometricMean(t *testing.T) {
	w := NormalizeGeometricMean([]float64{4, 1})
	if math.Abs(w[0]*w[1]-1) > 1e-12 {
		t.Errorf("product = %v", w[0]*w[1])
	}
	if math.Abs(w[0]/w[1]-4) > 1e-12 {
		t.Error("normalization must preserve ratios")
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := New(Options{Movement: MovementRule(9)}); err == nil {
		t.Error("bad movement should error")
	}
	if _, err := New(Options{Weighting: WeightingRule(9)}); err == nil {
		t.Error("bad weighting should error")
	}
	e, err := New(Options{Movement: MoveOptimal, Weighting: WeightOptimal})
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() == "" {
		t.Error("Name should be non-empty")
	}
}

func TestEngineRefine(t *testing.T) {
	e, err := New(Options{Movement: MoveOptimal, Weighting: WeightOptimal})
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{0, 0}
	results := [][]float64{{1, 0.5}, {1.2, 0.5}, {9, 9}}
	scores := []float64{1, 1, 0}
	newQ, w, err := e.Refine(q, results, scores)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.EqualTol(newQ, []float64{1.1, 0.5}, 1e-12) {
		t.Errorf("newQ = %v", newQ)
	}
	// Dim 1 is constant among good matches → floored variance → weight
	// above dim 0's.
	if w[1] <= w[0] {
		t.Errorf("weights = %v", w)
	}
}

func TestEngineRefineNoGoodEchoesInput(t *testing.T) {
	e, _ := New(Options{Movement: MoveOptimal, Weighting: WeightOptimal})
	q := []float64{0.3, 0.7}
	newQ, w, err := e.Refine(q, [][]float64{{1, 1}}, []float64{0})
	if !errors.Is(err, ErrNoGoodMatches) {
		t.Fatalf("err = %v", err)
	}
	if !vec.Equal(newQ, q) {
		t.Errorf("query echoed = %v", newQ)
	}
	if !vec.Equal(w, []float64{1, 1}) {
		t.Errorf("weights echoed = %v", w)
	}
}

func TestEngineRefineRocchioAndNone(t *testing.T) {
	e, err := New(Options{Movement: MoveRocchio, Weighting: WeightNone})
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{1, 1}
	results := [][]float64{{3, 3}}
	newQ, w, err := e.Refine(q, results, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	// Defaults α=1, β=0.75: q + 0.75·(3,3) = (3.25, 3.25).
	if !vec.EqualTol(newQ, []float64{3.25, 3.25}, 1e-12) {
		t.Errorf("rocchio newQ = %v", newQ)
	}
	if !vec.Equal(w, []float64{1, 1}) {
		t.Errorf("weights = %v", w)
	}

	e2, _ := New(Options{Movement: MoveNone, Weighting: WeightOptimal})
	newQ, _, err = e2.Refine(q, results, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(newQ, q) {
		t.Errorf("MoveNone changed the query: %v", newQ)
	}
}

func TestRuleStrings(t *testing.T) {
	if MoveOptimal.String() != "optimal" || MoveRocchio.String() != "rocchio" || MoveNone.String() != "none" {
		t.Error("movement strings")
	}
	if WeightOptimal.String() == "" || WeightMARS.String() == "" || WeightNone.String() == "" {
		t.Error("weighting strings")
	}
	if MovementRule(42).String() == "" || WeightingRule(42).String() == "" {
		t.Error("unknown rule strings")
	}
}
