package feedback

import (
	"errors"
	"math"
	"math/rand"
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

// TestRefineAllocs holds Refine to four allocations on a 10-result page:
// GoodSubset's two slices, q' and w, each sized once.
func TestRefineAllocs(t *testing.T) {
	results := make([][]float64, 10)
	scores := make([]float64, 10)
	for i := range results {
		results[i] = []float64{float64(i), float64(i * i), 1}
		scores[i] = float64(i % 3)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := Refine(results, scores); err != nil {
			t.Fatal(err)
		}
	}); allocs > 4 {
		t.Errorf("Refine on a 10-result page: %v allocations, want at most 4", allocs)
	}
}

// referenceRefine is the composition Refine folds into one pass: the
// centroid of Eq. 2; the variance around a mean recomputed from the good
// subset with the same operations; the floor and inversion; the
// geometric-mean normalization into a fresh slice. It has no finiteness
// check.
func referenceRefine(results [][]float64, scores []float64) (q, w []float64, err error) {
	good, goodScores, err := GoodSubset(results, scores)
	if err != nil {
		return nil, nil, err
	}
	if len(good) == 0 {
		return nil, nil, ErrNoGoodMatches
	}
	dim := len(good[0])
	centroid := func() ([]float64, float64, error) {
		out := make([]float64, dim)
		var total float64
		for j, p := range good {
			if len(p) != dim {
				return nil, 0, errors.New("ragged results")
			}
			for i := range out {
				out[i] += goodScores[j] * p[i]
			}
			total += goodScores[j]
		}
		inv := 1 / total
		for i := range out {
			out[i] *= inv
		}
		return out, total, nil
	}
	if q, _, err = centroid(); err != nil {
		return nil, nil, err
	}
	mean, total, _ := centroid()
	variance := make([]float64, dim)
	for j, p := range good {
		for i := range p {
			d := p[i] - mean[i]
			variance[i] += goodScores[j] * d * d
		}
	}
	inv := 1 / total
	raw := make([]float64, dim)
	var logSum float64
	for i, v := range variance {
		v *= inv
		if v < varianceFloor {
			v = varianceFloor
		}
		raw[i] = 1 / v
		logSum += math.Log(raw[i])
	}
	scale := math.Exp(-logSum / float64(dim))
	w = make([]float64, dim)
	for i, x := range raw {
		w[i] = x * scale
	}
	return q, w, nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRefineMatchesReference holds Refine bitwise to referenceRefine over
// random pages: dims 1–40, 1–60 results, features that sometimes agree
// exactly (the floor), binary, graded, all-zero and subnormal scores,
// and the odd ragged page. Where the reference's q' or w is not finite,
// Refine must return an error instead.
func TestRefineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 5000; trial++ {
		dim, n := 1+rng.Intn(40), 1+rng.Intn(60)
		quantized := rng.Intn(3) == 0
		results := make([][]float64, n)
		for j := range results {
			results[j] = make([]float64, dim)
			for i := range results[j] {
				x := rng.Float64()
				if quantized {
					x = math.Floor(x*4) / 4
				}
				results[j][i] = x
			}
		}
		if rng.Intn(50) == 0 {
			results[rng.Intn(n)] = make([]float64, dim+1)
		}
		mode := rng.Intn(4)
		scores := make([]float64, n)
		for j := range scores {
			switch mode {
			case 0: // binary
				scores[j] = float64(rng.Intn(2))
			case 1: // graded
				if rng.Intn(3) > 0 {
					scores[j] = rng.Float64() * 3
				}
			case 2: // subnormal and tiny positives
				scores[j] = []float64{0, 5e-324, 1e-310, 1e-300}[rng.Intn(4)]
			} // case 3: all zero
		}
		wantQ, wantW, wantErr := referenceRefine(results, scores)
		q, w, err := Refine(results, scores)
		switch {
		case wantErr != nil:
			if err == nil || errors.Is(err, ErrNoGoodMatches) != errors.Is(wantErr, ErrNoGoodMatches) {
				t.Fatalf("trial %d: err %v, reference err %v", trial, err, wantErr)
			}
		case !vec.IsFinite(wantQ) || !vec.IsFinite(wantW):
			if err == nil || errors.Is(err, ErrNoGoodMatches) {
				t.Fatalf("trial %d: scores %v: non-finite parameters need an error, got %v", trial, scores, err)
			}
		case err != nil:
			t.Fatalf("trial %d: %v", trial, err)
		case !sameBits(q, wantQ) || !sameBits(w, wantW):
			t.Fatalf("trial %d: Refine (%v, %v), reference (%v, %v)", trial, q, w, wantQ, wantW)
		}
	}
}

func TestRefine(t *testing.T) {
	results := [][]float64{{1, 0.5}, {1.2, 0.5}, {9, 9}}
	q, w, err := Refine(results, []float64{1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !vec.EqualTol(q, []float64{1.1, 0.5}, 1e-12) {
		t.Errorf("q' = %v", q)
	}
	// Dim 1 is constant among good matches → floored variance → weight
	// above dim 0's.
	if w[1] <= w[0] {
		t.Errorf("weights = %v", w)
	}
}

func TestOptimalQueryPointEq2(t *testing.T) {
	results := [][]float64{{0, 0}, {2, 2}, {4, 0}}
	// Scores 1, 1, 0: centroid of first two.
	q, _, err := Refine(results, []float64{1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !vec.EqualTol(q, []float64{1, 1}, 1e-12) {
		t.Errorf("q' = %v", q)
	}
	// Graded scores weight the average.
	q, _, err = Refine(results, []float64{3, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !vec.EqualTol(q, []float64{0.5, 0.5}, 1e-12) {
		t.Errorf("graded q' = %v", q)
	}
}

func TestOptimalQueryPointNoGood(t *testing.T) {
	q, w, err := Refine([][]float64{{1, 1}}, []float64{0})
	if !errors.Is(err, ErrNoGoodMatches) {
		t.Errorf("err = %v", err)
	}
	if q != nil || w != nil {
		t.Errorf("no good matches returned parameters (%v, %v)", q, w)
	}
}

// TestEngineRefineNoGoodEchoesInput checks the contract that lets a caller
// echo its current query and weights when nothing is scored good: Refine
// reports ErrNoGoodMatches and leaves the result vectors (which may alias
// the dataset's features) and the scores as they were.
func TestEngineRefineNoGoodEchoesInput(t *testing.T) {
	results := [][]float64{{0.3, 0.7}, {1, 1}}
	scores := []float64{0, 0}
	_, _, err := Refine(results, scores)
	if !errors.Is(err, ErrNoGoodMatches) {
		t.Fatalf("err = %v", err)
	}
	if !vec.Equal(results[0], []float64{0.3, 0.7}) || !vec.Equal(results[1], []float64{1, 1}) {
		t.Errorf("results changed = %v", results)
	}
	if !vec.Equal(scores, []float64{0, 0}) {
		t.Errorf("scores changed = %v", scores)
	}
}

func TestOptimalQueryPointRaggedResults(t *testing.T) {
	if _, _, err := Refine([][]float64{{1, 2}, {3}}, []float64{1, 1}); err == nil {
		t.Error("ragged results should error")
	}
}

// TestWeightedDimensionVariance checks the σ_i² behind the weights: the
// score-weighted variance of the good matches around q', so w_0/w_1 is
// σ_1²/σ_0² once the floor lifts a zero variance.
func TestWeightedDimensionVariance(t *testing.T) {
	good := [][]float64{{0, 5}, {2, 5}}
	// dim 0: mean 1, var ((1)²+(1)²)/2 = 1; dim 1: constant → the floor.
	_, w, err := Refine(good, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := w[0] / w[1]; math.Abs(got-varianceFloor) > 1e-12*varianceFloor {
		t.Errorf("weights %v: ratio %v, want %v", w, got, varianceFloor)
	}
	// Weighted: score 3 on first point pulls the mean.
	// mean0 = (3·0 + 1·2)/4 = 0.5; var0 = (3·0.25 + 1·2.25)/4 = 0.75.
	_, w, err = Refine(good, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := w[0]/w[1], varianceFloor/0.75; math.Abs(got-want) > 1e-12*want {
		t.Errorf("weighted weights %v: ratio %v, want %v", w, got, want)
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
	_, w, err := Refine(results, []float64{1, 1, 1, 1})
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
	// inverse variance ratio, σ_0² = 0.0002/4 and σ_1² = 0.3875/4.
	wantRatio := 0.3875 / 0.0002
	if math.Abs(w[0]/w[1]-wantRatio) > 1e-6*wantRatio {
		t.Errorf("weight ratio %v, want %v", w[0]/w[1], wantRatio)
	}
}

func TestReweightSingleGoodMatchIsUniform(t *testing.T) {
	// One good match: zero variance everywhere, floored → uniform weights.
	_, w, err := Refine([][]float64{{0.3, 0.7}}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if !vec.EqualTol(w, []float64{1, 1}, 1e-9) {
		t.Errorf("single-match weights = %v", w)
	}
}

func TestReweightErrors(t *testing.T) {
	if _, _, err := Refine([][]float64{{1}}, []float64{0}); !errors.Is(err, ErrNoGoodMatches) {
		t.Errorf("err = %v", err)
	}
	if _, _, err := Refine([][]float64{{1}, {2}}, []float64{1}); err == nil || errors.Is(err, ErrNoGoodMatches) {
		t.Errorf("length mismatch: err = %v", err)
	}
	// A positive total so small that 1/Σ overflows: the weights would be
	// NaN, so the scores are refused instead.
	for _, s := range []float64{5e-324, 1e-310} {
		if q, w, err := Refine([][]float64{{0.2, 0.8}, {0.6, 0.4}}, []float64{s, 0}); err == nil || errors.Is(err, ErrNoGoodMatches) {
			t.Errorf("score %v: Refine = (%v, %v, %v), want an error", s, q, w, err)
		}
	}
	if _, _, err := Refine([][]float64{{0.2, 0.8}, {0.6, 0.4}}, []float64{1e-300, 0}); err != nil {
		t.Errorf("score 1e-300: %v", err)
	}
}

func TestNormalizeGeometricMean(t *testing.T) {
	w := []float64{4, 1}
	normalizeGeometricMean(w)
	if math.Abs(w[0]*w[1]-1) > 1e-12 {
		t.Errorf("product = %v", w[0]*w[1])
	}
	if math.Abs(w[0]/w[1]-4) > 1e-12 {
		t.Error("normalization must preserve ratios")
	}
}
