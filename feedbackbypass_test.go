package feedbackbypass_test

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	feedbackbypass "repro"
)

func TestNewForHistograms(t *testing.T) {
	b, codec, err := feedbackbypass.NewForHistograms(32, feedbackbypass.Config{Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if b.D() != 31 || b.P() != 31 {
		t.Errorf("D=%d P=%d", b.D(), b.P())
	}
	if codec.Bins != 32 {
		t.Errorf("codec bins = %d", codec.Bins)
	}
	if _, _, err := feedbackbypass.NewForHistograms(1, feedbackbypass.Config{}); err == nil {
		t.Error("1 bin should error")
	}
}

// randomHistogram returns a random normalized histogram with strictly
// positive bins.
func randomHistogram(rng *rand.Rand, bins int) []float64 {
	h := make([]float64, bins)
	var sum float64
	for i := range h {
		h[i] = 0.05 + rng.ExpFloat64()
		sum += h[i]
	}
	for i := range h {
		h[i] /= sum
	}
	return h
}

func TestPublicAPIFlow(t *testing.T) {
	bins := 8
	b, codec, err := feedbackbypass.NewForHistograms(bins, feedbackbypass.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	q := randomHistogram(rng, bins)
	qp, err := codec.QueryPoint(q)
	if err != nil {
		t.Fatal(err)
	}
	// Untrained module predicts defaults: zero offset, uniform weights.
	oqp, err := b.Predict(qp)
	if err != nil {
		t.Fatal(err)
	}
	qOpt, w, err := codec.DecodeOQP(q, oqp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range q {
		if math.Abs(qOpt[i]-q[i]) > 1e-9 {
			t.Errorf("default qopt[%d] = %v, want %v", i, qOpt[i], q[i])
		}
		if math.Abs(w[i]-1) > 1e-9 {
			t.Errorf("default w[%d] = %v, want 1", i, w[i])
		}
	}
	// Learn an optimum and read it back.
	qBest := append([]float64(nil), q...)
	qBest[0] += 0.03
	qBest[1] -= 0.03
	wBest := []float64{4, 1, 1, 1, 1, 1, 1, 1}
	learned, err := codec.EncodeOQP(q, qBest, wBest)
	if err != nil {
		t.Fatal(err)
	}
	changed, err := b.Insert(qp, learned)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("insert should store")
	}
	oqp2, err := b.Predict(qp)
	if err != nil {
		t.Fatal(err)
	}
	qOpt2, w2, err := codec.DecodeOQP(q, oqp2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qBest {
		if math.Abs(qOpt2[i]-qBest[i]) > 1e-9 {
			t.Errorf("learned qopt[%d] = %v, want %v", i, qOpt2[i], qBest[i])
		}
	}
	if math.Abs(w2[0]-4) > 1e-9 {
		t.Errorf("learned w[0] = %v, want 4", w2[0])
	}
	st := b.Stats()
	if st.Points != 1 {
		t.Errorf("stats points = %d", st.Points)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	bins := 6
	b, codec, err := feedbackbypass.NewForHistograms(bins, feedbackbypass.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var queries [][]float64
	for i := 0; i < 15; i++ {
		q := randomHistogram(rng, bins)
		qp, err := codec.QueryPoint(q)
		if err != nil {
			t.Fatal(err)
		}
		qBest := append([]float64(nil), q...)
		qBest[i%bins] = math.Min(qBest[i%bins]+0.02, 1)
		w := make([]float64, bins)
		for j := range w {
			w[j] = 0.5 + rng.Float64()*3
		}
		oqp, err := codec.EncodeOQP(q, q, w)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Insert(qp, oqp); err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	var buf bytes.Buffer
	if err := feedbackbypass.Save(&buf, b); err != nil {
		t.Fatal(err)
	}
	loaded, err := feedbackbypass.Load(&buf, codec.P())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		qp, _ := codec.QueryPoint(q)
		want, err1 := b.Predict(qp)
		got, err2 := loaded.Predict(qp)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		for i := range want.Delta {
			if math.Abs(got.Delta[i]-want.Delta[i]) > 1e-12 {
				t.Fatal("delta mismatch after load")
			}
		}
		for i := range want.Weights {
			if math.Abs(got.Weights[i]-want.Weights[i]) > 1e-12 {
				t.Fatal("weights mismatch after load")
			}
		}
	}
	if err := feedbackbypass.Save(&buf, nil); err == nil {
		t.Error("nil module should error")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.fbwl")
	b, codec, err := feedbackbypass.NewForHistograms(4, feedbackbypass.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := feedbackbypass.SaveFile(path, b); err != nil {
		t.Fatal(err)
	}
	loaded, err := feedbackbypass.LoadFile(path, codec.P())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.D() != 3 || loaded.P() != 3 {
		t.Errorf("loaded dims %d, %d", loaded.D(), loaded.P())
	}
	if err := feedbackbypass.SaveFile(path, nil); err == nil {
		t.Error("nil module should error")
	}
	if _, err := feedbackbypass.LoadFile(filepath.Join(dir, "missing"), 3); err == nil {
		t.Error("missing file should error")
	}
	// Wrong parameter split on load is rejected.
	if _, err := feedbackbypass.LoadFile(path, 99); err == nil {
		t.Error("wrong P should error")
	}
}

func TestCoveringSimplexDomain(t *testing.T) {
	// Non-histogram features in [0,1]^D use the covering simplex domain.
	d := 4
	b, err := feedbackbypass.New(d, d, feedbackbypass.Config{Domain: feedbackbypass.CoveringSimplex(d)})
	if err != nil {
		t.Fatal(err)
	}
	// Corner of the cube is inside the covering simplex.
	oqp, err := b.Predict([]float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(oqp.Delta) != d {
		t.Errorf("Delta dim = %d", len(oqp.Delta))
	}
	if _, err := feedbackbypass.New(d, d, feedbackbypass.Config{Domain: feedbackbypass.StandardSimplex(d + 1)}); err == nil {
		t.Error("mismatched domain should error")
	}
}
