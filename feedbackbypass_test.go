package feedbackbypass_test

import (
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

// TestSaveLoadRoundTrip: a module closed and reopened through
// OpenDurable predicts what it predicted before the Close.
func TestSaveLoadRoundTrip(t *testing.T) {
	bins := 6
	codec := feedbackbypass.HistogramCodec{Bins: bins}
	dir := t.TempDir()
	cfg := feedbackbypass.Config{DefaultWeights: codec.DefaultWeights()}
	b, err := feedbackbypass.OpenDurable(dir, codec.D(), codec.P(), cfg, feedbackbypass.DurableOptions{})
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
	want := make([]feedbackbypass.OQP, len(queries))
	for i, q := range queries {
		qp, _ := codec.QueryPoint(q)
		if want[i], err = b.Predict(qp); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := feedbackbypass.OpenDurable(dir, codec.D(), codec.P(), cfg, feedbackbypass.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	for i, q := range queries {
		qp, _ := codec.QueryPoint(q)
		got, err := loaded.Predict(qp)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want[i].Delta {
			if math.Abs(got.Delta[j]-want[i].Delta[j]) > 1e-12 {
				t.Fatal("delta mismatch after reopen")
			}
		}
		for j := range want[i].Weights {
			if math.Abs(got.Weights[j]-want[i].Weights[j]) > 1e-12 {
				t.Fatal("weights mismatch after reopen")
			}
		}
	}
}

// TestSaveLoadFile: a module's directory reopens only under the
// dimensions it was written with, and a directory that cannot be made is
// an error.
func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	codec := feedbackbypass.HistogramCodec{Bins: 4}
	b, err := feedbackbypass.OpenDurable(dir, codec.D(), codec.P(), feedbackbypass.Config{}, feedbackbypass.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := feedbackbypass.OpenDurable(dir, codec.D(), codec.P(), feedbackbypass.Config{}, feedbackbypass.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.D() != 3 || loaded.P() != 3 {
		t.Errorf("loaded dims %d, %d", loaded.D(), loaded.P())
	}
	if err := loaded.Close(); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, "tree.fbwl")
	if _, err := feedbackbypass.OpenDurable(filepath.Join(file, "sub"), 3, 3, feedbackbypass.Config{}, feedbackbypass.DurableOptions{}); err == nil {
		t.Error("a directory under a file should error")
	}
	// Wrong parameter split on reopen is rejected.
	if _, err := feedbackbypass.OpenDurable(dir, 3, 99, feedbackbypass.Config{}, feedbackbypass.DurableOptions{}); err == nil {
		t.Error("wrong P should error")
	}
}
