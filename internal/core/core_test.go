package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

func TestOQPEncodeDecodeRoundTrip(t *testing.T) {
	o := OQP{Delta: []float64{1, 2}, Weights: []float64{3, 4, 5}}
	enc := o.Encode()
	if !vec.Equal(enc, []float64{1, 2, 3, 4, 5}) {
		t.Fatalf("Encode = %v", enc)
	}
	back, err := DecodeOQP(enc, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(back.Delta, o.Delta) || !vec.Equal(back.Weights, o.Weights) {
		t.Errorf("round trip = %+v", back)
	}
	if _, err := DecodeOQP(enc, 3, 3); err == nil {
		t.Error("bad split should error")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 2, Config{}); err == nil {
		t.Error("D=0 should error")
	}
	if _, err := New(2, -1, Config{}); err == nil {
		t.Error("P<0 should error")
	}
	b, err := New(2, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if b.D() != 2 || b.P() != 2 {
		t.Errorf("D=%d P=%d", b.D(), b.P())
	}
}

func TestUntrainedPredictsDefaults(t *testing.T) {
	b, err := New(3, 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	oqp, err := b.Predict([]float64{0.2, 0.2, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !vec.EqualTol(oqp.Delta, []float64{0, 0, 0}, 1e-9) {
		t.Errorf("default Δ = %v", oqp.Delta)
	}
	if !vec.EqualTol(oqp.Weights, []float64{1, 1, 1}, 1e-9) {
		t.Errorf("default W = %v", oqp.Weights)
	}
}

func TestInsertPredictRoundTrip(t *testing.T) {
	b, err := New(2, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{0.3, 0.3}
	in := OQP{Delta: []float64{0.05, -0.02}, Weights: []float64{2, 0.5}}
	changed, err := b.Insert(q, in)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("insert should store")
	}
	out, err := b.Predict(q)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.EqualTol(out.Delta, in.Delta, 1e-9) || !vec.EqualTol(out.Weights, in.Weights, 1e-9) {
		t.Errorf("predict after insert = %+v", out)
	}
}

func TestInsertValidation(t *testing.T) {
	b, _ := New(2, 2, Config{})
	q := []float64{0.3, 0.3}
	if _, err := b.Insert(q, OQP{Delta: []float64{1}, Weights: []float64{1, 1}}); err == nil {
		t.Error("Δ length mismatch should error")
	}
	if _, err := b.Insert(q, OQP{Delta: []float64{0, 0}, Weights: []float64{1}}); err == nil {
		t.Error("W length mismatch should error")
	}
	if _, err := b.Insert(q, OQP{Delta: []float64{math.NaN(), 0}, Weights: []float64{1, 1}}); err == nil {
		t.Error("NaN OQP should error")
	}
}

func TestDefaultWeightsConfig(t *testing.T) {
	b, err := New(2, 2, Config{DefaultWeights: []float64{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	oqp, err := b.Predict([]float64{0.2, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !vec.EqualTol(oqp.Weights, []float64{0, 0}, 1e-12) {
		t.Errorf("default weights = %v", oqp.Weights)
	}
	if _, err := New(2, 2, Config{DefaultWeights: []float64{1}}); err == nil {
		t.Error("wrong-length default weights should error")
	}
}

// TestOpenDurableChecksDims: a module reopens only under the D and P
// its log was written with.
func TestOpenDurableChecksDims(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenDurable(dir, 2, 3, Config{}, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if b.D() != 2 || b.P() != 3 {
		t.Errorf("D=%d P=%d", b.D(), b.P())
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(dir, 2, 4, Config{}, DurableOptions{}); err == nil {
		t.Error("inconsistent P should error")
	}
	if _, err := OpenDurable(dir, 3, 2, Config{}, DurableOptions{}); err == nil {
		t.Error("inconsistent D should error")
	}
	if _, err := OpenDurable("", 0, 1, Config{}, DurableOptions{}); err == nil {
		t.Error("D = 0 should error")
	}
	if _, err := OpenDurable("", 2, 3, Config{}, DurableOptions{CompactEvery: -1}); err == nil {
		t.Error("negative CompactEvery should error")
	}
}

// TestOpenDurableChecksPolicy refuses a negative quota, and a threshold
// that is negative or one a log could not reopen with (NaN, +Inf), the
// same way without a directory, on a fresh one and on one that already
// holds a log, where the tree comes from recovery rather than from
// simplextree.New.
func TestOpenDurableChecksPolicy(t *testing.T) {
	logged := t.TempDir()
	b, err := OpenDurable(logged, 2, 3, Config{}, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{{MaxVertices: -1}, {Epsilon: -0.5}, {Epsilon: math.NaN()}, {Epsilon: math.Inf(1)}} {
		for name, dir := range map[string]string{"no dir": "", "fresh dir": t.TempDir(), "logged dir": logged} {
			if b, err := OpenDurable(dir, 2, 3, cfg, DurableOptions{}); err == nil {
				_ = b.Close()
				t.Errorf("%s: %+v accepted", name, cfg)
			}
		}
	}
}

func TestStats(t *testing.T) {
	b, _ := New(2, 2, Config{})
	st := b.Stats()
	if st.Points != 0 || st.Leaves != 1 {
		t.Errorf("empty stats = %+v", st)
	}
}

func TestHistogramCodecValidation(t *testing.T) {
	if _, err := NewHistogramCodec(1); err == nil {
		t.Error("1 bin should error")
	}
	c, err := NewHistogramCodec(4)
	if err != nil {
		t.Fatal(err)
	}
	if c.D() != 3 || c.P() != 3 {
		t.Errorf("D=%d P=%d", c.D(), c.P())
	}
}

func TestHistogramCodecQueryPoint(t *testing.T) {
	c, _ := NewHistogramCodec(4)
	q, err := c.QueryPoint([]float64{0.4, 0.3, 0.2, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(q, []float64{0.4, 0.3, 0.2}) {
		t.Errorf("QueryPoint = %v", q)
	}
	if _, err := c.QueryPoint([]float64{1, 2}); err == nil {
		t.Error("wrong length should error")
	}
}

func TestHistogramCodecEncodeDecodeRoundTrip(t *testing.T) {
	c, _ := NewHistogramCodec(4)
	q := []float64{0.4, 0.3, 0.2, 0.1}
	qopt := []float64{0.35, 0.35, 0.15, 0.15}
	w := []float64{2, 1, 0.5, 0.25}
	oqp, err := c.EncodeOQP(q, qopt, w)
	if err != nil {
		t.Fatal(err)
	}
	// Weights are stored as log-ratios against the pinned last weight.
	want := []float64{math.Log(8), math.Log(4), math.Log(2)}
	if !vec.EqualTol(oqp.Weights, want, 1e-12) {
		t.Errorf("encoded W = %v, want %v", oqp.Weights, want)
	}
	backQ, backW, err := c.DecodeOQP(q, oqp)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.EqualTol(backQ, qopt, 1e-12) {
		t.Errorf("decoded qopt = %v, want %v", backQ, qopt)
	}
	// Decoded weights are the original scaled by 1/w_last — the same
	// metric up to a global factor.
	for i := range w {
		wantW := w[i] / w[3]
		if math.Abs(backW[i]-wantW) > 1e-9 {
			t.Errorf("decoded w[%d] = %v, want %v", i, backW[i], wantW)
		}
	}
}

func TestHistogramCodecLogClamping(t *testing.T) {
	c, _ := NewHistogramCodec(3)
	q := []float64{0.5, 0.3, 0.2}
	// Extreme weight ratio: clamped to MaxLogWeight at encode time.
	oqp, err := c.EncodeOQP(q, q, []float64{1e30, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if oqp.Weights[0] != MaxLogWeight {
		t.Errorf("encoded extreme ratio = %v", oqp.Weights[0])
	}
	// Negative or zero weights are rejected.
	if _, err := c.EncodeOQP(q, q, []float64{0, 1, 1}); err == nil {
		t.Error("zero weight should error")
	}
	if _, err := c.EncodeOQP(q, q, []float64{-1, 1, 1}); err == nil {
		t.Error("negative weight should error")
	}
	if !vec.Equal(c.DefaultWeights(), []float64{0, 0}) {
		t.Errorf("DefaultWeights = %v", c.DefaultWeights())
	}
}

func TestHistogramCodecDecodeClamps(t *testing.T) {
	c, _ := NewHistogramCodec(3)
	q := []float64{0.5, 0.5, 0}
	// A delta pushing component 1 negative and last bin negative, plus
	// out-of-range and NaN log-ratios.
	oqp := OQP{Delta: []float64{0.2, -0.6}, Weights: []float64{-50, math.NaN()}}
	qopt, w, err := c.DecodeOQP(q, oqp)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range qopt {
		if x < 0 {
			t.Errorf("qopt[%d] = %v negative", i, x)
		}
	}
	if w[0] != math.Exp(-MaxLogWeight) {
		t.Errorf("clamped low weight = %v", w[0])
	}
	if w[1] != 1 { // NaN log-ratio decodes to the neutral weight
		t.Errorf("NaN weight decoded to %v", w[1])
	}
	if w[2] != 1 {
		t.Errorf("pinned weight = %v", w[2])
	}
}

func TestHistogramCodecErrors(t *testing.T) {
	c, _ := NewHistogramCodec(3)
	good := []float64{0.3, 0.3, 0.4}
	if _, err := c.EncodeOQP(good, good, []float64{1, 1}); err == nil {
		t.Error("short weights should error")
	}
	if _, err := c.EncodeOQP(good, good, []float64{1, 1, 0}); err == nil {
		t.Error("zero pinned weight should error")
	}
	if _, _, err := c.DecodeOQP([]float64{1}, OQP{}); err == nil {
		t.Error("short query should error")
	}
	if _, _, err := c.DecodeOQP(good, OQP{Delta: []float64{1}, Weights: []float64{1, 1}}); err == nil {
		t.Error("short OQP should error")
	}
}

func TestEndToEndHistogramFlow(t *testing.T) {
	// Full Example 1 flow at small scale: histograms with 4 bins, learn a
	// mapping, predict for a nearby query.
	c, _ := NewHistogramCodec(4)
	b, err := New(c.D(), c.P(), Config{DefaultWeights: c.DefaultWeights()})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	// Train on queries around (0.4, 0.3, 0.2, 0.1) whose optimum shifts
	// mass to bin 0 and weights bin 0 heavily.
	for i := 0; i < 10; i++ {
		q := []float64{0.4 + rng.Float64()*0.05, 0.3, 0.2, 0}
		q[3] = 1 - q[0] - q[1] - q[2]
		qopt := vec.Clone(q)
		qopt[0] += 0.05
		qopt[3] -= 0.05
		w := []float64{4, 1, 1, 1}
		oqp, err := c.EncodeOQP(q, qopt, w)
		if err != nil {
			t.Fatal(err)
		}
		qp, err := c.QueryPoint(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Insert(qp, oqp); err != nil {
			t.Fatal(err)
		}
	}
	// A new query in the trained region should predict a positive Δ on
	// bin 0 and an elevated weight on bin 0.
	q := []float64{0.42, 0.3, 0.2, 0.08}
	qp, _ := c.QueryPoint(q)
	oqp, err := b.Predict(qp)
	if err != nil {
		t.Fatal(err)
	}
	qopt, w, err := c.DecodeOQP(q, oqp)
	if err != nil {
		t.Fatal(err)
	}
	if qopt[0] <= q[0] {
		t.Errorf("predicted qopt[0] = %v, want > %v", qopt[0], q[0])
	}
	if w[0] <= 1.5 {
		t.Errorf("predicted w[0] = %v, want elevated", w[0])
	}
}
