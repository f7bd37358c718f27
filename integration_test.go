package feedbackbypass_test

import (
	"testing"

	feedbackbypass "repro"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/histogram"
	"repro/internal/imagegen"
)

// TestIntegrationFullPipeline drives the complete paper workflow through
// the public API: build the image collection, attach a Bypass to the
// interactive engine, train it on feedback-loop outcomes, verify that
// predictions improve first-round retrieval, close the module, and
// confirm the reopened module behaves identically.
func TestIntegrationFullPipeline(t *testing.T) {
	ds, err := dataset.Build(imagegen.IMSILike(31, 0.05), histogram.DefaultExtractor)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(ds, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	codec := feedbackbypass.HistogramCodec{Bins: ds.Dim}
	dir := t.TempDir()
	cfg := feedbackbypass.Config{Epsilon: 0.05, DefaultWeights: codec.DefaultWeights()}
	bypass, err := feedbackbypass.OpenDurable(dir, codec.D(), codec.P(), cfg, feedbackbypass.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}

	const k = 10
	// Train: run the feedback loop for the first half of the query pool
	// and store every converged outcome through the public API.
	var pool []int
	for _, cat := range ds.QueryCats {
		pool = append(pool, ds.ByCategory[cat]...)
	}
	if len(pool) < 40 {
		t.Fatalf("pool too small: %d", len(pool))
	}
	trainN := len(pool) / 2
	for _, idx := range pool[:trainN] {
		item := ds.Items[idx]
		loop, err := experiments.OracleLoop(eng, item.Category, item.Feature, eng.UniformWeights(), k)
		if err != nil {
			t.Fatal(err)
		}
		qOpt, wOpt := loop.Params()
		oqp, err := codec.EncodeOQP(item.Feature, qOpt, wOpt)
		if err != nil {
			t.Fatal(err)
		}
		qp, err := codec.QueryPoint(item.Feature)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bypass.Insert(qp, oqp); err != nil {
			t.Fatal(err)
		}
	}
	if bypass.Stats().Points == 0 {
		t.Fatal("nothing was learned")
	}

	// Evaluate on the held-out half: predicted parameters must not lose to
	// the defaults on aggregate.
	var goodDefault, goodBypass int
	for _, idx := range pool[trainN:] {
		item := ds.Items[idx]
		defRes, err := eng.Retrieve(item.Feature, eng.UniformWeights(), k)
		if err != nil {
			t.Fatal(err)
		}
		goodDefault += eng.GoodCount(item.Category, defRes)

		qp, err := codec.QueryPoint(item.Feature)
		if err != nil {
			t.Fatal(err)
		}
		oqp, err := bypass.Predict(qp)
		if err != nil {
			t.Fatal(err)
		}
		qPred, wPred, err := codec.DecodeOQP(item.Feature, oqp)
		if err != nil {
			t.Fatal(err)
		}
		bypRes, err := eng.Retrieve(qPred, wPred, k)
		if err != nil {
			t.Fatal(err)
		}
		goodBypass += eng.GoodCount(item.Category, bypRes)
	}
	t.Logf("held-out good matches: default %d, bypass %d (over %d queries at k=%d)",
		goodDefault, goodBypass, len(pool)-trainN, k)
	if goodBypass < goodDefault {
		t.Errorf("predictions lose to defaults on held-out queries: %d < %d", goodBypass, goodDefault)
	}

	// Close and reopen: predictions must be bit-identical.
	held := pool[trainN : trainN+10]
	want := make([]feedbackbypass.OQP, len(held))
	for i, idx := range held {
		qp, _ := codec.QueryPoint(ds.Items[idx].Feature)
		if want[i], err = bypass.Predict(qp); err != nil {
			t.Fatal(err)
		}
	}
	if err := bypass.Close(); err != nil {
		t.Fatal(err)
	}
	reloaded, err := feedbackbypass.OpenDurable(dir, codec.D(), codec.P(), cfg, feedbackbypass.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reloaded.Close()
	for i, idx := range held {
		qp, _ := codec.QueryPoint(ds.Items[idx].Feature)
		a := want[i]
		b, err := reloaded.Predict(qp)
		if err != nil {
			t.Fatal(err)
		}
		for j := range a.Delta {
			if a.Delta[j] != b.Delta[j] {
				t.Fatal("delta drift after reload")
			}
		}
		for j := range a.Weights {
			if a.Weights[j] != b.Weights[j] {
				t.Fatal("weights drift after reload")
			}
		}
	}
}
