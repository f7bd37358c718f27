package feedbackbypass_test

import (
	"path/filepath"
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
// predictions improve first-round retrieval, persist the module, and
// confirm the reloaded module behaves identically.
func TestIntegrationFullPipeline(t *testing.T) {
	ds, err := dataset.Build(imagegen.IMSILike(31, 0.05), histogram.DefaultExtractor)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(ds, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bypass, codec, err := feedbackbypass.NewForHistograms(ds.Dim, feedbackbypass.Config{Epsilon: 0.05})
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

	// Persist and reload: predictions must be bit-identical.
	path := filepath.Join(t.TempDir(), "tree.fbwl")
	if err := feedbackbypass.SaveFile(path, bypass); err != nil {
		t.Fatal(err)
	}
	reloaded, err := feedbackbypass.LoadFile(path, codec.P())
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range pool[trainN : trainN+10] {
		qp, _ := codec.QueryPoint(ds.Items[idx].Feature)
		a, err1 := bypass.Predict(qp)
		b, err2 := reloaded.Predict(qp)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
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
