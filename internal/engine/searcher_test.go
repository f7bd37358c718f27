package engine

import (
	"reflect"
	"testing"

	"repro/internal/ann"
	"repro/internal/dataset"
	"repro/internal/histogram"
	"repro/internal/imagegen"
	"repro/internal/knn"
	"repro/internal/store"
)

// TestInjectedSearcher pins the Options.Searcher seam: an injected IVF
// tier at nprobe = nlist answers Retrieve and RetrieveBatch identically
// to the default exact scan, and Retrieval reports the active tier.
func TestInjectedSearcher(t *testing.T) {
	ds, err := dataset.Build(imagegen.IMSILike(3, 0.05), histogram.DefaultExtractor)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := exact.Retrieval(); got != "scan" {
		t.Fatalf("default Retrieval() = %q, want scan", got)
	}
	idx, err := ann.Build(ds.Matrix(), ann.Options{NList: 8, NProbe: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := New(ds, Options{Searcher: idx})
	if err != nil {
		t.Fatal(err)
	}
	if got := approx.Retrieval(); got != "ivf(nlist=8,nprobe=8,quant=f32)" {
		t.Fatalf("injected Retrieval() = %q", got)
	}
	w := exact.UniformWeights()
	qs := make([]WeightedQuery, 4)
	for i := range qs {
		qs[i] = WeightedQuery{Q: ds.Items[i*7].Feature, W: w}
	}
	for _, wq := range qs {
		want, err := exact.Retrieve(wq.Q, wq.W, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := approx.Retrieve(wq.Q, wq.W, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("full-probe injected searcher differs from exact scan")
		}
	}
	wantB, err := exact.RetrieveBatch(qs, 10)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := approx.RetrieveBatch(qs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotB, wantB) {
		t.Fatal("batch retrieval through injected searcher differs")
	}

	tiny, err := store.FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	small, err := knn.NewScanBackend(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(ds, Options{Searcher: small}); err == nil {
		t.Fatal("searcher with mismatched length accepted")
	}
}
