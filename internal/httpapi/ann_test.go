package httpapi

import (
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ann"
	"repro/internal/dataset"
	"repro/internal/histogram"
	"repro/internal/imagegen"
	"repro/internal/store"
)

func TestANNSpecParsing(t *testing.T) {
	var as ANNSpecs
	if err := as.Add("nlist=64,nprobe=8,quant=i8,seed=7"); err != nil {
		t.Fatal(err)
	}
	if err := as.Add("photos:nlist=256"); err != nil {
		t.Fatal(err)
	}
	if s := as.ForName("photos"); s == nil || s.nlist != 256 || s.quant != ann.QuantF32 {
		t.Fatalf("photos spec = %+v", as.ForName("photos"))
	}
	if s := as.ForName("birds"); s == nil || s.nlist != 64 || s.nprobe != 8 || s.quant != ann.QuantI8 || s.seed != 7 {
		t.Fatalf("fallback spec = %+v", as.ForName("birds"))
	}
	if err := as.Add("nlist=10"); err == nil {
		t.Fatal("duplicate collection-wide spec accepted")
	}
	if err := as.Add("photos:nlist=10"); err == nil {
		t.Fatal("duplicate per-collection spec accepted")
	}
	for _, bad := range []string{"nlist", "nlist=x", "quant=f16", "bogus=1"} {
		var fresh ANNSpecs
		if err := fresh.Add(bad); err == nil {
			t.Fatalf("bad spec %q accepted", bad)
		}
	}
	var empty ANNSpecs
	if empty.ForName("any") != nil {
		t.Fatal("empty specs resolved a non-nil spec")
	}
}

// TestANNServing serves a collection through a built IVF tier end to
// end: sessions open and iterate normally, and /stats names the tier.
func TestANNServing(t *testing.T) {
	cfg := Config{Scale: 0.05, Seed: 3, K: 8, Epsilon: 0.05,
		MaxSessions: 16, IterBudget: 5, CacheSize: 16, Shards: 1}
	if err := cfg.ANN.Add("nlist=16,nprobe=4"); err != nil {
		t.Fatal(err)
	}
	c, err := BuildCollection("default", "synth:scale=0.05,seed=3", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.ann == nil || c.annSrc != "built" {
		t.Fatalf("collection has no built ANN tier (src %q)", c.annSrc)
	}
	srv := httptest.NewServer(NewMux(map[string]*Collection{"default": c}, "default", nil, false))
	defer srv.Close()

	var stats struct {
		Collection struct {
			Index       string `json:"index"`
			IndexSource string `json:"index_source"`
		} `json:"collection"`
		Retrieval string `json:"retrieval"`
	}
	if code := getJSON(t, srv.URL+"/c/default/stats", &stats); code != 200 {
		t.Fatalf("stats: %d", code)
	}
	if stats.Collection.Index != "ivf(nlist=16,nprobe=4,quant=f32)" || stats.Collection.IndexSource != "built" {
		t.Fatalf("stats index fields = %+v", stats.Collection)
	}
	if stats.Retrieval != "ivf(nlist=16,nprobe=4,quant=f32)" {
		t.Fatalf("stats retrieval = %q", stats.Retrieval)
	}

	var opened stateJSON
	item := 0
	if code := postJSON(t, srv.URL+"/query", queryRequest{Item: &item, K: 5}, &opened); code != 200 {
		t.Fatalf("query: %d", code)
	}
	if len(opened.Results) != 5 {
		t.Fatalf("got %d results, want 5", len(opened.Results))
	}
	scores := make([]float64, len(opened.Results))
	for i, r := range opened.Results {
		if r.Category == opened.Results[0].Category {
			scores[i] = 1
		}
	}
	var after stateJSON
	if code := postJSON(t, srv.URL+"/feedback", feedbackRequest{Session: opened.Session, Scores: scores}, &after); code != 200 {
		t.Fatalf("feedback: %d", code)
	}
	if code := postJSON(t, srv.URL+"/close", closeRequest{Session: opened.Session}, nil); code != 200 {
		t.Fatalf("close: %d", code)
	}
}

// TestANNSidecarAutoload exports a collection as FBMX + FBIX, then
// builds an mmap-backed collection and checks the sidecar is loaded
// (with the -ann flag's nprobe override applied).
func TestANNSidecarAutoload(t *testing.T) {
	ds, err := dataset.Build(imagegen.IMSILike(11, 0.05), histogram.DefaultExtractor)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fbmx := filepath.Join(dir, "col.fbmx")
	if err := store.WriteFBMX(fbmx, ds.Matrix()); err != nil {
		t.Fatal(err)
	}
	idx, err := ann.Build(ds.Matrix(), ann.Options{NList: 8, NProbe: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := ann.WriteFBIX(strings.TrimSuffix(fbmx, ".fbmx")+".fbix", idx); err != nil {
		t.Fatal(err)
	}

	cfg := Config{K: 8, Epsilon: 0.05, MaxSessions: 16, IterBudget: 5, CacheSize: 16, Shards: 1}
	if err := cfg.ANN.Add("nprobe=5"); err != nil {
		t.Fatal(err)
	}
	c, err := BuildCollection("col", fbmx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = c.ann.Close()
		_ = c.mm.Close()
	}()
	if c.ann == nil || !strings.HasSuffix(c.annSrc, ".fbix") {
		t.Fatalf("sidecar not loaded (src %q)", c.annSrc)
	}
	// Sidecar structure (nlist=8) with the flag's nprobe override (5).
	if got := c.ann.Describe(); got != "ivf(nlist=8,nprobe=5,quant=f32)" {
		t.Fatalf("loaded tier = %q", got)
	}
	if c.ann.Seed() != 9 {
		t.Fatalf("sidecar seed = %d, want 9", c.ann.Seed())
	}
}
