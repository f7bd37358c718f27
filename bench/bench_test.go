package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestQuickSmoke runs the -quick benchmark end to end — all four
// workloads, one HTTP pass each against a real fbserve process, traced
// run included — so a change to a server flag, route or JSON field the
// harness depends on fails here rather than in a measurement run.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts fbserve processes; skipped under -short")
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	results, err := runAll(e, workloads, quickSizing, 1, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		r := results[w.name]
		if err := checkSpec(e.spec, r, true); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		for _, p := range r.problems {
			t.Errorf("%s: %s", w.name, p)
		}
		if r.attempted == 0 {
			t.Errorf("%s: no operation attempted", w.name)
		}
		for _, s := range e.spec.EndToEnd {
			if !(r.metrics[s.Name] > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, s.Name, r.metrics[s.Name])
			}
		}
		// The bypass check: only the durable workload touches persistence.
		if got := r.metrics["persist.fsyncs_per_insert"]; w.durable != (got >= 1) {
			t.Errorf("%s: persist.fsyncs_per_insert = %v", w.name, got)
		}
		if _, err := os.Stat(filepath.Join(e.out, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
	if got := results["revisit"].metrics["service.cache_hit_rate"]; got < 0.95 {
		t.Errorf("revisit: service.cache_hit_rate = %v, want >= 0.95", got)
	}
	if got := results["explore"].metrics["service.cache_hit_rate"]; got != 0 {
		t.Errorf("explore: service.cache_hit_rate = %v, want 0", got)
	}
	if entries, _ := os.ReadDir(e.tmp); len(entries) != 0 {
		t.Errorf("%d temporary directories left under %s", len(entries), e.tmp)
	}
}

// TestScriptIsPureFunctionOfSeed pins the determinism the exact metrics
// rest on.
func TestScriptIsPureFunctionOfSeed(t *testing.T) {
	for _, w := range workloads {
		ds, err := labelCollection(w.scale * quickSizing.scaleMul)
		if err != nil {
			t.Fatal(err)
		}
		a, err := buildScript(ds, w, quickSizing, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildScript(ds, w, quickSizing, 1)
		c, _ := buildScript(ds, w, quickSizing, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two scripts", w.name)
		}
		if reflect.DeepEqual(a.lat, c.lat) {
			t.Errorf("%s: seeds 1 and 2 gave the same latency script", w.name)
		}
	}
}

// TestBenchmarkJSONNamesTheWorkloads keeps BENCHMARK.json and the
// workload table from drifting apart.
func TestBenchmarkJSONNamesTheWorkloads(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", got, want)
	}
}
