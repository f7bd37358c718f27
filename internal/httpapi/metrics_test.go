package httpapi

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obsv"
)

// newInstrumentedTestServer wires the production handler over one
// durable collection with the observability plane attached end to end —
// the same composition BuildCollection does when -addr serving starts.
func newInstrumentedTestServer(t *testing.T, pprofOn bool) (*httptest.Server, *dataset.Dataset, *obsv.Registry) {
	t.Helper()
	reg := obsv.NewRegistry()
	RegisterProcessMetrics(reg)
	c := newTestCollectionWith(t, 7, core.DurableOptions{Obs: reg, ObsLabels: collectionLabels})
	srv := httptest.NewServer(Hardened(NewMux(c, reg, pprofOn), 0, reg))
	t.Cleanup(srv.Close)
	return srv, c.Dataset, reg
}

// TestMetricsEndpoint drives real traffic through the instrumented
// stack and checks /metrics exposes the key series from every layer:
// service request path, WAL, and process runtime.
func TestMetricsEndpoint(t *testing.T) {
	srv, ds, _ := newInstrumentedTestServer(t, false)

	// One full session so service + WAL instruments have observations.
	item := 0
	category := ds.Items[item].Category
	var st stateJSON
	if code := postJSON(t, srv.URL+"/query", queryRequest{Item: &item, K: 8}, &st); code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}
	for i := 0; i < 10 && !st.Converged; i++ {
		scores := make([]float64, len(st.Results))
		for j, r := range st.Results {
			if r.Category == category {
				scores[j] = 1
			}
		}
		if code := postJSON(t, srv.URL+"/feedback", feedbackRequest{Session: st.Session, Scores: scores}, &st); code != http.StatusOK {
			t.Fatalf("feedback: status %d", code)
		}
	}
	if code := postJSON(t, srv.URL+"/close", closeRequest{Session: st.Session}, nil); code != http.StatusOK {
		t.Fatalf("close: status %d", code)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`fb_service_requests_total{collection="default",op="open",outcome="ok"} 1`,
		`fb_service_request_seconds_bucket{collection="default",op="open",le="+Inf"} 1`,
		`fb_service_requests_total{collection="default",op="close",outcome="ok"} 1`,
		`fb_service_cache_requests_total{collection="default",result="miss"}`,
		`fb_wal_append_seconds_count{collection="default"}`,
		`fb_wal_bytes{collection="default"}`,
		`fb_tree_points{collection="default"}`,
		`fb_tree_depth{collection="default"}`,
		`fb_service_sessions_active{collection="default"} 0`,
		`fb_process_goroutines`,
		`fb_process_start_time_seconds`,
		"# TYPE fb_service_request_seconds histogram",
		"# TYPE fb_service_requests_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestRequestIDOnSuccess: every hardened response carries X-Request-Id,
// not just errors, and IDs differ between requests.
func TestRequestIDOnSuccess(t *testing.T) {
	srv, _, _ := newInstrumentedTestServer(t, false)
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		rid := resp.Header.Get("X-Request-Id")
		if rid == "" {
			t.Fatal("healthz response without X-Request-Id")
		}
		if seen[rid] {
			t.Fatalf("duplicate request id %q", rid)
		}
		seen[rid] = true
	}
}

// TestStatsServerInfo: /stats and /healthz surface the process identity
// block (start time, go version, pid).
func TestStatsServerInfo(t *testing.T) {
	srv, _, _ := newInstrumentedTestServer(t, false)
	var stats statsResponse
	if code := getJSON(t, srv.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if stats.Server.StartTime == "" || stats.Server.GoVersion == "" || stats.Server.PID == 0 {
		t.Fatalf("stats server info incomplete: %+v", stats.Server)
	}
	if stats.Server.UptimeSeconds < 0 {
		t.Fatalf("negative uptime: %+v", stats.Server)
	}
	var health struct {
		Server serverInfo `json:"server"`
	}
	if code := getJSON(t, srv.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if health.Server.PID == 0 || health.Server.GoVersion == "" {
		t.Fatalf("healthz server info incomplete: %+v", health.Server)
	}
}

// TestPprofGating: /debug/pprof is 404 unless -pprof was passed.
func TestPprofGating(t *testing.T) {
	off, _, _ := newInstrumentedTestServer(t, false)
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof off: status %d, want 404", resp.StatusCode)
	}

	on, _, _ := newInstrumentedTestServer(t, true)
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof on: status %d, body %.80s", resp.StatusCode, body)
	}
}

// TestMemoryCollectionExportsNoPersistenceSeries: the default fbserve
// (no -dir) serves a memory-mode module, which has no journal and no
// snapshot — so it must not export series that could only ever read 0.
// It does compact under -age-horizon: after a quota-pressure retry and
// one scheduled pass, the lifecycle series match the module's counters.
func TestMemoryCollectionExportsNoPersistenceSeries(t *testing.T) {
	reg := obsv.NewRegistry()
	cfg := Config{Scale: 0.03, Seed: 5, K: 8, Epsilon: 0.05,
		MaxSessions: 16, IterBudget: 5, CacheSize: 16, Obs: reg,
		MaxVertices: 32 + 4, AgeHorizon: 2} // the D+1 = 32 corners and 4 inserts
	c, err := BuildCollection("synth:scale=0.03,seed=5", cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	d, p := c.Bypass.D(), c.Bypass.P()
	for i := 0; c.Bypass.Compactions() == 0; i++ {
		if i == 16 {
			t.Fatal("16 inserts never tripped the vertex quota")
		}
		// An interior point of the standard simplex, and an outcome far
		// from the default prediction so ε never skips it.
		q := make([]float64, d+1)
		var sum float64
		for j := range q {
			q[j] = rng.ExpFloat64()
			sum += q[j]
		}
		oqp := core.OQP{Delta: make([]float64, d), Weights: make([]float64, p)}
		for j := range oqp.Delta {
			q[j] /= sum
			oqp.Delta[j] = rng.NormFloat64() * 0.05
		}
		for j := range oqp.Weights {
			oqp.Weights[j] = 1 + rng.Float64()
		}
		if _, err := c.Bypass.Insert(q[:d], oqp); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if _, err := c.Service.CompactAged(context.Background()); err != nil {
		t.Fatal(err)
	}
	compactions, reclaimed := c.Bypass.Compactions(), c.Bypass.Reclaimed()
	if compactions != 2 || reclaimed == 0 {
		t.Fatalf("module counters: %d compactions reclaimed %d; want a quota retry and a pass, reclaiming some", compactions, reclaimed)
	}
	snap := reg.Snapshot()
	label := obsv.L("collection", "default")
	for name, want := range map[string]uint64{
		"fb_bypass_compactions_total":        compactions,
		"fb_bypass_reclaimed_vertices_total": reclaimed,
	} {
		if m := snap.Find(name, label); m == nil || m.Value != float64(want) {
			t.Errorf("%s = %+v, want %d", name, m, want)
		}
	}
	if m := snap.Find("fb_bypass_compaction_seconds", label); m == nil || m.Hist.Count != compactions {
		t.Errorf("fb_bypass_compaction_seconds = %+v, want %d observations", m, compactions)
	}
	for _, name := range []string{"fb_bypass_compaction_points_before", "fb_bypass_compaction_points_after"} {
		if snap.Find(name, label) == nil {
			t.Errorf("memory collection lacks %s", name)
		}
	}

	var buf strings.Builder
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, family := range []string{"fb_wal_", "fb_snapshot_"} {
		if strings.Contains(text, family) {
			t.Errorf("memory collection exports a %s* series", family)
		}
	}
	// The tree series do apply, under the collection label alone.
	for _, want := range []string{
		`fb_tree_points{collection="default"}`,
		`fb_tree_depth{collection="default"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("memory collection lacks %s", want)
		}
	}
}
