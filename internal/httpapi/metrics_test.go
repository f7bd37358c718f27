package httpapi

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/obsv"
	"repro/internal/shardedbypass"
)

// newInstrumentedTestServer wires the production handler over one
// durable collection with the observability plane attached end to end —
// the same composition BuildCollection does when -addr serving starts.
func newInstrumentedTestServer(t *testing.T, pprofOn bool) (*httptest.Server, *dataset.Dataset, *obsv.Registry) {
	t.Helper()
	reg := obsv.NewRegistry()
	RegisterProcessMetrics(reg)
	labels := []obsv.Label{obsv.L("collection", "default")}
	c := newTestCollectionWith(t, "default", 7, shardedbypass.Options{Obs: reg, ObsLabels: labels})
	srv := httptest.NewServer(Hardened(NewMux(map[string]*Collection{"default": c}, "default", reg, pprofOn), 0, reg))
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
		`fb_wal_append_seconds_count{collection="default",shard="0"}`,
		`fb_wal_bytes{collection="default",shard="0"}`,
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
func TestMemoryCollectionExportsNoPersistenceSeries(t *testing.T) {
	reg := obsv.NewRegistry()
	cfg := Config{Scale: 0.03, Seed: 5, K: 8, Epsilon: 0.05,
		MaxSessions: 16, IterBudget: 5, CacheSize: 16, Shards: 1, Obs: reg}
	if _, err := BuildCollection("default", "synth:scale=0.03,seed=5", cfg); err != nil {
		t.Fatal(err)
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
	// The per-shard series that do apply are there, labelled shard="0".
	for _, want := range []string{
		`fb_tree_points{collection="default",shard="0"}`,
		`fb_shard_insert_seconds_count{collection="default",shard="0"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("memory collection lacks %s", want)
		}
	}
}
