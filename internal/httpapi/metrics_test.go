package httpapi

import (
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/faultfs"
	"repro/internal/histogram"
	"repro/internal/imagegen"
	"repro/internal/obsv"
	"repro/internal/service"
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
// It does compact under -age-horizon: after a pass triggered by
// -compact-every and a quota-pressure retry, the lifecycle series match
// the module's counters.
func TestMemoryCollectionExportsNoPersistenceSeries(t *testing.T) {
	reg := obsv.NewRegistry()
	cfg := Config{Scale: 0.03, Seed: 5, K: 8, Epsilon: 0.05,
		MaxSessions: 16, IterBudget: 5, CacheSize: 16, Obs: reg,
		MaxVertices: 32 + 4, AgeHorizon: 2, CompactEvery: 4} // the D+1 = 32 corners and 4 inserts
	c, err := BuildCollection("synth:scale=0.03,seed=5", cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	d, p := c.Bypass.D(), c.Bypass.P()
	// The 4th insert fills the quota and triggers a pass, which reclaims
	// the oldest inserts but not the ones the horizon still covers; an
	// insert before the 8th trips the quota and compacts again.
	for i := 0; c.Bypass.Compactions() < 2; i++ {
		if i == 7 {
			t.Fatalf("7 inserts ran %d compactions, want a triggered pass and a quota retry", c.Bypass.Compactions())
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
	compactions, reclaimed := c.Bypass.Compactions(), c.Bypass.Reclaimed()
	if compactions != 2 || reclaimed == 0 {
		t.Fatalf("module counters: %d compactions reclaimed %d; want a pass and a quota retry, reclaiming some", compactions, reclaimed)
	}
	s := scrape(t, reg)
	for series, want := range map[string]uint64{
		`fb_bypass_compactions_total{collection="default"}`:        compactions,
		`fb_bypass_reclaimed_vertices_total{collection="default"}`: reclaimed,
		`fb_bypass_compaction_seconds_count{collection="default"}`: compactions,
	} {
		if m, ok := s[series]; !ok || m != float64(want) {
			t.Errorf("%s = %v (exposed %v), want %d", series, m, ok, want)
		}
	}
	for _, series := range []string{
		`fb_bypass_compaction_points_before{collection="default"}`,
		`fb_bypass_compaction_points_after{collection="default"}`,
	} {
		if _, ok := s[series]; !ok {
			t.Errorf("memory collection lacks %s", series)
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

// TestStatsReadsMetrics drives a session mix through NewMux — sessions
// fed back to convergence over an aging module that compacts, a
// prediction-cache hit, an admission refusal, outcomes refused by the
// vertex quota and then by a failed journal — and holds every count
// /stats reports to the /metrics series it reads, each of them nonzero:
// one tally per event.
func TestStatsReadsMetrics(t *testing.T) {
	ds, err := dataset.Build(imagegen.IMSILike(5, 0.03), histogram.DefaultExtractor)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(ds, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	codec, err := core.NewHistogramCodec(ds.Dim)
	if err != nil {
		t.Fatal(err)
	}
	reg, fs := obsv.NewRegistry(), faultfs.New(nil)
	db, err := core.OpenDurable(t.TempDir(), codec.D(), codec.P(),
		core.Config{Epsilon: 0.05, DefaultWeights: codec.DefaultWeights(), AgeHorizon: 2},
		core.DurableOptions{CompactEvery: 2, FS: fs, Obs: reg, ObsLabels: collectionLabels})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	svc, err := service.New(eng, db, service.Options{MaxSessions: 2, DefaultK: 8, Obs: reg, ObsLabels: collectionLabels})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewMux(&Collection{Dataset: ds, Service: svc, Bypass: db}, reg, false))
	t.Cleanup(srv.Close)

	// Closes until one answers want, each session fed to convergence.
	item := 0
	closeUntil := func(want int) {
		t.Helper()
		for start := item; ; item++ {
			if item-start == 48 {
				t.Fatalf("48 sessions from item %d, none closed with status %d", start, want)
			}
			if resp, _ := driveSession(t, srv, ds, item); resp.StatusCode == want {
				item++
				return
			}
		}
	}
	for db.Reclaimed() == 0 {
		closeUntil(http.StatusOK)
	}
	// A session closed without feedback inserts nothing, so the reopen
	// hits the cache; the third open is one past MaxSessions.
	var a, b stateJSON
	postJSON(t, srv.URL+"/query", queryRequest{Item: &item, K: 8}, &a)
	postJSON(t, srv.URL+"/close", closeRequest{Session: a.Session}, nil)
	postJSON(t, srv.URL+"/query", queryRequest{Item: &item, K: 8}, &a)
	postJSON(t, srv.URL+"/query", queryRequest{Item: &item, K: 8}, &b)
	if code := postJSON(t, srv.URL+"/query", queryRequest{Item: &item, K: 8}, nil); code != http.StatusTooManyRequests {
		t.Fatalf("open past MaxSessions: status %d", code)
	}
	postJSON(t, srv.URL+"/close", closeRequest{Session: a.Session}, nil)
	postJSON(t, srv.URL+"/close", closeRequest{Session: b.Session}, nil)
	// The tree at its vertex quota, aging off so nothing is reclaimed to
	// make room; then the quota lifted and the journal failing.
	tree := db.Tree()
	tree.SetAgeHorizon(0)
	tree.SetQuota(tree.Stats().DistinctVertices)
	closeUntil(http.StatusInsufficientStorage)
	tree.SetQuota(0)
	fs.AddRule(faultfs.Rule{Op: faultfs.OpWrite, Path: core.JournalFile, Kind: faultfs.Fail})
	closeUntil(http.StatusServiceUnavailable)

	var stats statsResponse
	if code := getJSON(t, srv.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("/stats: status %d", code)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	m := parseProm(t, string(body))
	st := stats.Collections[collectionName]
	series := func(name string, labels ...string) float64 {
		t.Helper()
		key := name + `{collection="default"` + strings.Join(append([]string{""}, labels...), ",") + "}"
		v, ok := m[key]
		if !ok {
			t.Errorf("/metrics has no %s", key)
		}
		return v
	}
	requests := func(op, outcome string) float64 {
		return series("fb_service_requests_total", `op="`+op+`"`, `outcome="`+outcome+`"`)
	}
	hit, miss := series("fb_service_cache_requests_total", `result="hit"`), series("fb_service_cache_requests_total", `result="miss"`)
	for _, c := range []struct {
		field  string
		stat   float64
		metric float64
	}{
		{"opened", float64(st.Opened), requests("open", "ok")},
		{"rejected", float64(st.Rejected), requests("open", "overloaded")},
		{"closed", float64(st.Closed), series("fb_service_sessions_closed_total")},
		{"feedbacks", float64(st.Feedbacks), series("fb_service_feedback_rounds_total")},
		{"predictions", float64(st.Predictions), hit + miss},
		{"cache_hits", float64(st.CacheHits), hit},
		{"warm_starts", float64(st.WarmStarts), series("fb_service_warm_starts_total")},
		{"inserts", float64(st.Inserts), series("fb_service_inserts_total")},
		{"inserts_stored", float64(st.InsertsStored), series("fb_service_inserts_stored_total")},
		{"quota_rejects", float64(st.QuotaRejects), requests("close", "quota_exceeded")},
		{"degraded_rejects", float64(st.DegradedRejects), requests("close", "degraded")},
		{"compactions", float64(st.Compactions), series("fb_bypass_compactions_total")},
		{"reclaimed", float64(st.Reclaimed), series("fb_bypass_reclaimed_vertices_total")},
		{"cache_entries", float64(st.CacheEntries), series("fb_service_cache_entries")},
		{"wal_bytes", float64(st.WALBytes), series("fb_wal_bytes")},
		{"tree.points", float64(st.Tree.Points), series("fb_tree_points")},
		{"tree.depth", float64(st.Tree.Depth), series("fb_tree_depth")},
		{"tree.bytes", float64(st.Tree.Bytes), series("fb_tree_bytes")},
	} {
		if c.stat != c.metric || c.stat == 0 {
			t.Errorf("/stats %s = %v, its /metrics series %v; want them equal and nonzero", c.field, c.stat, c.metric)
		}
	}
	if st.ActiveSessions != 0 || series("fb_service_sessions_active") != 0 {
		t.Errorf("active sessions: /stats %d, /metrics %v; want 0", st.ActiveSessions, series("fb_service_sessions_active"))
	}
}

// parseProm reads a text exposition into a map keyed by the full series
// name, labels included, exactly as exposed: the way the benchmark
// harness and Prometheus read /metrics.
func parseProm(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("exposition line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// scrape is parseProm over reg's exposition.
func scrape(t *testing.T, reg *obsv.Registry) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	return parseProm(t, sb.String())
}
