package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/histogram"
	"repro/internal/imagegen"
	"repro/internal/service"
	"repro/internal/store"
)

// newTestCollectionWith wires a collection's serving stack over a small
// synthetic dataset and a durable bypass module rooted in a temp dir —
// the same composition BuildCollection does. opts picks the filesystem
// seam and the metrics registry.
func newTestCollectionWith(t *testing.T, seed int64, opts core.DurableOptions) *Collection {
	t.Helper()
	ds, err := dataset.Build(imagegen.IMSILike(seed, 0.03), histogram.DefaultExtractor)
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
	db, err := core.OpenDurable(t.TempDir(), codec.D(), codec.P(),
		core.Config{Epsilon: 0.05, DefaultWeights: codec.DefaultWeights()}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	svc, err := service.New(eng, db, service.Options{DefaultK: 8, Obs: opts.Obs, ObsLabels: opts.ObsLabels})
	if err != nil {
		t.Fatal(err)
	}
	return &Collection{Dataset: ds, Service: svc, Bypass: db}
}

// newTestCollection is the default composition: real filesystem, no
// metrics.
func newTestCollection(t *testing.T, seed int64) *Collection {
	t.Helper()
	return newTestCollectionWith(t, seed, core.DurableOptions{})
}

// newTestServer wires the production handler over one collection.
func newTestServer(t *testing.T) (*httptest.Server, *dataset.Dataset, *core.Bypass) {
	t.Helper()
	c := newTestCollection(t, 5)
	srv := httptest.NewServer(NewMux(c, nil, false))
	t.Cleanup(srv.Close)
	return srv, c.Dataset, c.Bypass
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestEndToEndSession drives one full interactive session over HTTP:
// query → oracle-scored feedback rounds to convergence → close, and
// verifies the converged OQPs landed in the durable bypass.
func TestEndToEndSession(t *testing.T) {
	srv, ds, durable := newTestServer(t)

	var health struct {
		Status   string `json:"status"`
		Sessions int    `json:"sessions"`
	}
	if code := getJSON(t, srv.URL+"/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz: %d %+v", code, health)
	}

	item := 0
	category := ds.Items[item].Category
	var st stateJSON
	if code := postJSON(t, srv.URL+"/query", queryRequest{Item: &item, K: 8}, &st); code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}
	if st.Session == 0 || len(st.Results) != 8 {
		t.Fatalf("query response: %+v", st)
	}
	for _, r := range st.Results {
		if r.Category == "" {
			t.Fatalf("result missing oracle annotation: %+v", r)
		}
	}

	// GET /session reflects the same state.
	var snap stateJSON
	if code := getJSON(t, fmt.Sprintf("%s/session?id=%d", srv.URL, st.Session), &snap); code != http.StatusOK {
		t.Fatalf("session: status %d", code)
	}
	if snap.Iterations != 0 || len(snap.Results) != len(st.Results) {
		t.Fatalf("session snapshot diverged: %+v", snap)
	}

	rounds := 0
	for !st.Converged {
		scores := make([]float64, len(st.Results))
		for i, r := range st.Results {
			if r.Category == category {
				scores[i] = 1
			}
		}
		if code := postJSON(t, srv.URL+"/feedback", feedbackRequest{Session: st.Session, Scores: scores}, &st); code != http.StatusOK {
			t.Fatalf("feedback: status %d", code)
		}
		if rounds++; rounds > 100 {
			t.Fatal("session never converged over HTTP")
		}
	}

	before := durable.Stats().Points
	var closed closeResponse
	if code := postJSON(t, srv.URL+"/close", closeRequest{Session: st.Session}, &closed); code != http.StatusOK {
		t.Fatalf("close: status %d", code)
	}
	if closed.Iterations != st.Iterations {
		t.Errorf("close iterations %d vs state %d", closed.Iterations, st.Iterations)
	}
	if st.Iterations > 0 {
		if !closed.Inserted {
			t.Error("refined session did not insert into the durable bypass")
		}
		if durable.Stats().Points <= before {
			t.Errorf("tree points %d did not grow past %d", durable.Stats().Points, before)
		}
		if durable.Journaled() == 0 {
			t.Error("insert was not journaled to the WAL")
		}
	}

	var stats statsResponse
	if code := getJSON(t, srv.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	def, ok := stats.Collections["default"]
	if !ok {
		t.Fatalf("stats missing default collection: %+v", stats)
	}
	if def.Opened != 1 || def.Closed != 1 || def.ActiveSessions != 0 {
		t.Errorf("stats after one session: %+v", def)
	}
	if def.Collection.Backend != "heap" || def.Collection.Items != ds.Len() {
		t.Errorf("collection info: %+v", def.Collection)
	}
}

// TestHTTPErrorMapping pins the sentinel→status mapping.
func TestHTTPErrorMapping(t *testing.T) {
	srv, ds, _ := newTestServer(t)

	var errResp errorResponse
	// Unknown session → 404.
	if code := postJSON(t, srv.URL+"/feedback", feedbackRequest{Session: 999, Scores: []float64{1}}, &errResp); code != http.StatusNotFound {
		t.Errorf("unknown session: status %d (%+v)", code, errResp)
	}
	if code := postJSON(t, srv.URL+"/close", closeRequest{Session: 999}, &errResp); code != http.StatusNotFound {
		t.Errorf("unknown close: status %d", code)
	}
	// Malformed body → 400.
	resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d", resp.StatusCode)
	}
	// Neither item nor feature → 400.
	if code := postJSON(t, srv.URL+"/query", queryRequest{}, &errResp); code != http.StatusBadRequest {
		t.Errorf("empty query: status %d", code)
	}
	// Out-of-range item → 400.
	bad := ds.Len() + 7
	if code := postJSON(t, srv.URL+"/query", queryRequest{Item: &bad}, &errResp); code != http.StatusBadRequest {
		t.Errorf("bad item: status %d", code)
	}
	// Out-of-domain feature → 400 via core.ErrOutOfDomain.
	feat := make([]float64, ds.Dim)
	feat[0] = 2
	if code := postJSON(t, srv.URL+"/query", queryRequest{Feature: feat}, &errResp); code != http.StatusBadRequest {
		t.Errorf("out-of-domain feature: status %d", code)
	}
	// Score-count mismatch → 400 via service.ErrInvalidArgument.
	item := 0
	var st stateJSON
	if code := postJSON(t, srv.URL+"/query", queryRequest{Item: &item, K: 5}, &st); code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}
	if code := postJSON(t, srv.URL+"/feedback", feedbackRequest{Session: st.Session, Scores: []float64{1}}, &errResp); code != http.StatusBadRequest {
		t.Errorf("score mismatch: status %d", code)
	}
	// GET on a POST route → 405.
	if code := getJSON(t, srv.URL+"/query", nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /query: status %d", code)
	}
}

// TestConcurrentHTTPSessions runs full sessions from parallel clients
// against one server — the serving-layer acceptance path end to end.
func TestConcurrentHTTPSessions(t *testing.T) {
	srv, ds, _ := newTestServer(t)
	const clients = 8
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for s := 0; s < 3; s++ {
				item := (c*17 + s*31) % ds.Len()
				category := ds.Items[item].Category
				var st stateJSON
				data, _ := json.Marshal(queryRequest{Item: &item, K: 6})
				resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader(data))
				if err != nil {
					errCh <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					resp.Body.Close()
					errCh <- fmt.Errorf("client %d: query status %d", c, resp.StatusCode)
					return
				}
				if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
					resp.Body.Close()
					errCh <- err
					return
				}
				resp.Body.Close()
				for rounds := 0; !st.Converged && rounds < 100; rounds++ {
					scores := make([]float64, len(st.Results))
					for i, r := range st.Results {
						if r.Category == category {
							scores[i] = 1
						}
					}
					data, _ = json.Marshal(feedbackRequest{Session: st.Session, Scores: scores})
					resp, err := http.Post(srv.URL+"/feedback", "application/json", bytes.NewReader(data))
					if err != nil {
						errCh <- err
						return
					}
					if resp.StatusCode != http.StatusOK {
						resp.Body.Close()
						errCh <- fmt.Errorf("client %d: feedback status %d", c, resp.StatusCode)
						return
					}
					if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
						resp.Body.Close()
						errCh <- err
						return
					}
					resp.Body.Close()
				}
				data, _ = json.Marshal(closeRequest{Session: st.Session})
				resp, err = http.Post(srv.URL+"/close", "application/json", bytes.NewReader(data))
				if err != nil {
					errCh <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("client %d: close status %d", c, resp.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	var stats statsResponse
	if code := getJSON(t, srv.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if def := stats.Collections["default"]; def.Opened != clients*3 || def.ActiveSessions != 0 {
		t.Errorf("stats after concurrent sessions: %+v", def)
	}
}

// TestStatusForMapping is the table-driven sentinel→status pin: every
// errors.Is-able failure class the serving path can produce must map to
// its HTTP status, wrapped or bare — including the store bounds sentinel, the governance sentinels (quota → 507,
// degraded → 503), and the per-request context failures — plus the
// Retry-After hint each retryable rejection must carry on the wire.
func TestStatusForMapping(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		want       int
		retryAfter string // expected Retry-After header; "" = none
	}{
		{"session-not-found", service.ErrSessionNotFound, http.StatusNotFound, ""},
		{"session-not-found-wrapped", fmt.Errorf("service: session 7: %w", service.ErrSessionNotFound), http.StatusNotFound, ""},
		{"overloaded", service.ErrOverloaded, http.StatusTooManyRequests, "1"},
		{"overloaded-wrapped", fmt.Errorf("service: 4 sessions in flight: %w", service.ErrOverloaded), http.StatusTooManyRequests, "1"},
		{"out-of-domain", core.ErrOutOfDomain, http.StatusBadRequest, ""},
		{"out-of-domain-wrapped", fmt.Errorf("predict: %w", core.ErrOutOfDomain), http.StatusBadRequest, ""},
		{"invalid-argument", service.ErrInvalidArgument, http.StatusBadRequest, ""},
		{"store-bounds", store.ErrOutOfRange, http.StatusBadRequest, ""},
		{"store-bounds-wrapped", fmt.Errorf("dataset: %w: row 9 of 3", store.ErrOutOfRange), http.StatusBadRequest, ""},
		{"quota", core.ErrQuotaExceeded, http.StatusInsufficientStorage, "60"},
		{"quota-wrapped", fmt.Errorf("%w: 64 vertices stored, limit 64", core.ErrQuotaExceeded), http.StatusInsufficientStorage, "60"},
		{"degraded", core.ErrDegraded, http.StatusServiceUnavailable, "30"},
		// The real degraded error is ErrDegraded joined with its root
		// cause; both errors.Is edges must classify.
		{"degraded-joined", errors.Join(core.ErrDegraded, errors.New("write tree.fbwl: injected fault")), http.StatusServiceUnavailable, "30"},
		{"deadline", context.DeadlineExceeded, http.StatusServiceUnavailable, "1"},
		{"deadline-wrapped", fmt.Errorf("open: %w", context.DeadlineExceeded), http.StatusServiceUnavailable, "1"},
		{"client-gone", context.Canceled, statusClientClosedRequest, ""},
		{"unclassified", errors.New("disk on fire"), http.StatusInternalServerError, ""},
	}
	for _, tc := range cases {
		if got := statusFor(tc.err); got != tc.want {
			t.Errorf("%s: statusFor(%v) = %d, want %d", tc.name, tc.err, got, tc.want)
		}
		if got := retryAfterFor(tc.err); got != tc.retryAfter {
			t.Errorf("%s: retryAfterFor(%v) = %q, want %q", tc.name, tc.err, got, tc.retryAfter)
		}
		// writeError must put the hint on the wire, not just compute it.
		rec := httptest.NewRecorder()
		writeError(rec, httptest.NewRequest(http.MethodGet, "/", nil), tc.want, tc.err)
		if got := rec.Header().Get("Retry-After"); got != tc.retryAfter {
			t.Errorf("%s: Retry-After header = %q, want %q", tc.name, got, tc.retryAfter)
		}
	}
}

// newMmapTestCollection writes ds's features and labels to a temp FBMX
// file and builds an mmap-backed collection over it — the -collection
// path.fbmx composition.
func newMmapTestCollection(t *testing.T, ds *dataset.Dataset) *Collection {
	t.Helper()
	path := filepath.Join(t.TempDir(), "c.fbmx")
	if err := store.WriteFBMX(path, ds.Matrix(), ds.Labels("synth:test")); err != nil {
		t.Fatal(err)
	}
	mm, labels, err := store.OpenFBMX(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mm.Close() })
	mds, err := dataset.FromMatrix(mm, labels)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(mds, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	codec, err := core.NewHistogramCodec(mds.Dim)
	if err != nil {
		t.Fatal(err)
	}
	byp, err := core.New(codec.D(), codec.P(), core.Config{Epsilon: 0.05, DefaultWeights: codec.DefaultWeights()})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(eng, byp, service.Options{DefaultK: 8})
	if err != nil {
		t.Fatal(err)
	}
	return &Collection{Dataset: mds, Service: svc, Bypass: byp}
}

// TestMmapCollectionServing serves a heap-synthetic collection and its
// FBMX export, mapped, each from its own mux: a full session answers with
// the same items, labels and bitwise-identical distances from both
// backends, and /stats names each backend.
func TestMmapCollectionServing(t *testing.T) {
	heap := newTestCollection(t, 5)
	mapped := newMmapTestCollection(t, heap.Dataset)
	item := 0
	category := heap.Dataset.Items[item].Category
	var states [2][]stateJSON
	for i, c := range []*Collection{heap, mapped} {
		backend := [...]string{"heap", "mmap"}[i]
		srv := httptest.NewServer(NewMux(c, nil, false))
		defer srv.Close()
		var st stateJSON
		if code := postJSON(t, srv.URL+"/query", queryRequest{Item: &item, K: 5}, &st); code != http.StatusOK {
			t.Fatalf("%s query: status %d", backend, code)
		}
		states[i] = append(states[i], st)
		for rounds := 0; !st.Converged && rounds < 100; rounds++ {
			scores := make([]float64, len(st.Results))
			for j, r := range st.Results {
				if r.Category == category {
					scores[j] = 1
				}
			}
			if code := postJSON(t, srv.URL+"/feedback", feedbackRequest{Session: st.Session, Scores: scores}, &st); code != http.StatusOK {
				t.Fatalf("%s feedback: status %d", backend, code)
			}
			states[i] = append(states[i], st)
		}
		if code := postJSON(t, srv.URL+"/close", closeRequest{Session: st.Session}, nil); code != http.StatusOK {
			t.Fatalf("%s close: status %d", backend, code)
		}
		var stats statsResponse
		if code := getJSON(t, srv.URL+"/stats", &stats); code != http.StatusOK {
			t.Fatalf("%s stats: status %d", backend, code)
		}
		if got := stats.Collections["default"].Collection.Backend; got != backend {
			t.Errorf("/stats names the %s backend %q", backend, got)
		}
	}
	if len(states[0]) != len(states[1]) {
		t.Fatalf("heap session ran %d steps, mapped %d", len(states[0]), len(states[1]))
	}
	for s := range states[0] {
		h, m := states[0][s].Results, states[1][s].Results
		if !slices.Equal(h, m) {
			t.Fatalf("step %d diverges across backends:\nheap: %+v\nmmap: %+v", s, h, m)
		}
	}
}

// TestNestedLayoutRefused: a -dir whose subdirectory holds a module —
// the <dir>/<name>/ layout a multi-collection server of an earlier
// version left — is refused with an error naming the module's log before
// anything is rendered. Serving the subdirectory itself, the move the
// error names, opens it; a subdirectory without module state is no
// nested layout.
func TestNestedLayoutRefused(t *testing.T) {
	cfg := Config{
		Scale: 0.02, Seed: 3, K: 5, Epsilon: 0.05, Dir: t.TempDir(),
		CompactEvery: 512, MaxSessions: 16, IterBudget: 5, CacheSize: 16,
	}
	spec := "synth:scale=0.02,seed=3"
	nested := cfg
	nested.Dir = filepath.Join(cfg.Dir, "birds")
	c, err := BuildCollection(spec, nested)
	if err != nil {
		t.Fatal(err)
	}
	c.Shutdown()

	log := filepath.Join(nested.Dir, core.JournalFile)
	_, err = BuildCollection(spec, cfg)
	if err == nil || !strings.Contains(err.Error(), log) || !strings.Contains(err.Error(), "-dir "+nested.Dir) {
		t.Fatalf("build over a nested module: err = %v, want a refusal naming %s and the -dir that keeps it", err, log)
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "birds" {
		t.Fatalf("the refused build left %v beside birds/", entries)
	}

	c, err = BuildCollection(spec, nested)
	if err != nil {
		t.Fatalf("serving the nested directory itself: %v", err)
	}
	c.Shutdown()

	plain := cfg
	plain.Dir = t.TempDir()
	if err := os.Mkdir(filepath.Join(plain.Dir, "notes"), 0o755); err != nil {
		t.Fatal(err)
	}
	c, err = BuildCollection(spec, plain)
	if err != nil {
		t.Fatalf("a subdirectory without module state was refused: %v", err)
	}
	c.Shutdown()
}

// TestCollectionSpecParsing pins the -collection spec grammar, and the
// canonical spec BuildDataset resolves: the one a kept or exported
// collection file is labelled with.
func TestCollectionSpecParsing(t *testing.T) {
	cfg := Config{Scale: 0.05, Seed: 3}
	if _, _, err := BuildDataset("synth:scale=bogus", "", cfg); err == nil {
		t.Error("bogus synth scale accepted")
	}
	if _, _, err := BuildDataset("synth:rows=5", "", cfg); err == nil {
		t.Error("unknown synth key accepted")
	}
	// A scale that is not finite and > 0 would render a few images per
	// category under its own label; a repeated key leaves the spec
	// ambiguous. Each refusal names the spec, -scale's default one too.
	for _, spec := range []string{
		"synth:scale=NaN", "synth:scale=+Inf", "synth:scale=-Inf", "synth:scale=0", "synth:scale=-3",
		"synth:scale=0.02,scale=0.03", "synth:seed=1,scale=0.02,seed=2",
	} {
		if _, _, err := BuildDataset(spec, "", cfg); err == nil || !strings.Contains(err.Error(), strconv.Quote(spec)) {
			t.Errorf("BuildDataset(%q): %v, want a refusal naming the spec", spec, err)
		}
	}
	for _, scale := range []float64{math.NaN(), math.Inf(1), 0, -3} {
		if _, _, err := BuildDataset("synth:", "", Config{Scale: scale, Seed: 1}); err == nil {
			t.Errorf("BuildDataset under -scale %v accepted", scale)
		}
	}
	if _, _, err := BuildDataset("plainpath", "", cfg); err == nil {
		t.Error("pathless spec accepted")
	}
	if _, _, err := BuildDataset(filepath.Join(t.TempDir(), "missing.fbmx"), "", cfg); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing fbmx file: %v", err)
	}
	if _, canon, err := BuildDataset("synth:scale=0.02", "", cfg); err != nil || canon != "synth:scale=0.02,seed=3" {
		t.Errorf("synth:scale=0.02 under -seed 3 resolves to %q (%v)", canon, err)
	}
	ds, canon, err := BuildDataset("synth:seed=4,scale=0.02", "", cfg)
	if err != nil || ds.Matrix().Mapped() || ds.Len() == 0 || canon != "synth:scale=0.02,seed=4" {
		t.Fatalf("synth build: %v, mapped %v, canonical spec %q", err, err == nil && ds.Matrix().Mapped(), canon)
	}
	path := filepath.Join(t.TempDir(), "c.fbmx")
	if err := store.WriteFBMX(path, ds.Matrix(), ds.Labels("synth:scale=0.02,seed=4")); err != nil {
		t.Fatal(err)
	}
	mds, canon, err := BuildDataset(path, "", cfg)
	if err != nil || !mds.Matrix().Mapped() || canon != "synth:scale=0.02,seed=4" {
		t.Fatalf("fbmx build: %v, mapped %v, canonical spec %q", err, err == nil && mds.Matrix().Mapped(), canon)
	}
	defer mds.Matrix().Close()
	if mds.Len() != ds.Len() || mds.Dim != ds.Dim {
		t.Fatalf("fbmx dataset shape %dx%d, want %dx%d", mds.Len(), mds.Dim, ds.Len(), ds.Dim)
	}
	// The file's labels come back as the items and query categories.
	for i, it := range mds.Items {
		if it.ID != i || it.Category != ds.Items[i].Category || it.Theme != ds.Items[i].Theme {
			t.Fatalf("fbmx item %d is %+v, rendered %+v", i, it, ds.Items[i])
		}
	}
	if !slices.Equal(mds.QueryCats, ds.QueryCats) || len(mds.ByCategory) != len(ds.ByCategory) {
		t.Errorf("fbmx query categories %v (%d categories), rendered %v (%d)", mds.QueryCats, len(mds.ByCategory), ds.QueryCats, len(ds.ByCategory))
	}
}
