package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/histogram"
	"repro/internal/imagegen"
	"repro/internal/persist"
	"repro/internal/service"
	"repro/internal/shardedbypass"
	"repro/internal/store"
)

// newTestCollectionWith wires one named collection's serving stack over a
// small synthetic dataset and a durable bypass module rooted in a temp
// dir — the same composition BuildCollection does. opts picks the shard
// count (zero is 1), the filesystem seam and the metrics registry.
func newTestCollectionWith(t *testing.T, name string, seed int64, opts shardedbypass.Options) *Collection {
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
	byp, err := shardedbypass.Open(t.TempDir(), codec.D(), codec.P(),
		core.Config{Epsilon: 0.05, DefaultWeights: codec.DefaultWeights()}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { byp.Close() })
	svc, err := service.New(eng, byp, service.Options{DefaultK: 8, Obs: opts.Obs, ObsLabels: opts.ObsLabels})
	if err != nil {
		t.Fatal(err)
	}
	return &Collection{Name: name, backend: "heap", source: "synth:test", Dataset: ds, Service: svc, Bypass: byp, durable: true}
}

// newTestCollection is the default composition: one shard, real
// filesystem, no metrics.
func newTestCollection(t *testing.T, name string, seed int64) *Collection {
	t.Helper()
	return newTestCollectionWith(t, name, seed, shardedbypass.Options{})
}

// newTestServer wires the production handler over a single default
// collection — the legacy single-collection composition.
func newTestServer(t *testing.T) (*httptest.Server, *dataset.Dataset, *shardedbypass.Sharded) {
	t.Helper()
	c := newTestCollection(t, "default", 5)
	srv := httptest.NewServer(NewMux(map[string]*Collection{"default": c}, "default", nil, false))
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

// newShardedTestServer is newTestServer over a durable S-shard bypass.
func newShardedTestServer(t *testing.T, shards int) (*httptest.Server, *dataset.Dataset, *shardedbypass.Sharded) {
	t.Helper()
	c := newTestCollectionWith(t, "default", 5, shardedbypass.Options{Shards: shards})
	srv := httptest.NewServer(NewMux(map[string]*Collection{"default": c}, "default", nil, false))
	t.Cleanup(srv.Close)
	return srv, c.Dataset, c.Bypass
}

// TestShardedEndToEnd drives a full session against a 4-shard durable
// bypass and checks /stats exposes the per-shard counter array.
func TestShardedEndToEnd(t *testing.T) {
	srv, ds, sharded := newShardedTestServer(t, 4)

	var health struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, srv.URL+"/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz on a ready sharded server: %d %+v", code, health)
	}

	item := 0
	category := ds.Items[item].Category
	var st stateJSON
	if code := postJSON(t, srv.URL+"/query", queryRequest{Item: &item, K: 8}, &st); code != http.StatusOK {
		t.Fatalf("query: status %d", code)
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
			t.Fatal("session never converged")
		}
	}
	var closed closeResponse
	if code := postJSON(t, srv.URL+"/close", closeRequest{Session: st.Session}, &closed); code != http.StatusOK {
		t.Fatalf("close: status %d", code)
	}

	var statsResp statsResponse
	if code := getJSON(t, srv.URL+"/stats", &statsResp); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	stats := statsResp.Collections["default"]
	if len(stats.Shards) != 4 {
		t.Fatalf("/stats reports %d shards, want 4", len(stats.Shards))
	}
	if closed.Inserted {
		var inserts, gens int64
		for _, sh := range stats.Shards {
			inserts += sh.Inserts
			gens += int64(sh.CacheGen)
			if sh.Inserts > 0 && sh.WALBytes == 0 {
				t.Errorf("shard %d has inserts but no WAL bytes", sh.Shard)
			}
		}
		if inserts == 0 {
			t.Error("insert not visible in any shard counter")
		}
		if gens == 0 {
			t.Error("no shard cache generation moved after an insert")
		}
	}
	if sharded.Stats().Points == 0 && closed.Inserted {
		t.Error("sharded bypass empty after an inserted session")
	}
}

// gateFS holds every open of a path containing hold until release is
// called — a shard whose recovery takes a while.
type gateFS struct {
	persist.FS
	hold string
	gate chan struct{}
	once *sync.Once
}

func newGateFS(hold string) gateFS {
	return gateFS{FS: persist.OSFS, hold: hold, gate: make(chan struct{}), once: new(sync.Once)}
}

func (g gateFS) release() { g.once.Do(func() { close(g.gate) }) }

func (g gateFS) OpenFile(name string, flag int, perm os.FileMode) (persist.File, error) {
	if strings.Contains(name, g.hold) {
		<-g.gate
	}
	return g.FS.OpenFile(name, flag, perm)
}

// newRecoveringCollection opens the module at dir with OpenAsync over
// gate — the shards gate holds stay "replaying" until gate.release() —
// and wires a default collection over ds around it.
func newRecoveringCollection(t *testing.T, ds *dataset.Dataset, dir string, shards int, gate gateFS) *Collection {
	t.Helper()
	eng, err := engine.New(ds, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	codec, err := core.NewHistogramCodec(ds.Dim)
	if err != nil {
		t.Fatal(err)
	}
	byp, err := shardedbypass.OpenAsync(dir, codec.D(), codec.P(),
		core.Config{Epsilon: 0.05, DefaultWeights: codec.DefaultWeights()},
		shardedbypass.Options{Shards: shards, Durable: core.DurableOptions{FS: gate}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		gate.release() // Close waits for every shard's recovery to settle
		byp.Close()
	})
	svc, err := service.New(eng, byp, service.Options{DefaultK: 8})
	if err != nil {
		t.Fatal(err)
	}
	return &Collection{Name: "default", backend: "heap", source: "synth:test", Dataset: ds, Service: svc, Bypass: byp, durable: true}
}

// TestReplayingReturns503 pins the startup-recovery contract on a real
// module: while shard 1 of 3 is still recovering, /healthz reports 503
// with the replaying shard ids and a query routed to that shard gets
// 503, not 500; once recovery finishes both turn 200.
func TestReplayingReturns503(t *testing.T) {
	ds, err := dataset.Build(imagegen.IMSILike(5, 0.03), histogram.DefaultExtractor)
	if err != nil {
		t.Fatal(err)
	}
	gate := newGateFS("shard-001")
	c := newRecoveringCollection(t, ds, t.TempDir(), 3, gate)
	byp, codec := c.Bypass, c.Service.Codec()
	srv := httptest.NewServer(NewMux(map[string]*Collection{"default": c}, "default", nil, false))
	defer srv.Close()

	// Shards 0 and 2 recover on their own; only the held shard 1 stays.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		infos := byp.ShardInfos()
		if !infos[0].Replaying && !infos[2].Replaying {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("unheld shards never finished recovering: %+v", infos)
		}
	}

	var health struct {
		Status    string           `json:"status"`
		Replaying map[string][]int `json:"replaying"`
	}
	if code := getJSON(t, srv.URL+"/healthz", &health); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during replay: status %d, want 503", code)
	}
	if health.Status != "replaying" || len(health.Replaying["default"]) != 1 || health.Replaying["default"][0] != 1 {
		t.Fatalf("healthz body: %+v", health)
	}
	// The collection-scoped healthz reports the same replay as a plain
	// shard list.
	var scoped struct {
		Status    string `json:"status"`
		Replaying []int  `json:"replaying"`
	}
	if code := getJSON(t, srv.URL+"/c/default/healthz", &scoped); code != http.StatusServiceUnavailable {
		t.Fatalf("scoped healthz during replay: status %d, want 503", code)
	}
	if scoped.Status != "replaying" || len(scoped.Replaying) != 1 || scoped.Replaying[0] != 1 {
		t.Fatalf("scoped healthz body: %+v", scoped)
	}

	// An item the partition function routes to the replaying shard.
	item := -1
	for i := range ds.Items {
		qp, err := codec.QueryPoint(ds.Items[i].Feature)
		if err != nil {
			t.Fatal(err)
		}
		if byp.ShardOf(qp) == 1 {
			item = i
			break
		}
	}
	if item < 0 {
		t.Fatal("no item routes to shard 1")
	}
	var errResp errorResponse
	if code := postJSON(t, srv.URL+"/query", queryRequest{Item: &item, K: 5}, &errResp); code != http.StatusServiceUnavailable {
		t.Fatalf("query against a replaying shard: status %d, want 503", code)
	}

	gate.release()
	if err := byp.WaitReady(); err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, srv.URL+"/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz after recovery: %d %+v", code, health)
	}
	var st stateJSON
	if code := postJSON(t, srv.URL+"/query", queryRequest{Item: &item, K: 5}, &st); code != http.StatusOK {
		t.Fatalf("query after recovery: status %d", code)
	}
}

// TestStatusForMapping is the table-driven sentinel→status pin: every
// errors.Is-able failure class the serving path can produce must map to
// its HTTP status, wrapped or bare — including the multi-collection 404,
// the store bounds sentinel, the governance sentinels (quota → 507,
// degraded → 503), and the per-request context failures — plus the
// Retry-After hint each retryable rejection must carry on the wire.
func TestStatusForMapping(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		want       int
		retryAfter string // expected Retry-After header; "" = none
	}{
		{"unknown-collection", errUnknownCollection, http.StatusNotFound, ""},
		{"unknown-collection-wrapped", fmt.Errorf("%w %q", errUnknownCollection, "nope"), http.StatusNotFound, ""},
		{"session-not-found", service.ErrSessionNotFound, http.StatusNotFound, ""},
		{"session-not-found-wrapped", fmt.Errorf("service: session 7: %w", service.ErrSessionNotFound), http.StatusNotFound, ""},
		{"overloaded", service.ErrOverloaded, http.StatusTooManyRequests, "1"},
		{"overloaded-wrapped", fmt.Errorf("service: 4 sessions in flight: %w", service.ErrOverloaded), http.StatusTooManyRequests, "1"},
		{"out-of-domain", core.ErrOutOfDomain, http.StatusBadRequest, ""},
		{"out-of-domain-wrapped", fmt.Errorf("predict: %w", core.ErrOutOfDomain), http.StatusBadRequest, ""},
		{"invalid-argument", service.ErrInvalidArgument, http.StatusBadRequest, ""},
		{"store-bounds", store.ErrOutOfRange, http.StatusBadRequest, ""},
		{"store-bounds-wrapped", fmt.Errorf("dataset: %w: row 9 of 3", store.ErrOutOfRange), http.StatusBadRequest, ""},
		{"shard-replaying", shardedbypass.ErrReplaying, http.StatusServiceUnavailable, "1"},
		{"shard-replaying-wrapped", fmt.Errorf("shard 2: %w", shardedbypass.ErrReplaying), http.StatusServiceUnavailable, "1"},
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

// newMmapTestCollection writes ds's features to a temp FBMX file and
// builds an mmap-backed collection over it, labels dropped — the
// -collection name=path.fbmx composition.
func newMmapTestCollection(t *testing.T, name string, ds *dataset.Dataset) *Collection {
	t.Helper()
	path := filepath.Join(t.TempDir(), name+".fbmx")
	if err := store.WriteFBMX(path, ds.Matrix()); err != nil {
		t.Fatal(err)
	}
	mm, err := store.OpenMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mm.Close() })
	if err := mm.Verify(); err != nil {
		t.Fatal(err)
	}
	mds, err := dataset.FromBackend(mm, nil, nil)
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
	byp, err := shardedbypass.New(codec.D(), codec.P(),
		core.Config{Epsilon: 0.05, DefaultWeights: codec.DefaultWeights()}, shardedbypass.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(eng, byp, service.Options{DefaultK: 8})
	if err != nil {
		t.Fatal(err)
	}
	return &Collection{Name: name, backend: "mmap", source: path, Dataset: mds, Service: svc, Bypass: byp, mm: mm}
}

// TestMultiCollectionServing drives one process serving two collections
// — one heap-synthetic, one mmap-resident FBMX export of a different
// seed — and asserts route scoping, per-collection stats isolation
// (sessions, caches, trees), and the unknown-collection 404.
func TestMultiCollectionServing(t *testing.T) {
	birds := newTestCollection(t, "birds", 5)
	photos := newMmapTestCollection(t, "photos", birds.Dataset)
	colls := map[string]*Collection{"birds": birds, "photos": photos}
	srv := httptest.NewServer(NewMux(colls, "", nil, false))
	t.Cleanup(srv.Close)

	// Unknown collection → 404 with a JSON error.
	item := 0
	var errResp errorResponse
	if code := postJSON(t, srv.URL+"/c/nope/query", queryRequest{Item: &item, K: 5}, &errResp); code != http.StatusNotFound {
		t.Fatalf("unknown collection: status %d (%+v)", code, errResp)
	}
	if errResp.Error == "" {
		t.Error("unknown collection error body empty")
	}
	// With two collections and none named "default", bare legacy routes
	// are 404 too.
	if code := postJSON(t, srv.URL+"/query", queryRequest{Item: &item, K: 5}, &errResp); code != http.StatusNotFound {
		t.Fatalf("bare /query without a default collection: status %d", code)
	}

	// A full session against each collection through its scoped routes.
	sessions := map[string]uint64{}
	for name := range colls {
		var st stateJSON
		if code := postJSON(t, srv.URL+"/c/"+name+"/query", queryRequest{Item: &item, K: 5}, &st); code != http.StatusOK {
			t.Fatalf("%s query: status %d", name, code)
		}
		if st.Collection != name || len(st.Results) != 5 {
			t.Fatalf("%s query response: %+v", name, st)
		}
		sessions[name] = st.Session
	}
	// The mmap collection answers with bitwise-identical distances to
	// its heap twin: same features, same kernels, different residency.
	var heapSt, mmapSt stateJSON
	if code := postJSON(t, srv.URL+"/c/birds/query", queryRequest{Item: &item, K: 5}, &heapSt); code != http.StatusOK {
		t.Fatal("birds re-query failed")
	}
	if code := postJSON(t, srv.URL+"/c/photos/query", queryRequest{Item: &item, K: 5}, &mmapSt); code != http.StatusOK {
		t.Fatal("photos re-query failed")
	}
	for i := range heapSt.Results {
		if heapSt.Results[i].Index != mmapSt.Results[i].Index || heapSt.Results[i].Distance != mmapSt.Results[i].Distance {
			t.Fatalf("result %d diverges across backends: %+v vs %+v", i, heapSt.Results[i], mmapSt.Results[i])
		}
	}

	// Session ids are scoped per collection: photos' session is unknown
	// to birds.
	if code := postJSON(t, srv.URL+"/c/birds/close", closeRequest{Session: sessions["photos"]}, &errResp); code != http.StatusNotFound &&
		sessions["photos"] != sessions["birds"] {
		t.Errorf("cross-collection session id accepted: status %d", code)
	}

	// Give feedback in birds only; stats must show the activity (and the
	// insert, if any) in birds alone. photos keeps its own counters.
	category := birds.Dataset.Items[item].Category
	var st stateJSON
	if code := postJSON(t, srv.URL+"/c/birds/query", queryRequest{Item: &item, K: 5}, &st); code != http.StatusOK {
		t.Fatal("birds query failed")
	}
	for rounds := 0; !st.Converged && rounds < 100; rounds++ {
		scores := make([]float64, len(st.Results))
		for i, r := range st.Results {
			if r.Category == category {
				scores[i] = 1
			}
		}
		if code := postJSON(t, srv.URL+"/c/birds/feedback", feedbackRequest{Session: st.Session, Scores: scores}, &st); code != http.StatusOK {
			t.Fatalf("birds feedback: status %d", code)
		}
	}
	var closed closeResponse
	if code := postJSON(t, srv.URL+"/c/birds/close", closeRequest{Session: st.Session}, &closed); code != http.StatusOK {
		t.Fatalf("birds close: status %d", code)
	}
	if closed.Collection != "birds" {
		t.Errorf("close response names collection %q", closed.Collection)
	}

	var stats statsResponse
	if code := getJSON(t, srv.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if len(stats.Collections) != 2 {
		t.Fatalf("stats cover %d collections, want 2", len(stats.Collections))
	}
	b, p := stats.Collections["birds"], stats.Collections["photos"]
	if b.Collection.Backend != "heap" || p.Collection.Backend != "mmap" {
		t.Errorf("backends: birds=%s photos=%s", b.Collection.Backend, p.Collection.Backend)
	}
	if b.Feedbacks == 0 {
		t.Error("birds feedback rounds not counted")
	}
	if p.Feedbacks != 0 {
		t.Errorf("photos counted %d feedbacks from birds' session", p.Feedbacks)
	}
	if b.Tree.Points > 0 && p.Tree.Points != 0 {
		t.Error("birds' insert leaked into photos' tree")
	}
	if p.Opened != 2 {
		t.Errorf("photos opened %d sessions, want 2", p.Opened)
	}

	// Per-collection stats and healthz routes answer scoped.
	var one collectionStats
	if code := getJSON(t, srv.URL+"/c/photos/stats", &one); code != http.StatusOK {
		t.Fatalf("/c/photos/stats: status %d", code)
	}
	if one.Collection.Name != "photos" || one.Opened != p.Opened {
		t.Errorf("scoped stats: %+v", one.Collection)
	}
	var health struct {
		Status     string `json:"status"`
		Collection string `json:"collection"`
	}
	if code := getJSON(t, srv.URL+"/c/photos/healthz", &health); code != http.StatusOK || health.Collection != "photos" {
		t.Errorf("scoped healthz: %d %+v", code, health)
	}
}

// TestLayoutFlipRefused pins the durable-layout migration guard: module
// state written under one collection-count layout must not be silently
// shadowed when the process is restarted with the other layout.
func TestLayoutFlipRefused(t *testing.T) {
	base := Config{
		Scale: 0.02, Seed: 3, K: 5, Epsilon: 0.05,
		CompactEvery: 512, MaxSessions: 16, IterBudget: 5, CacheSize: 16, Shards: 1,
	}
	spec := "synth:scale=0.02,seed=3"

	// Flat layout first (single collection), then reopen as multi: the
	// root module state must be refused, not shadowed by dir/birds/.
	flat := base
	flat.Dir = t.TempDir()
	c, err := BuildCollection("birds", spec, flat)
	if err != nil {
		t.Fatal(err)
	}
	if !c.durable {
		t.Fatal("single-collection build with -dir is not durable")
	}
	c.Bypass.Close()
	flatMulti := flat
	flatMulti.Multi = true
	if _, err := BuildCollection("birds", spec, flatMulti); err == nil {
		t.Fatal("multi-collection reopen over flat module state was accepted")
	}

	// Nested layout first (multi), then reopen as single: the nested
	// module must be refused rather than ignored in favour of a fresh
	// module at the root.
	nested := base
	nested.Dir = t.TempDir()
	nested.Multi = true
	c2, err := BuildCollection("birds", spec, nested)
	if err != nil {
		t.Fatal(err)
	}
	c2.Bypass.Close()
	nestedSingle := nested
	nestedSingle.Multi = false
	if _, err := BuildCollection("birds", spec, nestedSingle); err == nil {
		t.Fatal("single-collection reopen over nested module state was accepted")
	}

	// A fresh directory in either layout still opens fine.
	fresh := base
	fresh.Dir = t.TempDir()
	fresh.Multi = true
	c3, err := BuildCollection("birds", spec, fresh)
	if err != nil {
		t.Fatalf("fresh multi-layout build refused: %v", err)
	}
	c3.Bypass.Close()
}

// TestCollectionSpecParsing pins the -collection flag grammar.
func TestCollectionSpecParsing(t *testing.T) {
	var cs CollectionSpecs
	for _, ok := range []string{"a=synth:", "b-2=synth:scale=0.1,seed=9", "c_x=/data/f.fbmx", "d=fbmx:/data/f"} {
		if err := cs.Add(ok); err != nil {
			t.Errorf("add(%q): %v", ok, err)
		}
	}
	for _, bad := range []string{"", "noequals", "=spec", "name=", "a=synth:", "sp ace=synth:", "a/b=synth:"} {
		if err := cs.Add(bad); err == nil {
			t.Errorf("add(%q) accepted", bad)
		}
	}
	cfg := Config{Scale: 0.05, Seed: 3}
	if _, _, _, err := BuildDataset("synth:scale=bogus", cfg); err == nil {
		t.Error("bogus synth scale accepted")
	}
	if _, _, _, err := BuildDataset("synth:rows=5", cfg); err == nil {
		t.Error("unknown synth key accepted")
	}
	if _, _, _, err := BuildDataset("plainpath", cfg); err == nil {
		t.Error("pathless spec accepted")
	}
	if _, _, _, err := BuildDataset(filepath.Join(t.TempDir(), "missing.fbmx"), cfg); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing fbmx file: %v", err)
	}
	ds, backend, mm, err := BuildDataset("synth:scale=0.02,seed=4", cfg)
	if err != nil || backend != "heap" || mm != nil || ds.Len() == 0 {
		t.Fatalf("synth build: %v %s %v", err, backend, mm)
	}
	path := filepath.Join(t.TempDir(), "c.fbmx")
	if err := store.WriteFBMX(path, ds.Matrix()); err != nil {
		t.Fatal(err)
	}
	mds, backend, mm, err := BuildDataset(path, cfg)
	if err != nil || backend != "mmap" || mm == nil {
		t.Fatalf("fbmx build: %v %s", err, backend)
	}
	defer mm.Close()
	if mds.Len() != ds.Len() || mds.Dim != ds.Dim {
		t.Errorf("fbmx dataset shape %dx%d, want %dx%d", mds.Len(), mds.Dim, ds.Len(), ds.Dim)
	}
}
