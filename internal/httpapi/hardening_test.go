package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faultfs"
	"repro/internal/obsv"
	"repro/internal/shardedbypass"
)

// newFaultyTestServer wires the production handler over one durable
// collection whose filesystem is the fault-injection plane, so tests can
// flip the store read-only mid-flight.
func newFaultyTestServer(t *testing.T) (*httptest.Server, *dataset.Dataset, *faultfs.FS) {
	t.Helper()
	fs := faultfs.New(nil)
	c := newTestCollectionWith(t, "default", 5, shardedbypass.Options{Durable: core.DurableOptions{FS: fs}})
	srv := httptest.NewServer(Hardened(NewMux(map[string]*Collection{"default": c}, "default", nil, false), 0, nil))
	t.Cleanup(srv.Close)
	return srv, c.Dataset, fs
}

// driveSession runs one full oracle-scored session over HTTP and returns
// the close response's status code plus headers.
func driveSession(t *testing.T, srv *httptest.Server, ds *dataset.Dataset, item int) (*http.Response, int) {
	t.Helper()
	category := ds.Items[item].Category
	var st stateJSON
	if code := postJSON(t, srv.URL+"/query", queryRequest{Item: &item, K: 8}, &st); code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}
	for rounds := 0; !st.Converged; rounds++ {
		if rounds > 100 {
			t.Fatal("session never converged")
		}
		scores := make([]float64, len(st.Results))
		for i, r := range st.Results {
			if r.Category == category {
				scores[i] = 1
			}
		}
		if code := postJSON(t, srv.URL+"/feedback", feedbackRequest{Session: st.Session, Scores: scores}, &st); code != http.StatusOK {
			t.Fatalf("feedback: status %d", code)
		}
	}
	data, err := json.Marshal(closeRequest{Session: st.Session})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/close", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp, st.Iterations
}

// TestDegradedServingHTTP: a journal disk going bad under a live server
// turns inserts into 503 + Retry-After while /healthz reports 200
// "degraded" with the root cause, /stats carries the degraded fields,
// and querying keeps working.
func TestDegradedServingHTTP(t *testing.T) {
	srv, ds, fs := newFaultyTestServer(t)

	// Healthy first: one session lands normally.
	if resp, _ := driveSession(t, srv, ds, 0); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy close: status %d", resp.StatusCode)
	}

	// The journal disk goes bad.
	fs.AddRule(faultfs.Rule{Op: faultfs.OpWrite, Path: core.JournalFile, Nth: 0, Kind: faultfs.Fail})

	var sawDegraded bool
	for i := 1; i < 32 && !sawDegraded; i++ {
		resp, iters := driveSession(t, srv, ds, i)
		switch resp.StatusCode {
		case http.StatusOK:
			// ε-skipped or zero-iteration outcome: never touched the disk.
		case http.StatusServiceUnavailable:
			if iters == 0 {
				t.Fatal("zero-iteration close should not reach the store")
			}
			if ra := resp.Header.Get("Retry-After"); ra != "30" {
				t.Fatalf("degraded close Retry-After = %q, want \"30\"", ra)
			}
			sawDegraded = true
		default:
			t.Fatalf("close %d: status %d", i, resp.StatusCode)
		}
	}
	if !sawDegraded {
		t.Fatal("no session outcome reached the failing journal")
	}

	// /healthz: alive (reads work) but degraded, with the cause.
	var health struct {
		Status   string            `json:"status"`
		Degraded map[string]string `json:"degraded"`
	}
	if code := getJSON(t, srv.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("degraded healthz: status %d", code)
	}
	if health.Status != "degraded" || health.Degraded["default"] == "" {
		t.Fatalf("degraded healthz body: %+v", health)
	}
	var scoped struct {
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	if code := getJSON(t, srv.URL+"/c/default/healthz", &scoped); code != http.StatusOK {
		t.Fatalf("scoped degraded healthz: status %d", code)
	}
	if scoped.Status != "degraded" || scoped.Error == "" {
		t.Fatalf("scoped degraded healthz body: %+v", scoped)
	}

	// /stats: degraded cause and rejection counter.
	var stats statsResponse
	if code := getJSON(t, srv.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	def := stats.Collections["default"]
	if def.Degraded == "" || def.DegradedRejects == 0 {
		t.Fatalf("stats missing degraded fields: degraded=%q rejects=%d", def.Degraded, def.DegradedRejects)
	}

	// Predictions stay live: a fresh query opens and serves.
	item := 0
	var st stateJSON
	if code := postJSON(t, srv.URL+"/query", queryRequest{Item: &item, K: 5}, &st); code != http.StatusOK {
		t.Fatalf("degraded query: status %d", code)
	}
}

// TestHardenedMiddleware: the panic barrier turns a handler panic into a
// 500 without killing the server, and the per-request deadline surfaces
// as 503 + Retry-After through the service's context path.
func TestHardenedMiddleware(t *testing.T) {
	reg := obsv.NewRegistry()
	h := Hardened(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("handler bug")
	}), 0, reg)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", rec.Code)
	}
	rid := rec.Header().Get("X-Request-Id")
	if rid == "" {
		t.Fatal("panicking handler: no X-Request-Id header")
	}
	var errResp errorResponse
	if err := json.NewDecoder(rec.Body).Decode(&errResp); err != nil || errResp.Error == "" {
		t.Fatalf("panicking handler body: %v %+v", err, errResp)
	}
	if errResp.RequestID != rid {
		t.Fatalf("panic body request_id = %q, want header's %q", errResp.RequestID, rid)
	}
	if m := reg.Snapshot().Find("fb_http_panics_total"); m == nil || m.Value != 1 {
		t.Fatalf("fb_http_panics_total = %+v, want 1", m)
	}

	// A request that outlives its deadline gets the context error mapped:
	// the handler below simulates a service call observing ctx expiry.
	h = Hardened(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		deadline, ok := r.Context().Deadline()
		if !ok {
			t.Error("request context has no deadline")
		}
		if until := time.Until(deadline); until > time.Minute {
			t.Errorf("deadline %v away, want <= request timeout", until)
		}
		<-r.Context().Done()
		err := fmt.Errorf("open: %w", r.Context().Err())
		writeError(w, r, statusFor(err), err)
	}), 5*time.Millisecond, reg)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/slow", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("expired request: status %d, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("expired request Retry-After = %q, want \"1\"", ra)
	}
	// The timeout response body names the request too.
	var toResp errorResponse
	if err := json.NewDecoder(rec.Body).Decode(&toResp); err != nil || toResp.RequestID == "" {
		t.Fatalf("timeout body: %v %+v, want request_id set", err, toResp)
	}
	if toResp.RequestID != rec.Header().Get("X-Request-Id") {
		t.Fatalf("timeout body request_id %q != header %q", toResp.RequestID, rec.Header().Get("X-Request-Id"))
	}
	if m := reg.Snapshot().Find("fb_http_timeouts_total"); m == nil || m.Value != 1 {
		t.Fatalf("fb_http_timeouts_total = %+v, want 1", m)
	}
}

// TestOversizedBodyRejected: a request body over maxBodyBytes is refused
// with 413 and the usual error body on every POST route instead of being
// buffered, and the collection keeps serving afterwards.
func TestOversizedBodyRejected(t *testing.T) {
	c := newTestCollection(t, "default", 5)
	srv := httptest.NewServer(Hardened(NewMux(map[string]*Collection{"default": c}, "default", nil, false), 0, nil))
	defer srv.Close()
	big := `{"feature":[` + strings.Repeat("0.5,", maxBodyBytes/4+1) + `0.5]}`
	for _, route := range []string{"/query", "/feedback", "/close"} {
		resp, err := http.Post(srv.URL+route, "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		var errResp errorResponse
		err = json.NewDecoder(resp.Body).Decode(&errResp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s with a %d-byte body: status %d, want 413", route, len(big), resp.StatusCode)
		}
		if err != nil || errResp.Error == "" || errResp.RequestID != resp.Header.Get("X-Request-Id") {
			t.Fatalf("%s 413 body: %v %+v, want an error naming request %q", route, err, errResp, resp.Header.Get("X-Request-Id"))
		}
	}
	item := 0
	var st stateJSON
	if code := postJSON(t, srv.URL+"/query", queryRequest{Item: &item, K: 8}, &st); code != http.StatusOK || len(st.Results) != 8 {
		t.Fatalf("query after the oversized bodies: status %d, %d results", code, len(st.Results))
	}
}
