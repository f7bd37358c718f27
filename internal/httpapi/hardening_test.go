package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faultfs"
	"repro/internal/obsv"
)

// newFaultyTestServer wires the production handler over one durable
// collection whose filesystem is the fault-injection plane, so tests can
// flip the store read-only mid-flight.
func newFaultyTestServer(t *testing.T) (*httptest.Server, *dataset.Dataset, *faultfs.FS) {
	t.Helper()
	fs := faultfs.New(nil)
	c := newTestCollectionWith(t, 5, core.DurableOptions{FS: fs})
	srv := httptest.NewServer(Hardened(NewMux(c, nil, false), 0, nil))
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
		Status   string `json:"status"`
		Degraded string `json:"degraded"`
	}
	if code := getJSON(t, srv.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("degraded healthz: status %d", code)
	}
	if health.Status != "degraded" || health.Degraded == "" {
		t.Fatalf("degraded healthz body: %+v", health)
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
	if m, ok := scrape(t, reg)["fb_http_panics_total"]; !ok || m != 1 {
		t.Fatalf("fb_http_panics_total = %v (exposed %v), want 1", m, ok)
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
	if m, ok := scrape(t, reg)["fb_http_timeouts_total"]; !ok || m != 1 {
		t.Fatalf("fb_http_timeouts_total = %v (exposed %v), want 1", m, ok)
	}
}

// TestOversizedBodyRejected: a request body over maxBodyBytes is refused
// with 413 and the usual error body on every POST route instead of being
// buffered, and the collection keeps serving afterwards.
func TestOversizedBodyRejected(t *testing.T) {
	c := newTestCollection(t, 5)
	srv := httptest.NewServer(Hardened(NewMux(c, nil, false), 0, nil))
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

// TestOverflowingScoresRejected: finite scores whose sum overflows
// (1e308 each), or a lone positive score so small (subnormal) that 1/Σ
// overflows, are a client error, 400, that leaves the session as it was;
// a valid round on the same session still succeeds.
func TestOverflowingScoresRejected(t *testing.T) {
	srv, ds, _ := newTestServer(t)
	item := 0
	var st stateJSON
	if code := postJSON(t, srv.URL+"/query", queryRequest{Item: &item, K: 8}, &st); code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}
	for _, hostile := range [][]float64{{1e308}, {5e-324, 0}, {1e-310, 0}} {
		bad := make([]float64, len(st.Results))
		for i := range bad {
			bad[i] = hostile[min(i, len(hostile)-1)]
		}
		var errResp errorResponse
		if code := postJSON(t, srv.URL+"/feedback", feedbackRequest{Session: st.Session, Scores: bad}, &errResp); code != http.StatusBadRequest {
			t.Fatalf("feedback with scores %v: status %d (%+v), want 400", bad, code, errResp)
		}
		var after stateJSON
		if code := getJSON(t, fmt.Sprintf("%s/session?id=%d", srv.URL, st.Session), &after); code != http.StatusOK {
			t.Fatalf("session: status %d", code)
		}
		if after.Iterations != 0 || after.BudgetLeft != st.BudgetLeft || after.Converged || !reflect.DeepEqual(after.Results, st.Results) {
			t.Fatalf("rejected round %v changed the session: %+v, was %+v", bad, after, st)
		}
	}
	scores := make([]float64, len(st.Results))
	for i, r := range st.Results {
		if r.Category == ds.Items[item].Category {
			scores[i] = 1
		}
	}
	if code := postJSON(t, srv.URL+"/feedback", feedbackRequest{Session: st.Session, Scores: scores}, &st); code != http.StatusOK || st.Iterations != 1 {
		t.Fatalf("valid round after the rejected one: status %d, %d iterations", code, st.Iterations)
	}
}

// TestSessionIDParsing: /session takes a plain decimal uint64 id; a
// trailing suffix, a sign, an empty id or an overflowing one is a 400,
// never another session.
func TestSessionIDParsing(t *testing.T) {
	srv, _, _ := newTestServer(t)
	item := 0
	var st stateJSON
	if code := postJSON(t, srv.URL+"/query", queryRequest{Item: &item, K: 8}, &st); code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}
	for _, tc := range []struct {
		id   string
		want int
	}{
		{fmt.Sprint(st.Session), http.StatusOK},
		{fmt.Sprintf("%dabc", st.Session), http.StatusBadRequest},
		{fmt.Sprintf("+%d", st.Session), http.StatusBadRequest},
		{"", http.StatusBadRequest},
		{"18446744073709551616", http.StatusBadRequest},
	} {
		if code := getJSON(t, srv.URL+"/session?id="+url.QueryEscape(tc.id), nil); code != tc.want {
			t.Errorf("/session?id=%q: status %d, want %d", tc.id, code, tc.want)
		}
	}
}

// TestTrailingBodyRejected: a POST body is one JSON value. Anything but
// whitespace after it — a second value or stray bytes — is a 400 that
// changes nothing, so {"session":1}{"session":2} does not close session
// 1; the same value followed by whitespace is served as before.
func TestTrailingBodyRejected(t *testing.T) {
	srv, _, _ := newTestServer(t)
	post := func(route, body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+route, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var errResp errorResponse
		if resp.StatusCode == http.StatusBadRequest {
			if err := json.NewDecoder(resp.Body).Decode(&errResp); err != nil || errResp.Error == "" {
				t.Errorf("%s %q: 400 body %+v (%v), want an error", route, body, errResp, err)
			}
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	var a, b stateJSON
	for i, st := range []*stateJSON{&a, &b} {
		item := i
		if code := postJSON(t, srv.URL+"/query", queryRequest{Item: &item, K: 8}, st); code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
	}
	for _, tc := range []struct{ route, body string }{
		{"/close", fmt.Sprintf(`{"session":%d}{"session":%d}`, a.Session, b.Session)},
		{"/close", fmt.Sprintf(`{"session":%d} x`, a.Session)},
		{"/close", fmt.Sprintf(`{"session":%d}{`, a.Session)},
		{"/feedback", fmt.Sprintf(`{"session":%d,"scores":[1,0,0,0,0,0,0,0]}[]`, a.Session)},
		{"/query", `{"item":0}{"item":1}`},
	} {
		if code := post(tc.route, tc.body); code != http.StatusBadRequest {
			t.Errorf("%s %q: status %d, want 400", tc.route, tc.body, code)
		}
	}
	for _, st := range []stateJSON{a, b} {
		var after stateJSON
		if code := getJSON(t, fmt.Sprintf("%s/session?id=%d", srv.URL, st.Session), &after); code != http.StatusOK {
			t.Fatalf("session %d after the rejected bodies: status %d", st.Session, code)
		}
		if after.Iterations != 0 {
			t.Fatalf("session %d ran %d rounds on rejected bodies", st.Session, after.Iterations)
		}
	}
	if code := post("/close", fmt.Sprintf("{\"session\":%d}\n\t \r\n", a.Session)); code != http.StatusOK {
		t.Fatalf("close with trailing whitespace: status %d, want 200", code)
	}
	if code := getJSON(t, fmt.Sprintf("%s/session?id=%d", srv.URL, a.Session), nil); code == http.StatusOK {
		t.Fatalf("session %d still open after its close", a.Session)
	}
}
