package httpapi

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obsv"
)

var updateWire = flag.Bool("update", false, "rewrite testdata/wire_golden.txt from the current responses")

const wireGolden = "testdata/wire_golden.txt"

// wireVolatile names every reply field whose value differs between two
// runs of the same script: the process block (identity and live heap)
// and the request ID. The golden file holds each as "<masked>", in place, so the field's
// presence and position still count. /metrics is recorded by series
// name and labels only, which leaves out every duration and gauge
// value.
var wireVolatile = []string{"start_time", "uptime_seconds", "go_version", "revision", "pid", "heap_live_bytes", "request_id"}

var wireMask = regexp.MustCompile(`"(` + strings.Join(wireVolatile, "|") + `)":("[^"]*"|[-+.0-9eE]+)`)

// TestWireGolden plays one fixed script of requests through the
// production handler — Hardened(NewMux(…)) — over a memory module and
// over a -dir module, and compares the status line and body bytes of
// every reply to testdata/wire_golden.txt: sessions fed back to
// convergence, a prediction-cache miss and hit, the refusals (400, 404,
// 405, 413, 429), /stats, /healthz and the /metrics series. Rerun with
// -update only when a wire change is intended, and give a reason for
// every changed line.
func TestWireGolden(t *testing.T) {
	var got bytes.Buffer
	for _, shape := range []struct {
		name string
		dir  string
	}{{"memory", ""}, {"dir", t.TempDir()}} {
		fmt.Fprintf(&got, "=== %s module\n", shape.name)
		playWireScript(t, &got, shape.dir)
	}
	if *updateWire {
		if err := os.MkdirAll(filepath.Dir(wireGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wireGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(wireGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got.Bytes()) {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(got.String(), "\n")
		for i := 0; i < len(wl) || i < len(gl); i++ {
			var w, g string
			if i < len(wl) {
				w = wl[i]
			}
			if i < len(gl) {
				g = gl[i]
			}
			if w != g {
				t.Fatalf("%s line %d differs (rerun with -update only if the change is intended)\nwant: %s\ngot:  %s", wireGolden, i+1, w, g)
			}
		}
	}
}

// playWireScript builds the collection — kept in dir when dir is not
// empty — and writes every exchange of the script to out.
func playWireScript(t *testing.T, out *bytes.Buffer, dir string) {
	t.Helper()
	reg := obsv.NewRegistry()
	RegisterProcessMetrics(reg)
	cfg := Config{
		Scale: 0.02, Seed: 5, K: 8, Epsilon: 0.05, Dir: dir,
		CompactEvery: 512, MaxSessions: 2, IterBudget: 5, CacheSize: 16, Obs: reg,
	}
	c, err := BuildCollection("synth:", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	h := Hardened(NewMux(c, reg, false), 0, reg)

	do := func(method, target, body string) []byte {
		t.Helper()
		shown := body
		if len(shown) > 80 {
			shown = fmt.Sprintf("<%d-byte body>", len(body))
		}
		fmt.Fprintf(out, "> %s %s %s\n", method, target, shown)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		fmt.Fprintf(out, "< %d %s\n", rec.Code, http.StatusText(rec.Code))
		if ra := rec.Header().Get("Retry-After"); ra != "" {
			fmt.Fprintf(out, "< Retry-After: %s\n", ra)
		}
		reply := rec.Body.Bytes()
		if target == "/metrics" {
			for _, line := range strings.Split(strings.TrimSuffix(string(reply), "\n"), "\n") {
				if series, _, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
					fmt.Fprintln(out, series)
				}
			}
			return reply
		}
		out.Write(wireMask.ReplaceAll(reply, []byte(`"$1":"<masked>"`)))
		return reply
	}
	open := func(item int) stateJSON {
		t.Helper()
		var st stateJSON
		if err := json.Unmarshal(do("POST", "/query", fmt.Sprintf(`{"item":%d,"k":5}`, item)), &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	closeSession := func(id uint64) { do("POST", "/close", fmt.Sprintf(`{"session":%d}`, id)) }

	do("GET", "/healthz", "")

	// One session fed back to convergence by the category oracle, then
	// closed: its outcome is inserted into the module.
	st := open(8)
	do("GET", fmt.Sprintf("/session?id=%d", st.Session), "")
	category := c.Dataset.Items[8].Category
	for !st.Converged {
		scores := make([]string, len(st.Results))
		for i, r := range st.Results {
			scores[i] = "0"
			if r.Category == category {
				scores[i] = "1"
			}
		}
		body := fmt.Sprintf(`{"session":%d,"scores":[%s]}`, st.Session, strings.Join(scores, ","))
		st = stateJSON{}
		if err := json.Unmarshal(do("POST", "/feedback", body), &st); err != nil {
			t.Fatal(err)
		}
	}
	closeSession(st.Session)

	// A prediction-cache miss, then a hit: a session closed without
	// feedback inserts nothing, so the cached prediction stays valid.
	miss := open(20)
	closeSession(miss.Session)
	hit := open(20)

	// Admission: two sessions are in flight, so a third open is a 429.
	second := open(4)
	do("POST", "/query", `{"item":5,"k":5}`)
	closeSession(hit.Session)

	// Refusals.
	do("POST", "/query", `{not json`)
	do("POST", "/close", fmt.Sprintf(`{"session":%d}{"session":%d}`, second.Session, second.Session+1))
	do("POST", "/query", fmt.Sprintf(`{"item":%d}`, c.Dataset.Len()))
	do("POST", "/feedback", `{"session":999,"scores":[1]}`)
	do("GET", "/session?id=999", "")
	do("GET", "/query", "")
	do("POST", "/query", `{"feature":[`+strings.Repeat("0.5,", maxBodyBytes/4+1)+`0.5]}`)
	closeSession(second.Session)

	do("GET", "/stats", "")
	do("GET", "/healthz", "")
	do("GET", "/metrics", "")

	// /session answers GET only. After /metrics, so its 405 adds no
	// series above.
	do("POST", "/session?id=1", "")
}
