package experiments

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/dataset"
	"repro/internal/histogram"
	"repro/internal/httpapi"
	"repro/internal/imagegen"
)

func TestRunServeSmallScale(t *testing.T) {
	cfg := ServeConfig{
		Seed:             3,
		Scale:            0.03,
		K:                6,
		Epsilon:          0.05,
		SessionsPerLevel: 12,
		Levels:           []int{1, 4},
	}
	res, err := RunServe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) != 2 {
		t.Fatalf("got %d levels", len(res.Levels))
	}
	for _, lvl := range res.Levels {
		if lvl.Train.Sessions != cfg.SessionsPerLevel {
			t.Errorf("level %d train: completed %d sessions", lvl.Clients, lvl.Train.Sessions)
		}
		if lvl.Bypass.Sessions != 2*cfg.SessionsPerLevel {
			t.Errorf("level %d bypass: completed %d sessions, want two passes", lvl.Clients, lvl.Bypass.Sessions)
		}
		for name, ph := range map[string]ServePhaseResult{"train": lvl.Train, "bypass": lvl.Bypass} {
			// Every session is at least Open + Close.
			if ph.Ops < 2*ph.Sessions {
				t.Errorf("level %d %s: only %d ops", lvl.Clients, name, ph.Ops)
			}
			if ph.P50Micros < 0 || ph.P99Micros < ph.P50Micros {
				t.Errorf("level %d %s: implausible latencies p50=%v p99=%v", lvl.Clients, name, ph.P50Micros, ph.P99Micros)
			}
			if ph.CacheHitRate < 0 || ph.CacheHitRate > 1 || ph.WarmRate < 0 || ph.WarmRate > 1 {
				t.Errorf("level %d %s: rates out of range: %+v", lvl.Clients, name, ph)
			}
		}
		// The bypass phase gives no feedback, so it can never insert and
		// never runs a refinement round.
		if lvl.Bypass.Feedbacks != 0 || lvl.Bypass.Inserted != 0 {
			t.Errorf("level %d bypass phase trained: %+v", lvl.Clients, lvl.Bypass)
		}
	}
	// The bypass phase re-issues the train phase's stream with no
	// intervening inserts, so by the last level the LRU must be serving.
	last := res.Levels[len(res.Levels)-1]
	if last.Bypass.CacheHitRate == 0 {
		t.Error("bypass phase never hit the prediction cache")
	}
	if res.FinalStats.ActiveSessions != 0 {
		t.Error("benchmark leaked sessions")
	}
	if want := int64(2 * 3 * cfg.SessionsPerLevel); res.FinalStats.Opened != want { // 2 levels × (1 train + 2 bypass passes)
		t.Errorf("opened %d sessions, want %d", res.FinalStats.Opened, want)
	}
	if res.FinalStats.Inserts == 0 {
		t.Error("no session ever inserted")
	}
	bad := []ServeConfig{
		{Scale: 0, SessionsPerLevel: 1, K: 1},
		{Scale: 1, SessionsPerLevel: 0, K: 1},
		{Scale: 1, SessionsPerLevel: 1, K: 0},
		{Scale: 0.02, SessionsPerLevel: 1, K: 1, Levels: []int{0}},
	}
	for i, cfg := range bad {
		if _, err := RunServe(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestServeFigureMeasuresTheProduct: the serve figure at clients = 1 and
// the same session script replayed as HTTP requests against httpapi's
// handler, on a collection assembled with the same configuration, report
// the same inserts, cache-hit rate and warm rate in both phases — the
// figure measures the stack fbserve runs, not a stand-in.
func TestServeFigureMeasuresTheProduct(t *testing.T) {
	cfg := ServeConfig{Seed: 3, Scale: 0.03, K: 6, Epsilon: 0.05, SessionsPerLevel: 12, Levels: []int{1}}
	res, err := RunServe(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ds, err := dataset.Build(imagegen.IMSILike(cfg.Seed, cfg.Scale), histogram.DefaultExtractor)
	if err != nil {
		t.Fatal(err)
	}
	c, err := httpapi.Assemble("serve", ds, nil, httpapi.Config{K: cfg.K, Epsilon: cfg.Epsilon, MaxSessions: closedLoopSessions})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(httpapi.NewMux(map[string]*httpapi.Collection{"serve": c}, "serve", nil, false))
	defer srv.Close()
	items, err := ds.SampleQueries(rand.New(rand.NewSource(cfg.Seed+1009)), cfg.SessionsPerLevel)
	if err != nil {
		t.Fatal(err)
	}

	type state struct {
		Session uint64 `json:"session"`
		Results []struct {
			Category string `json:"category"`
		} `json:"results"`
		Converged bool `json:"converged"`
	}
	post := func(path string, body map[string]any, out any) {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	phase := func(items []int, withFeedback bool) ServePhaseResult {
		before := c.Service.Stats()
		for _, item := range items {
			var st state
			post("/query", map[string]any{"item": item, "k": cfg.K}, &st)
			for withFeedback && !st.Converged {
				scores := make([]float64, len(st.Results))
				for i, r := range st.Results {
					if r.Category == ds.Items[item].Category {
						scores[i] = 1
					}
				}
				post("/feedback", map[string]any{"session": st.Session, "scores": scores}, &st)
			}
			post("/close", map[string]any{"session": st.Session}, &struct{}{})
		}
		var got ServePhaseResult
		got.setBypassEffect(before, c.Service.Stats())
		return got
	}
	train := phase(items, true)
	bypass := phase(append(append([]int{}, items...), items...), false)

	for _, cmp := range []struct {
		name      string
		fig, http ServePhaseResult
	}{{"train", res.Levels[0].Train, train}, {"bypass", res.Levels[0].Bypass, bypass}} {
		if cmp.fig.Inserted != cmp.http.Inserted || cmp.fig.CacheHitRate != cmp.http.CacheHitRate || cmp.fig.WarmRate != cmp.http.WarmRate {
			t.Errorf("%s phase: figure {inserted %d, hit %v, warm %v} != HTTP replay {inserted %d, hit %v, warm %v}", cmp.name,
				cmp.fig.Inserted, cmp.fig.CacheHitRate, cmp.fig.WarmRate, cmp.http.Inserted, cmp.http.CacheHitRate, cmp.http.WarmRate)
		}
	}
	if res.Levels[0].Train.Inserted == 0 {
		t.Error("train phase inserted nothing: the comparison is vacuous")
	}
}
