package service

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obsv"
)

func TestClassifyOutcome(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, outOK},
		{ErrInvalidArgument, outInvalid},
		{ErrOverloaded, outOverloaded},
		{ErrSessionNotFound, outNotFound},
		{context.Canceled, outCanceled},
		{context.DeadlineExceeded, outDeadline},
		{core.ErrQuotaExceeded, outQuota},
		{core.ErrDegraded, outDegraded},
		{errors.New("boom"), outError},
		// Wrapped sentinels classify the same as bare ones.
		{errors.Join(core.ErrDegraded, errors.New("disk gone")), outDegraded},
	}
	for _, tc := range cases {
		if got := classifyOutcome(tc.err); got != tc.want {
			t.Errorf("classifyOutcome(%v) = %s, want %s", tc.err, outcomeNames[got], outcomeNames[tc.want])
		}
	}
}

// TestServiceInstrumentation drives a full session through an
// instrumented service and checks the registry's text exposition — what
// /metrics serves and the benchmark reads — carries the series, and that
// Stats reports the same counts.
func TestServiceInstrumentation(t *testing.T) {
	reg := obsv.NewRegistry()
	svc, ds := newTestService(t, Options{Obs: reg, ObsLabels: []obsv.Label{obsv.L("collection", "test")}})
	runSession(t, svc, ds, 0, 5)
	// A second session on the same item looks the prediction up again.
	runSession(t, svc, ds, 0, 5)
	// And one invalid open for the error taxonomy.
	if _, err := svc.Open(context.Background(), []float64{1}, 5); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("short feature: %v", err)
	}

	s := scrape(t, reg)
	st := svc.Stats()
	for series, want := range map[string]float64{
		`fb_service_requests_total{collection="test",op="open",outcome="ok"}`:               2,
		`fb_service_requests_total{collection="test",op="open",outcome="invalid_argument"}`: 1,
		`fb_service_request_seconds_count{collection="test",op="open"}`:                     3,
		`fb_service_requests_total{collection="test",op="close",outcome="ok"}`:              2,
		`fb_service_cache_requests_total{collection="test",result="hit"}`:                   float64(st.CacheHits),
		`fb_service_sessions_closed_total{collection="test"}`:                               2,
		`fb_service_feedback_rounds_total{collection="test"}`:                               float64(st.Feedbacks),
		`fb_service_warm_starts_total{collection="test"}`:                                   float64(st.WarmStarts),
		`fb_service_inserts_total{collection="test"}`:                                       float64(st.Inserts),
		`fb_service_inserts_stored_total{collection="test"}`:                                float64(st.InsertsStored),
		`fb_service_sessions_active{collection="test"}`:                                     0,
	} {
		if got, ok := s[series]; !ok || got != want {
			t.Errorf("%s = %v (exposed %v), want %v", series, got, ok, want)
		}
	}
	misses := s[`fb_service_cache_requests_total{collection="test",result="miss"}`]
	if misses < 1 || int64(misses)+st.CacheHits != st.Predictions {
		t.Errorf("cache misses %v + hits %d, want >= 1 miss summing to %d predictions", misses, st.CacheHits, st.Predictions)
	}
	if st.Feedbacks == 0 || st.Inserts == 0 {
		t.Errorf("Stats %+v: want feedback rounds and an insert", st)
	}
	if _, ok := s[`fb_service_cache_entries{collection="test"}`]; !ok {
		t.Error("cache_entries gauge missing")
	}
}

// TestUninstrumentedServiceHasNoMetrics: a service with Options.Obs nil
// counts into a private registry that no exposition shows; it serves
// sessions as usual, and Stats reports their counts.
func TestUninstrumentedServiceHasNoMetrics(t *testing.T) {
	svc, ds := newTestService(t, Options{})
	first := runSession(t, svc, ds, 0, 5)
	runSession(t, svc, ds, 0, 5)
	st := svc.Stats()
	if st.Opened != 2 || st.Closed != 2 || st.Predictions != 2 || st.Rejected != 0 {
		t.Fatalf("Stats %+v: want 2 opened, closed and predicted, none rejected", st)
	}
	if first.Iterations > 0 && (st.Feedbacks == 0 || st.Inserts == 0) {
		t.Fatalf("Stats %+v: a session with %d rounds counted no feedback or insert", st, first.Iterations)
	}
}

// scrape reads reg's text exposition into a map keyed by the full series
// name, labels included, exactly as exposed.
func scrape(t *testing.T, reg *obsv.Registry) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(sb.String(), "\n") {
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
