package service

import (
	"context"
	"errors"
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
// instrumented service and checks the registry ends up with the series
// the /metrics endpoint and the soak report read.
func TestServiceInstrumentation(t *testing.T) {
	reg := obsv.NewRegistry()
	svc, ds := newTestService(t, Options{Obs: reg, ObsLabels: []obsv.Label{obsv.L("collection", "test")}})
	runSession(t, svc, ds, 0, 5)
	// A second session on the same item exercises the cache-hit path.
	runSession(t, svc, ds, 0, 5)
	// And one invalid open for the error taxonomy.
	if _, err := svc.Open(context.Background(), []float64{1}, 5); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("short feature: %v", err)
	}

	s := reg.Snapshot()
	okOpens := s.Find("fb_service_requests_total", obsv.L("op", "open"), obsv.L("outcome", "ok"))
	if okOpens == nil || okOpens.Value != 2 {
		t.Fatalf("open/ok = %+v, want 2", okOpens)
	}
	badOpens := s.Find("fb_service_requests_total", obsv.L("op", "open"), obsv.L("outcome", "invalid_argument"))
	if badOpens == nil || badOpens.Value != 1 {
		t.Fatalf("open/invalid_argument = %+v, want 1", badOpens)
	}
	lat := s.Find("fb_service_request_seconds", obsv.L("op", "open"))
	if lat == nil || lat.Hist == nil || lat.Hist.Count != 3 {
		t.Fatalf("open latency histogram = %+v, want 3 observations", lat)
	}
	closes := s.Find("fb_service_requests_total", obsv.L("op", "close"), obsv.L("outcome", "ok"))
	if closes == nil || closes.Value != 2 {
		t.Fatalf("close/ok = %+v, want 2", closes)
	}
	hits := s.Find("fb_service_cache_requests_total", obsv.L("result", "hit"))
	misses := s.Find("fb_service_cache_requests_total", obsv.L("result", "miss"))
	if misses == nil || misses.Value < 1 {
		t.Fatalf("cache misses = %+v, want >= 1", misses)
	}
	if hits == nil {
		t.Fatalf("cache hit counter was not registered")
	}
	if int64(hits.Value) != svc.Stats().CacheHits {
		t.Fatalf("cache hits metric %v != Stats().CacheHits %d", hits.Value, svc.Stats().CacheHits)
	}
	if g := s.Find("fb_service_sessions_active"); g == nil || g.Value != 0 {
		t.Fatalf("sessions_active = %+v, want 0 after all sessions closed", g)
	}
	if g := s.Find("fb_service_cache_entries"); g == nil {
		t.Fatalf("cache_entries gauge missing")
	}
}

// TestUninstrumentedServiceHasNoMetrics pins the contract the overhead
// benchmark relies on: with Options.Obs nil the service keeps met == nil
// and takes the zero-clock fast path.
func TestUninstrumentedServiceHasNoMetrics(t *testing.T) {
	svc, ds := newTestService(t, Options{})
	if svc.met != nil {
		t.Fatalf("service without Obs must not carry metrics")
	}
	runSession(t, svc, ds, 0, 5)
}
