package obsv

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x_seconds", "", LatencyBounds())
	r.GaugeFunc("y", "", func() float64 { return 1 })
	c.Inc()
	c.Add(5)
	g.Set(3)
	h.Observe(0.1)
	h.ObserveSince(time.Now())
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatalf("nil instruments must read zero")
	}
	if h.Snapshot() != nil {
		t.Fatalf("nil histogram snapshot must be nil")
	}
	if err := r.WriteProm(nil); err != nil {
		t.Fatalf("nil registry WriteProm: %v", err)
	}
	if s := scrape(t, r); len(s) != 0 {
		t.Fatalf("nil registry exposes %v, want nothing", s)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("req_total", "requests", L("op", "open"))
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d, want 10", c.Value())
	}
	// Same name+labels returns the same instrument.
	if r.Counter("req_total", "requests", L("op", "open")) != c {
		t.Fatalf("get-or-create must return the existing counter")
	}
	// Label order must not matter.
	c2 := r.Counter("multi_total", "", L("b", "2"), L("a", "1"))
	if r.Counter("multi_total", "", L("a", "1"), L("b", "2")) != c2 {
		t.Fatalf("label order must not create a distinct instrument")
	}
	g := r.Gauge("depth", "")
	g.Set(4)
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", g.Value())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("thing", "")
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on kind mismatch")
		}
	}()
	r.Gauge("thing", "")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{1, 2, 4})
	// le semantics: an observation equal to an edge belongs to that edge's bucket.
	for _, v := range []float64{0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 100.0} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{2, 2, 2, 1} // (-inf,1], (1,2], (2,4], (4,+inf)
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts=%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	if math.Abs(s.Sum-112.0) > 1e-9 {
		t.Fatalf("sum = %g, want 112", s.Sum)
	}
}

func TestLatencyBounds(t *testing.T) {
	b := LatencyBounds()
	if b[0] != 1e-6 {
		t.Fatalf("first bound = %g, want 1e-6", b[0])
	}
	if b[len(b)-1] != 10 {
		t.Fatalf("last bound = %g, want 10", b[len(b)-1])
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not ascending at %d: %g <= %g", i, b[i], b[i-1])
		}
	}
}

// TestGaugeFuncAndFind: a pull gauge's callback is read at exposition,
// found under its exact series name, and re-registering replaces it.
func TestGaugeFuncAndFind(t *testing.T) {
	r := NewRegistry()
	v := 7.0
	r.GaugeFunc("pool_size", "pull gauge", func() float64 { return v }, L("pool", "a"))
	s := scrape(t, r)
	if m, ok := s[`pool_size{pool="a"}`]; !ok || m != 7 {
		t.Fatalf("pool_size = %v (present %v), want 7 in %v", m, ok, s)
	}
	if _, ok := s[`pool_size{pool="zzz"}`]; ok {
		t.Fatalf("a series with the wrong label is exposed: %v", s)
	}
	// Re-registering replaces the callback.
	r.GaugeFunc("pool_size", "pull gauge", func() float64 { return 42 }, L("pool", "a"))
	if m := scrape(t, r)[`pool_size{pool="a"}`]; m != 42 {
		t.Fatalf("replaced gauge func = %v, want 42", m)
	}
}

// TestRegistryRace hammers every instrument kind from many goroutines
// while concurrently exposing; run under -race in CI.
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			lbl := L("w", string(rune('a'+id%4)))
			for i := 0; i < iters; i++ {
				r.Counter("race_total", "", lbl).Inc()
				r.Gauge("race_gauge", "", lbl).Set(float64(i))
				r.Histogram("race_seconds", "", LatencyBounds(), lbl).Observe(float64(i) * 1e-6)
				if i%64 == 0 {
					r.GaugeFunc("race_fn", "", func() float64 { return float64(i) }, lbl)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb discard
			_ = r.WriteProm(&sb)
		}
	}()
	wg.Wait()
	<-done
	total := uint64(0)
	for _, lbl := range []Label{L("w", "a"), L("w", "b"), L("w", "c"), L("w", "d")} {
		total += r.Counter("race_total", "", lbl).Value()
	}
	if total != workers*iters {
		t.Fatalf("race_total = %d, want %d", total, workers*iters)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_seconds", "", LatencyBounds())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-6)
	}
}

func BenchmarkNilHistogramObserve(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(1e-6)
	}
}
