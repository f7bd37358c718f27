// Package obsv is the repo's observability plane: a zero-dependency
// metrics registry with atomic counters, gauges, and fixed-bucket
// lock-free latency histograms.
//
// Design constraints, in order:
//
//  1. Allocation-free on the hot path. Instruments are created once at
//     wire-up time; Inc/Set/Observe touch only pre-allocated atomics.
//  2. Nil-safe everywhere. A nil *Registry returns nil instruments and a
//     nil instrument's methods no-op, so instrumented packages never
//     branch on "is observability enabled" — they just call through.
//     Packages that would otherwise pay for time.Now() still guard the
//     timing itself with a nil check.
//  3. Zero dependencies. Exposition (prom.go) is hand-rolled Prometheus
//     text format; snapshots are plain JSON-encodable structs so bench
//     artifacts can embed them.
package obsv

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is a metric dimension. Labels are fixed at instrument creation.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Instrument kinds, used in exposition and snapshots.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// Counter is a monotonically increasing uint64.
type Counter struct {
	labels []Label
	v      atomic.Uint64
}

// Inc adds 1. Safe on a nil receiver.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. Safe on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count. Zero on a nil receiver.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down.
type Gauge struct {
	labels []Label
	bits   atomic.Uint64
}

// Set stores v. Safe on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value. Zero on a nil receiver.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// gaugeFunc is a gauge whose value is pulled from a callback at
// collection time (exposition / snapshot), not pushed.
type gaugeFunc struct {
	labels []Label
	fn     atomic.Pointer[func() float64] // swapped by re-registration while collectors call it
}

func (g *gaugeFunc) value() float64 { return (*g.fn.Load())() }

// Histogram is a fixed-bucket lock-free histogram. Bounds are upper
// bucket edges in ascending order; an implicit +Inf bucket catches
// overflow. Observe is wait-free on the bucket counts; the running sum
// uses a CAS loop on float64 bits.
type Histogram struct {
	labels  []Label
	bounds  []float64 // shared, never mutated after creation
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records v. Safe on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Branchless-ish binary search over the bounds; len(bounds) is the
	// +Inf bucket index.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0. Safe on a nil
// receiver.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h != nil {
		h.Observe(time.Since(t0).Seconds())
	}
}

// Snapshot returns a point-in-time copy of the histogram state.
func (h *Histogram) Snapshot() *HistSnapshot {
	if h == nil {
		return nil
	}
	s := &HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}

// LatencyBounds returns the standard latency bucket edges: exponential
// (doubling) from 1µs up through ~8.4s, capped with a final 10s edge.
// Everything above 10s lands in the implicit +Inf bucket.
func LatencyBounds() []float64 {
	var b []float64
	for v := 1e-6; v < 10; v *= 2 {
		b = append(b, v)
	}
	return append(b, 10)
}

// family groups all instruments sharing one metric name. HELP/TYPE are
// emitted once per family; label sets distinguish members.
type family struct {
	name   string
	help   string
	kind   string
	bounds []float64 // histograms only

	mu      sync.Mutex
	byLabel map[string]any // *Counter | *Gauge | *gaugeFunc | *Histogram
	order   []any
}

// Registry is a named collection of metric families. All methods are
// safe for concurrent use and safe on a nil receiver (returning nil
// instruments / empty output).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) getFamily(name, help, kind string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, bounds: bounds, byLabel: make(map[string]any)}
		r.families[name] = f
		r.order = append(r.order, f)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obsv: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	return f
}

func labelSig(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	for _, l := range labels {
		sb.WriteString(l.Key)
		sb.WriteByte('\x00')
		sb.WriteString(l.Value)
		sb.WriteByte('\x00')
	}
	return sb.String()
}

// sortLabels returns a copy of labels sorted by key so that the same
// label set always maps to the same instrument regardless of call-site
// ordering.
func sortLabels(labels []Label) []Label {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// Counter returns the counter for name+labels, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	f := r.getFamily(name, help, KindCounter, nil)
	ls := sortLabels(labels)
	sig := labelSig(ls)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.byLabel[sig]; ok {
		return m.(*Counter)
	}
	c := &Counter{labels: ls}
	f.byLabel[sig] = c
	f.order = append(f.order, c)
	return c
}

// Gauge returns the gauge for name+labels, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	f := r.getFamily(name, help, KindGauge, nil)
	ls := sortLabels(labels)
	sig := labelSig(ls)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.byLabel[sig]; ok {
		return m.(*Gauge)
	}
	g := &Gauge{labels: ls}
	f.byLabel[sig] = g
	f.order = append(f.order, g)
	return g
}

// GaugeFunc registers a pull-style gauge whose value is fn() at
// collection time. Re-registering the same name+labels replaces fn.
// No-op on a nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	f := r.getFamily(name, help, KindGauge, nil)
	ls := sortLabels(labels)
	sig := labelSig(ls)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.byLabel[sig]; ok {
		if gf, ok := m.(*gaugeFunc); ok {
			gf.fn.Store(&fn)
			return
		}
		panic(fmt.Sprintf("obsv: metric %q already registered as a plain gauge", name))
	}
	gf := &gaugeFunc{labels: ls}
	gf.fn.Store(&fn)
	f.byLabel[sig] = gf
	f.order = append(f.order, gf)
}

// Histogram returns the histogram for name+labels, creating it with the
// given bucket bounds on first use. Bounds must be ascending; they are
// fixed by the first registration of the family. Returns nil on a nil
// registry.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	f := r.getFamily(name, help, KindHistogram, bounds)
	ls := sortLabels(labels)
	sig := labelSig(ls)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.byLabel[sig]; ok {
		return m.(*Histogram)
	}
	h := &Histogram{
		labels:  ls,
		bounds:  f.bounds,
		buckets: make([]atomic.Uint64, len(f.bounds)+1),
	}
	f.byLabel[sig] = h
	f.order = append(f.order, h)
	return h
}
