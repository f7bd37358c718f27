package obsv

import (
	"bufio"
	"math"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// promSampleRE matches one exposition sample line:
//
//	name{k="v",...} value
//
// with the label block optional. Values may be +Inf/-Inf/NaN or a Go
// float literal.
var promSampleRE = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? (\+Inf|-Inf|NaN|[-+0-9.eE]+)$`)

// validateProm parses text as Prometheus 0.0.4 exposition format,
// returning the set of sample names seen. It enforces: every non-comment
// line matches the sample grammar, every TYPE is declared before its
// samples, and histogram buckets are cumulative with a +Inf terminal.
func validateProm(t *testing.T, text string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	types := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 4 {
				t.Fatalf("malformed comment line: %q", line)
			}
			if fields[1] == "TYPE" {
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					t.Fatalf("bad TYPE %q in %q", fields[3], line)
				}
				types[fields[2]] = fields[3]
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment form: %q", line)
		}
		if !promSampleRE.MatchString(line) {
			t.Fatalf("line does not match sample grammar: %q", line)
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if _, ok := types[name]; !ok {
			if _, ok := types[base]; !ok {
				t.Fatalf("sample %q has no preceding TYPE declaration", name)
			}
		}
		names[name] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return names
}

func TestWritePromFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("fb_requests_total", "total requests", L("op", "open"), L("outcome", "ok")).Add(3)
	r.Counter("fb_requests_total", "total requests", L("op", "open"), L("outcome", "error")).Inc()
	r.Gauge("fb_sessions_active", "live sessions").Set(12)
	r.GaugeFunc("fb_tree_points", "vertices", func() float64 { return 99 }, L("shard", "0"))
	h := r.Histogram("fb_latency_seconds", "op latency", LatencyBounds(), L("op", "feedback"))
	h.Observe(0.0001)
	h.Observe(0.5)
	h.Observe(30) // +Inf

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	out := sb.String()
	names := validateProm(t, out)
	for _, want := range []string{
		"fb_requests_total", "fb_sessions_active", "fb_tree_points",
		"fb_latency_seconds_bucket", "fb_latency_seconds_sum", "fb_latency_seconds_count",
	} {
		if !names[want] {
			t.Fatalf("missing series %q in output:\n%s", want, out)
		}
	}
	if !strings.Contains(out, `fb_requests_total{op="open",outcome="ok"} 3`) {
		t.Fatalf("labeled counter sample missing:\n%s", out)
	}
	if !strings.Contains(out, `le="+Inf"`) {
		t.Fatalf("+Inf bucket missing:\n%s", out)
	}
	if !strings.Contains(out, "fb_latency_seconds_count{op=\"feedback\"} 3") {
		t.Fatalf("histogram count sample missing:\n%s", out)
	}
	// Buckets must be cumulative and the +Inf bucket must equal _count.
	var lastCum float64 = -1
	var infCum float64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "fb_latency_seconds_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("parse bucket value in %q: %v", line, err)
		}
		if v < lastCum {
			t.Fatalf("buckets not cumulative: %q after %g", line, lastCum)
		}
		lastCum = v
		if strings.Contains(line, `le="+Inf"`) {
			infCum = v
		}
	}
	if infCum != 3 {
		t.Fatalf("+Inf cumulative = %g, want 3", infCum)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", L("path", "a\"b\\c\nd")).Inc()
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	out := sb.String()
	validateProm(t, out)
	if !strings.Contains(out, `path="a\"b\\c\nd"`) {
		t.Fatalf("label not escaped:\n%s", out)
	}
}

func TestFormatFloatSpecials(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
		{1.5, "1.5"},
		{1e-6, "1e-06"},
	} {
		if got := formatFloat(tc.v); got != tc.want {
			t.Fatalf("formatFloat(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
	if got := formatFloat(math.NaN()); got != "NaN" {
		t.Fatalf("formatFloat(NaN) = %q", got)
	}
}

// TestSnapshotJSONRoundTrip: a counter and a histogram read back from
// the text exposition, the registry's one read path, with the values
// they were given; the histogram's buckets cumulative.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(2)
	r.Histogram("h_seconds", "", []float64{1, 2}).Observe(1.5)
	s := scrape(t, r)
	want := map[string]float64{
		"c_total":                  2,
		`h_seconds_bucket{le="1"}`: 0, `h_seconds_bucket{le="2"}`: 1, `h_seconds_bucket{le="+Inf"}`: 1,
		"h_seconds_sum": 1.5, "h_seconds_count": 1,
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("exposed %v, want %v", s, want)
	}
}

// scrape reads r's text exposition into a map keyed by the full series
// name, labels included, exactly as exposed: the way /metrics is read
// by the benchmark harness and by Prometheus.
func scrape(t *testing.T, r *Registry) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
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
