package obsv

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteProm writes the registry contents in Prometheus text exposition
// format (version 0.0.4). Families appear in registration order; each
// emits # HELP / # TYPE once. No-op on a nil registry.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := append([]*family(nil), r.order...)
	r.mu.Unlock()
	for _, f := range fams {
		if err := f.writeProm(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) writeProm(w io.Writer) error {
	f.mu.Lock()
	metrics := append([]any(nil), f.order...)
	f.mu.Unlock()
	if len(metrics) == 0 {
		return nil
	}
	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
		return err
	}
	for _, m := range metrics {
		switch v := m.(type) {
		case *Counter:
			if err := writeSample(w, f.name, v.labels, "", "", float64(v.Value())); err != nil {
				return err
			}
		case *Gauge:
			if err := writeSample(w, f.name, v.labels, "", "", v.Value()); err != nil {
				return err
			}
		case *gaugeFunc:
			if err := writeSample(w, f.name, v.labels, "", "", v.value()); err != nil {
				return err
			}
		case *Histogram:
			s := v.Snapshot()
			cum := uint64(0)
			for i, b := range s.Bounds {
				cum += s.Counts[i]
				if err := writeSample(w, f.name+"_bucket", v.labels, "le", formatFloat(b), float64(cum)); err != nil {
					return err
				}
			}
			cum += s.Counts[len(s.Bounds)]
			if err := writeSample(w, f.name+"_bucket", v.labels, "le", "+Inf", float64(cum)); err != nil {
				return err
			}
			if err := writeSample(w, f.name+"_sum", v.labels, "", "", s.Sum); err != nil {
				return err
			}
			if err := writeSample(w, f.name+"_count", v.labels, "", "", float64(s.Count)); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSample emits one `name{labels} value` line. extraKey/extraVal
// append a synthetic label (the histogram `le` edge) after the fixed
// labels.
func writeSample(w io.Writer, name string, labels []Label, extraKey, extraVal string, value float64) error {
	var sb strings.Builder
	sb.WriteString(name)
	if len(labels) > 0 || extraKey != "" {
		sb.WriteByte('{')
		first := true
		for _, l := range labels {
			if !first {
				sb.WriteByte(',')
			}
			first = false
			sb.WriteString(l.Key)
			sb.WriteString(`="`)
			sb.WriteString(escapeLabel(l.Value))
			sb.WriteByte('"')
		}
		if extraKey != "" {
			if !first {
				sb.WriteByte(',')
			}
			sb.WriteString(extraKey)
			sb.WriteString(`="`)
			sb.WriteString(escapeLabel(extraVal))
			sb.WriteByte('"')
		}
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(formatFloat(value))
	sb.WriteByte('\n')
	_, err := io.WriteString(w, sb.String())
	return err
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	return strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(s)
}

func escapeHelp(s string) string {
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(s)
}

// HistSnapshot is a point-in-time copy of one histogram. Counts has
// len(Bounds)+1 entries; the final entry is the +Inf overflow bucket.
type HistSnapshot struct {
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}
