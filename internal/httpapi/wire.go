package httpapi

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"sync"

	"repro/internal/dataset"
	"repro/internal/service"
)

// The wire codec of the hot routes. Replies to /query, /feedback,
// /session and /close are appended into a pooled buffer with strconv,
// byte for byte what json.Encoder writes for the reply structs the tests
// keep as the oracle (FuzzWireCodec). Request bodies of /query,
// /feedback and /close are scanned when they are flat objects of the
// route's own keys; every other body is decoded by encoding/json over
// the same bytes, so encoding/json still defines what a body means and
// the text of every refusal.

// scanMaxBytes bounds the bodies the scanner reads: a legitimate one is
// about 1 KB. A longer or chunked body streams through encoding/json as
// it arrives, under maxBodyBytes.
const scanMaxBytes = 64 << 10

// bufPool holds the reply and request buffers, one per request in
// flight. A buffer grown past scanMaxBytes is left to the collector.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) > scanMaxBytes {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// appendState appends the session-state reply of /query, /feedback and
// /session, labelling each result with its item's category and theme.
// A non-finite distance is the error json.Marshal gives for it.
func appendState(b []byte, st service.SessionState, items []dataset.Item) ([]byte, error) {
	b = append(b, `{"session":`...)
	b = strconv.AppendUint(b, st.ID, 10)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(st.K), 10)
	b = append(b, `,"results":[`...)
	for i, r := range st.Results {
		if i > 0 {
			b = append(b, ',')
		}
		item := &items[r.Index]
		b = append(b, `{"index":`...)
		b = strconv.AppendInt(b, int64(r.Index), 10)
		b = append(b, `,"distance":`...)
		var err error
		if b, err = appendFloat(b, r.Distance); err != nil {
			return b, err
		}
		b = append(b, `,"category":`...)
		b = appendLabel(b, item.Category)
		b = append(b, `,"theme":`...)
		b = appendLabel(b, item.Theme)
		b = append(b, '}')
	}
	b = append(b, `],"iterations":`...)
	b = strconv.AppendInt(b, int64(st.Iterations), 10)
	b = append(b, `,"budget_left":`...)
	b = strconv.AppendInt(b, int64(st.BudgetLeft), 10)
	b = append(b, `,"converged":`...)
	b = strconv.AppendBool(b, st.Converged)
	b = append(b, `,"cache_hit":`...)
	b = strconv.AppendBool(b, st.CacheHit)
	b = append(b, `,"warm":`...)
	b = strconv.AppendBool(b, st.Warm)
	return append(b, "}\n"...), nil
}

// appendClose appends the /close reply.
func appendClose(b []byte, res service.CloseResult) []byte {
	b = append(b, `{"session":`...)
	b = strconv.AppendUint(b, res.ID, 10)
	b = append(b, `,"iterations":`...)
	b = strconv.AppendInt(b, int64(res.Iterations), 10)
	b = append(b, `,"inserted":`...)
	b = strconv.AppendBool(b, res.Inserted)
	return append(b, "}\n"...)
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// 'f' form, or 'e' with a two-digit exponent trimmed to one when |f| is
// below 1e-6 or at least 1e21.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendLabel appends s as a JSON string. A label of printable ASCII
// that encoding/json would not escape is copied as is; any other goes
// through json.Marshal, so its escaping is encoding/json's.
func appendLabel(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// jsonContentType is every reply's Content-Type header value, shared so
// that setting it allocates nothing; nothing appends to it in place.
var jsonContentType = []string{"application/json"}

// writeBody sends an encoded reply.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// A wireRequest is the argument struct of a hot route. scan fills it
// from body and reports true when body is a flat object the scanner
// reads; on false it leaves the struct as it was.
type wireRequest interface {
	scan(body []byte) bool
}

func (q *queryRequest) scan(body []byte) bool {
	var (
		t    queryRequest
		item int
		seen uint8
	)
	s := scanner{b: body}
	for s.next() {
		var bit uint8
		var ok bool
		switch string(s.key) {
		case "item":
			bit = 1
			item, ok = s.int()
			t.Item = &item
		case "feature":
			bit = 2
			t.Feature, ok = s.floats()
		case "k":
			bit = 4
			t.K, ok = s.int()
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
	if !s.end() {
		return false
	}
	*q = t
	return true
}

func (f *feedbackRequest) scan(body []byte) bool {
	var (
		t    feedbackRequest
		seen uint8
	)
	s := scanner{b: body}
	for s.next() {
		var bit uint8
		var ok bool
		switch string(s.key) {
		case "session":
			bit = 1
			t.Session, ok = s.uint()
		case "scores":
			bit = 2
			t.Scores, ok = s.floats()
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
	if !s.end() {
		return false
	}
	*f = t
	return true
}

func (c *closeRequest) scan(body []byte) bool {
	var (
		t    closeRequest
		seen bool
	)
	s := scanner{b: body}
	for s.next() {
		var ok bool
		if string(s.key) != "session" || seen {
			return false
		}
		if t.Session, ok = s.uint(); !ok {
			return false
		}
		seen = true
	}
	if !s.end() {
		return false
	}
	*c = t
	return true
}

// scanner reads the flat JSON bodies of the hot routes: one object,
// between optional whitespace, whose keys are the route's own names. A
// route's scan calls next for each member, reads the value with the
// method of the key's type, and asks end whether the body ended with
// the object.
type scanner struct {
	b      []byte
	i      int
	key    []byte // the current member's key
	opened bool   // the '{' has been read
	closed bool   // the '}' has been read
}

// next reads up to the next member's value: the '{' or ',' before it,
// its key and the ':' after it. It reports false at the object's end and
// on anything else.
func (s *scanner) next() bool {
	s.space()
	if s.opened {
		if !s.eat(',') {
			s.closed = s.eat('}')
			return false
		}
	} else {
		if !s.eat('{') {
			return false
		}
		s.opened = true
		s.space()
		if s.closed = s.eat('}'); s.closed {
			return false
		}
	}
	s.space()
	var ok bool
	if s.key, ok = s.rawString(); !ok {
		return false
	}
	s.space()
	if !s.eat(':') {
		return false
	}
	s.space()
	return true
}

// end reports whether the object closed and only whitespace follows it.
func (s *scanner) end() bool {
	s.space()
	return s.closed && s.i == len(s.b)
}

func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

func (s *scanner) eat(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// rawString reads a string up to its next '"'. A key holding an escape
// or a quote reads as a name no route has, so its body falls back.
func (s *scanner) rawString() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	n := bytes.IndexByte(s.b[s.i:], '"')
	if n < 0 {
		return nil, false
	}
	str := s.b[s.i : s.i+n]
	s.i += n + 1
	return str, true
}

// number reads one JSON number by the grammar's rules and reports
// whether it is a plain integer (no fraction, no exponent).
func (s *scanner) number() (lit []byte, integer, ok bool) {
	start := s.i
	s.eat('-')
	switch {
	case s.eat('0'):
	case s.i < len(s.b) && '1' <= s.b[s.i] && s.b[s.i] <= '9':
		s.digits()
	default:
		return nil, false, false
	}
	integer = true
	if s.eat('.') {
		integer = false
		if !s.digits() {
			return nil, false, false
		}
	}
	if s.eat('e') || s.eat('E') {
		integer = false
		if !s.eat('+') {
			s.eat('-')
		}
		if !s.digits() {
			return nil, false, false
		}
	}
	return s.b[start:s.i], integer, true
}

// digits reads one or more decimal digits.
func (s *scanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

// int reads an integer literal that fits an int, as encoding/json
// decodes one into an int field.
func (s *scanner) int() (int, bool) {
	lit, integer, ok := s.number()
	if !ok || !integer {
		return 0, false
	}
	v, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	return int(v), err == nil
}

// uint reads an integer literal that fits a uint64.
func (s *scanner) uint() (uint64, bool) {
	lit, integer, ok := s.number()
	if !ok || !integer {
		return 0, false
	}
	v, err := strconv.ParseUint(string(lit), 10, 64)
	return v, err == nil
}

// floats reads an array of numbers, each in float64's range. An empty
// array is an empty, non-nil slice, as encoding/json decodes it.
func (s *scanner) floats() ([]float64, bool) {
	if !s.eat('[') {
		return nil, false
	}
	s.space()
	if s.eat(']') {
		return []float64{}, true
	}
	// Size the slice from the commas before the array's end, so it is
	// allocated once.
	end := bytes.IndexByte(s.b[s.i:], ']')
	if end < 0 {
		return nil, false
	}
	out := make([]float64, 0, 1+bytes.Count(s.b[s.i:s.i+end], []byte{','}))
	for {
		lit, _, ok := s.number()
		if !ok {
			return nil, false
		}
		v, err := strconv.ParseFloat(string(lit), 64)
		if err != nil {
			return nil, false
		}
		out = append(out, v)
		s.space()
		if s.eat(']') {
			return out, true
		}
		if !s.eat(',') {
			return nil, false
		}
		s.space()
	}
}
