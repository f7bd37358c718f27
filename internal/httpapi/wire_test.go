package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/knn"
	"repro/internal/service"
)

// The reply structs of the hot routes, as encoding/json encoded them
// before the codec: the oracle FuzzWireCodec holds wire.go to, and what
// the tests decode replies into.

// resultJSON is one retrieved item, annotated with the oracle's category
// and theme so clients can score relevance.
type resultJSON struct {
	Index    int     `json:"index"`
	Distance float64 `json:"distance"`
	Category string  `json:"category"`
	Theme    string  `json:"theme"`
}

// stateJSON is the wire form of a session snapshot.
type stateJSON struct {
	Session    uint64       `json:"session"`
	K          int          `json:"k"`
	Results    []resultJSON `json:"results"`
	Iterations int          `json:"iterations"`
	BudgetLeft int          `json:"budget_left"`
	Converged  bool         `json:"converged"`
	CacheHit   bool         `json:"cache_hit"`
	Warm       bool         `json:"warm"`
}

type closeResponse struct {
	Session    uint64 `json:"session"`
	Iterations int    `json:"iterations"`
	Inserted   bool   `json:"inserted"`
}

func stateOracle(st service.SessionState, items []dataset.Item) stateJSON {
	results := make([]resultJSON, len(st.Results))
	for i, r := range st.Results {
		item := items[r.Index]
		results[i] = resultJSON{Index: r.Index, Distance: r.Distance, Category: item.Category, Theme: item.Theme}
	}
	return stateJSON{
		Session: st.ID, K: st.K, Results: results,
		Iterations: st.Iterations, BudgetLeft: st.BudgetLeft,
		Converged: st.Converged, CacheHit: st.CacheHit, Warm: st.Warm,
	}
}

// encodeOracle is json.Encoder's output for v, or its error.
func encodeOracle(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// jsonDecodePost is decodePost as it was before the scanner: the body
// through encoding/json alone.
func jsonDecodePost(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	err := dec.Decode(v)
	if err == nil {
		err = endOfBody(dec)
	}
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, r, status, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func sameFloats(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameRequest(a, b any) bool {
	switch a := a.(type) {
	case *queryRequest:
		b := b.(*queryRequest)
		if (a.Item == nil) != (b.Item == nil) || a.Item != nil && *a.Item != *b.Item {
			return false
		}
		return a.K == b.K && sameFloats(a.Feature, b.Feature)
	case *feedbackRequest:
		b := b.(*feedbackRequest)
		return a.Session == b.Session && sameFloats(a.Scores, b.Scores)
	default:
		return *a.(*closeRequest) == *b.(*closeRequest)
	}
}

// wireLabels are labels the encoder must copy or escape exactly as
// encoding/json does: HTML characters, the JavaScript line separators,
// control bytes, invalid UTF-8.
var wireLabels = []string{
	"Mammal", "", "a<b", "b>a", "R&D", "line\u2028sep\u2029", "ctl\x00\x01\x1f\t\n", "bad\xff\xfe utf8",
	`quote" back\slash`, "del\x7f", "日本", "\xed\xa0\x80",
}

// wireFloats are the distances at encoding/json's format boundaries.
var wireFloats = []float64{
	0.5, 1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), 5e-324, math.Copysign(0, -1),
	-1e-7, 1e20, 123456789.125, math.MaxFloat64, math.NaN(), math.Inf(-1), 1e-10,
}

// FuzzWireCodec holds the codec to encoding/json both ways. The encoder:
// for any session state, appendState and appendClose write the bytes
// json.Encoder writes for the oracle structs, or fail with its error.
// The decoder: for any body on any of the three routes, decodePost
// yields what encoding/json alone yields — the same struct (floats
// bitwise, nil and empty slices distinct) or the same refusal bytes.
func FuzzWireCodec(f *testing.F) {
	for i, body := range fuzzBodies {
		for route := uint8(0); route < 3; route++ {
			f.Add(route, []byte(body), uint64(i), i%7, wireFloats[i%len(wireFloats)], wireLabels[i%len(wireLabels)], "theme")
		}
	}
	for i, x := range wireFloats {
		f.Add(uint8(i), []byte(`{"session":1,"scores":[`+strconv.FormatFloat(x, 'g', -1, 64)+`]}`),
			math.MaxUint64-uint64(i), -i, x, wireLabels[i%len(wireLabels)], wireLabels[(i+3)%len(wireLabels)])
	}
	for _, body := range []string{
		`{"k":5,"item":2}`, ` {"item" : 0 , "k" : 8 } `, `{"item":-0}`, `{"session":-0}`, `{"item":1.0}`,
		`{"item":1e2}`, `{"session":18446744073709551616}`, `{"item":9223372036854775808}`,
		`{"feature":[-0,0.0,1E+2,1e-400,4.9e-324]}`, `{"scores":[1,2],"session":3}`, `{"Session":1}`,
		`{"session":1,"session":2}`, `{"scores":null,"session":1}`, `{"sess\u0069on":1}`, `{"item":01}`,
		`{"feature":[1,]}`, `{"feature":[.5]}`, `{"feature":[1.]}`, `{"feature":[1e]}`, `{"feature":[+1]}`,
		`{}`, `{"session":1,}`, "{\"session\":1}\x00", "\ufeff{\"session\":1}",
	} {
		for route := uint8(0); route < 3; route++ {
			f.Add(route, []byte(body), uint64(7), 5, 0.25, "Mammal", "dogs")
		}
	}

	f.Fuzz(func(t *testing.T, route uint8, body []byte, id uint64, n int, x float64, category, theme string) {
		items := []dataset.Item{{Category: category, Theme: theme}, {Category: theme, Theme: category}}
		candidates := []float64{x, -x, math.Float64frombits(id), float64(id), x / 3}
		results := make([]knn.Result, int(uint(n)%6))
		for i := range results {
			results[i] = knn.Result{Index: i % 2, Distance: candidates[(i+int(id%5))%len(candidates)]}
		}
		st := service.SessionState{
			ID: id, K: n, Results: results, Iterations: -n, BudgetLeft: int(id),
			Converged: id&1 != 0, CacheHit: id&2 != 0, Warm: n&1 != 0,
		}
		want, wantErr := encodeOracle(stateOracle(st, items))
		got, err := appendState(nil, st, items)
		switch {
		case wantErr != nil:
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("state %+v: appendState error %v, json.Encoder's %v", st, err, wantErr)
			}
		case err != nil || !bytes.Equal(got, want):
			t.Fatalf("state %+v:\nappendState %q (%v)\njson.Encoder %q", st, got, err, want)
		}
		res := service.CloseResult{ID: id, Iterations: n, Inserted: n&2 != 0}
		want, _ = encodeOracle(closeResponse{Session: res.ID, Iterations: res.Iterations, Inserted: res.Inserted})
		if got := appendClose(nil, res); !bytes.Equal(got, want) {
			t.Fatalf("close %+v:\nappendClose %q\njson.Encoder %q", res, got, want)
		}

		var fast, slow wireRequest
		switch route % 3 {
		case 0:
			fast, slow = new(queryRequest), new(queryRequest)
		case 1:
			fast, slow = new(feedbackRequest), new(feedbackRequest)
		default:
			fast, slow = new(closeRequest), new(closeRequest)
		}
		// route/3 picks the length the body declares: its own, as the
		// seeds do; none, as a chunked body does, so it streams through
		// encoding/json; or 0, so it is read whole before the scanner
		// sees it.
		req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
		req.ContentLength = [3]int64{req.ContentLength, -1, 0}[route/3%3]
		fastRec, slowRec := httptest.NewRecorder(), httptest.NewRecorder()
		fastOK := decodePost(fastRec, req, fast)
		slowOK := jsonDecodePost(slowRec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), slow)
		if fastOK != slowOK || fastRec.Code != slowRec.Code || !bytes.Equal(fastRec.Body.Bytes(), slowRec.Body.Bytes()) {
			t.Fatalf("body %q: decodePost %v %d %s, encoding/json %v %d %s",
				body, fastOK, fastRec.Code, fastRec.Body, slowOK, slowRec.Code, slowRec.Body)
		}
		if fastOK && !sameRequest(fast, slow) {
			t.Fatalf("body %q: decodePost %+v, encoding/json %+v", body, fast, slow)
		}
	})
}

// TestDecodePostReplaysOversizedBody: a body past maxBodyBytes under a
// length small enough to scan is read to the limit, and encoding/json
// then sees the bytes read and the limit's error, as it would have
// reading the body itself.
func TestDecodePostReplaysOversizedBody(t *testing.T) {
	for _, body := range []string{
		`{"session":1}` + strings.Repeat(" ", maxBodyBytes),
		`{"session":1} x` + strings.Repeat(" ", maxBodyBytes),
		`{"scores":[` + strings.Repeat("0,", maxBodyBytes/2) + `0]}`,
	} {
		req := httptest.NewRequest(http.MethodPost, "/feedback", strings.NewReader(body))
		req.ContentLength = 16
		fastRec, slowRec := httptest.NewRecorder(), httptest.NewRecorder()
		var fast, slow feedbackRequest
		fastOK := decodePost(fastRec, req, &fast)
		slowOK := jsonDecodePost(slowRec, httptest.NewRequest(http.MethodPost, "/feedback", strings.NewReader(body)), &slow)
		if fastOK || slowOK || fastRec.Code != slowRec.Code || fastRec.Body.String() != slowRec.Body.String() {
			t.Errorf("%.20q…: decodePost %v %d %s, encoding/json %v %d %s",
				body, fastOK, fastRec.Code, fastRec.Body, slowOK, slowRec.Code, slowRec.Body)
		}
	}
}

// TestWriteJSONUnencodable: a reply that does not encode is a 500 with a
// JSON error body, not a 200 with an empty one.
func TestWriteJSONUnencodable(t *testing.T) {
	for _, v := range []any{map[string]float64{"x": math.NaN()}, math.Inf(1), make(chan int)} {
		rec := httptest.NewRecorder()
		writeJSON(rec, httptest.NewRequest(http.MethodGet, "/stats", nil), http.StatusOK, v)
		var body errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusInternalServerError ||
			!strings.HasPrefix(body.Error, "encoding response: json: unsupported") {
			t.Errorf("%T: %d %q (%v), want a 500 naming the encoding failure", v, rec.Code, rec.Body, err)
		}
	}

	// The codec's own replies take the same path: a non-finite distance
	// is a 500, not a reply.
	c := &Collection{Dataset: &dataset.Dataset{Items: []dataset.Item{{Category: "Mammal", Theme: "dogs"}}}}
	rec := httptest.NewRecorder()
	c.writeState(rec, httptest.NewRequest(http.MethodGet, "/session?id=1", nil),
		service.SessionState{ID: 1, Results: []knn.Result{{Index: 0, Distance: math.NaN()}}})
	if rec.Code != http.StatusInternalServerError || !json.Valid(rec.Body.Bytes()) {
		t.Errorf("NaN distance: %d %q, want a 500 with a JSON body", rec.Code, rec.Body)
	}
}
