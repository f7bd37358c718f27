package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/histogram"
	"repro/internal/imagegen"
	"repro/internal/obsv"
)

// fuzzBodies seed the corpora of FuzzHTTPRequest and FuzzWireCodec:
// bodies of the three hot routes, well formed and not.
var fuzzBodies = []string{
	`{"item":0,"k":8}`, `{"item":3}`, `{"feature":` + feature32 + `,"k":5}`,
	`{"session":1,"scores":[1,0,1,0,0,1,0,0]}`, `{"session":1}`, `{"session":2,"scores":[]}`,
	`{"item":-1}`, `{"item":99999999}`, `{"item":0,"k":-4}`, `{"item":0,"k":1000000000}`,
	`{"session":18446744073709551615}`, `{"session":-1}`, `{"session":1,"scores":[1e308,-1e308]}`,
	`{"feature":[1e999]}`, `{"item":1e999}`, `{"feature":[0.5,0.5]}`, `{"feature":[]}`,
	`{"item":`, `{"feature":[0.1,`, ``, `null`, `[]`, `"query"`, `{"item":0}{"item":1}`,
	`{"session":1}{"session":2}`, `{"session":1} x`, "{\"session\":1}\n\t ",
	strings.Repeat(`[`, 10000), strings.Repeat(`{"feature":`, 2000),
	`{"session":3,"scores":[5e-324,0,0,0,0]}`,
}

// feature32 is a uniform 32-bin histogram as a JSON array.
var feature32 = `[` + strings.TrimSuffix(strings.Repeat("0.03125,", 32), ",") + `]`

// FuzzHTTPRequest gives the JSON surface the contract the binary parsers
// already have: whatever bytes arrive as the body of /query, /feedback or
// /close, the reply is valid JSON with a 2xx or 4xx status — never a
// panic behind the recovery barrier, never a 5xx.
func FuzzHTTPRequest(f *testing.F) {
	for _, body := range fuzzBodies {
		for route := uint8(0); route < 3; route++ {
			f.Add(route, []byte(body))
		}
	}

	ds, err := dataset.Build(imagegen.IMSILike(5, 0.02), histogram.DefaultExtractor)
	if err != nil {
		f.Fatal(err)
	}
	reg := obsv.NewRegistry()
	c, err := Assemble(ds, Config{K: 8, Epsilon: 0.05, MaxSessions: 64, Obs: reg})
	if err != nil {
		f.Fatal(err)
	}
	h := Hardened(NewMux(c, reg, false), 0, reg)
	panics := reg.Counter("fb_http_panics_total", "") // the counter Hardened registered
	routes := []string{"/query", "/feedback", "/close"}

	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		path := routes[int(route)%len(routes)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if class := rec.Code / 100; class != 2 && class != 4 {
			t.Fatalf("%s %q: status %d, want 2xx or 4xx: %s", path, body, rec.Code, rec.Body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s %q: reply is not JSON: %s", path, body, rec.Body)
		}
		if n := panics.Value(); n != 0 {
			t.Fatalf("%s %q: fb_http_panics_total = %d, want 0", path, body, n)
		}
	})
}
