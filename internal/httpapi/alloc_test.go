//go:build !race

// sync.Pool drops items at random under the race detector, so the
// allocation count is pinned only without it.

package httpapi

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/dataset"
	"repro/internal/histogram"
	"repro/internal/imagegen"
	"repro/internal/obsv"
)

// handlerAllocsPerSession pins the allocations of one open + feedback +
// close through Hardened(NewMux(…)), the httptest requests and recorders
// included. The feedback scores nothing relevant, so the session inserts
// nothing and every session costs the same. It was 133 when encoding/json
// served the three routes.
const handlerAllocsPerSession = 98

// TestHandlerAllocsPerSession counts the serving edge's heap allocations
// per session and fails when the count rises above the pin.
func TestHandlerAllocsPerSession(t *testing.T) {
	ds, err := dataset.Build(imagegen.IMSILike(5, 0.02), histogram.DefaultExtractor)
	if err != nil {
		t.Fatal(err)
	}
	reg := obsv.NewRegistry()
	c, err := Assemble(ds, Config{K: 5, Epsilon: 0.05, MaxSessions: 4, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	h := Hardened(NewMux(c, reg, false), 0, reg)

	open := []byte(`{"item":3,"k":5}`)
	var feedback, closing []byte
	post := func(path string, body []byte) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s %s: %d %s", path, body, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	session := func() {
		reply := post("/query", open)
		_, rest, _ := bytes.Cut(reply, []byte(`"session":`))
		var id uint64
		for _, d := range rest {
			if d < '0' || d > '9' {
				break
			}
			id = 10*id + uint64(d-'0')
		}
		feedback = append(strconv.AppendUint(append(feedback[:0], `{"session":`...), id, 10), `,"scores":[0,0,0,0,0]}`...)
		closing = append(strconv.AppendUint(append(closing[:0], `{"session":`...), id, 10), '}')
		post("/feedback", feedback)
		post("/close", closing)
	}
	session() // warm the prediction cache and the pools
	got := testing.AllocsPerRun(200, session)
	t.Logf("%.0f allocations per open + feedback + close", got)
	if got > handlerAllocsPerSession {
		t.Errorf("%.0f allocations per session, above the pinned %d", got, handlerAllocsPerSession)
	}
}
