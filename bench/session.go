package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/dataset"
)

// item is one retrieved object as the oracle sees it.
type item struct {
	Index    int    `json:"index"`
	Category string `json:"category"`
}

// state is what the oracle needs from a query or feedback reply.
type state struct {
	session    uint64
	results    []item
	budgetLeft int
	converged  bool
}

// backend is the serving surface a session is played against: fbserve
// over HTTP in the measured passes, service.Service in the traced run.
type backend interface {
	open(item int) (state, error)
	feedback(session uint64, scores []float64) (state, error)
	close(session uint64) (inserted bool, err error)
}

// phaseStats accumulates one phase of one client. Latencies are in
// milliseconds, one entry per request (open, feedback, close) or per
// session (the sum of its requests' latencies).
type phaseStats struct {
	open, feedback, close, session []float64

	sessions  int
	rounds    int     // /feedback requests sent
	precision float64 // sum over sessions of the first list's relevant fraction
	stored    int     // closes acknowledged with inserted:true
	attempted int     // operations (requests) issued
	failed    int     // operations that errored or failed a response check
	firstErr  error
	wall      time.Duration
}

func (p *phaseStats) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

func (p *phaseStats) merge(o *phaseStats) {
	p.open = append(p.open, o.open...)
	p.feedback = append(p.feedback, o.feedback...)
	p.close = append(p.close, o.close...)
	p.session = append(p.session, o.session...)
	p.sessions += o.sessions
	p.rounds += o.rounds
	p.precision += o.precision
	p.stored += o.stored
	p.attempted += o.attempted
	p.failed += o.failed
	if p.firstErr == nil {
		p.firstErr = o.firstErr
	}
}

// checkState validates what every query/feedback reply must satisfy.
func checkState(s state, wantSession uint64) error {
	switch {
	case s.session == 0:
		return errors.New("reply carries no session id")
	case wantSession != 0 && s.session != wantSession:
		return fmt.Errorf("reply is for session %d, want %d", s.session, wantSession)
	case len(s.results) != resultsK:
		return fmt.Errorf("reply has %d results, want %d", len(s.results), resultsK)
	}
	return nil
}

// play runs the given query items as sessions, closed loop with zero
// think time. A failed operation abandons its session; the remaining
// sessions still run.
func play(be backend, ds *dataset.Dataset, items []int, st *phaseStats) {
	begin := time.Now()
	scores := make([]float64, resultsK)
	for _, q := range items {
		playSession(be, ds, q, scores, st)
	}
	st.wall = time.Since(begin)
}

// playSession is the paper's category oracle: open, score every result 1
// iff its category equals the query item's, send feedback until the
// server reports convergence or an exhausted budget, then close.
func playSession(be backend, ds *dataset.Dataset, q int, scores []float64, st *phaseStats) {
	category := ds.Items[q].Category

	st.attempted++
	t0 := time.Now()
	s, err := be.open(q)
	openMS := ms(time.Since(t0))
	if err == nil {
		err = checkState(s, 0)
	}
	if err != nil {
		st.fail(fmt.Errorf("query item %d: %w", q, err))
		return
	}
	id := s.session
	total := openMS
	first := relevance(s.results, category, scores)

	// Feedback latencies go straight into st; an abandoned session takes
	// its own back out.
	fbStart := len(st.feedback)
	for !s.converged && s.budgetLeft > 0 {
		st.attempted++
		t0 = time.Now()
		s, err = be.feedback(id, scores)
		d := ms(time.Since(t0))
		if err == nil {
			err = checkState(s, id)
		}
		if err != nil {
			st.fail(fmt.Errorf("feedback session %d: %w", id, err))
			st.feedback = st.feedback[:fbStart]
			return
		}
		st.feedback = append(st.feedback, d)
		total += d
		relevance(s.results, category, scores)
	}

	st.attempted++
	t0 = time.Now()
	inserted, err := be.close(id)
	closeMS := ms(time.Since(t0))
	if err != nil {
		st.fail(fmt.Errorf("close session %d: %w", id, err))
		st.feedback = st.feedback[:fbStart]
		return
	}
	total += closeMS

	st.open = append(st.open, openMS)
	st.close = append(st.close, closeMS)
	st.session = append(st.session, total)
	st.sessions++
	st.rounds += len(st.feedback) - fbStart
	st.precision += first
	if inserted {
		st.stored++
	}
}

// relevance fills scores from the oracle and returns the relevant share.
func relevance(results []item, category string, scores []float64) float64 {
	good := 0
	for i, r := range results {
		scores[i] = 0
		if r.Category == category {
			scores[i] = 1
			good++
		}
	}
	return float64(good) / float64(len(results))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
