package simplextree

import (
	"math/rand"
	"testing"

	"repro/internal/vec"
)

func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tr := newTestTree(t, 3, vec.Zeros(5), 0.01)
	for i := 0; i < 25; i++ {
		v := make([]float64, 5)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		if _, err := tr.Insert(randomInterior(rng, 3), v); err != nil {
			t.Fatal(err)
		}
	}
	snap := tr.Snapshot()
	if snap.Dim != 3 || snap.OQPDim != 5 || snap.Epsilon != 0.01 {
		t.Errorf("snapshot header: %+v", snap)
	}
	if snap.Points != tr.Stats().Points {
		t.Errorf("snapshot points = %d, want %d", snap.Points, tr.Stats().Points)
	}
	back, err := FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if back.Stats().Points != tr.Stats().Points || back.Stats().Leaves != tr.Stats().Leaves || back.Stats().Depth != tr.Stats().Depth {
		t.Error("shape mismatch after snapshot round trip")
	}
	for trial := 0; trial < 30; trial++ {
		q := randomInterior(rng, 3)
		want, err1 := tr.Predict(q)
		got, err2 := back.Predict(q)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("error mismatch: %v vs %v", err1, err2)
		}
		if err1 == nil && !vec.EqualTol(got, want, 1e-12) {
			t.Fatalf("prediction mismatch: %v vs %v", got, want)
		}
	}
}

func TestFromSnapshotValidation(t *testing.T) {
	tr := newTestTree(t, 2, []float64{1}, 0)
	if _, err := tr.Insert([]float64{0.3, 0.3}, []float64{2}); err != nil {
		t.Fatal(err)
	}
	base := tr.Snapshot()

	cases := []struct {
		name   string
		mutate func(*Snapshot)
	}{
		{"zero dim", func(s *Snapshot) { s.Dim = 0 }},
		{"zero oqp dim", func(s *Snapshot) { s.OQPDim = 0 }},
		{"negative epsilon", func(s *Snapshot) { s.Epsilon = -1 }},
		{"zero tol", func(s *Snapshot) { s.Tol = 0 }},
		{"negative points", func(s *Snapshot) { s.Points = -1 }},
		{"nil root", func(s *Snapshot) { s.Root = nil }},
		{"bad vertex point dim", func(s *Snapshot) { s.Vertices[0].Point = []float64{1} }},
		{"bad vertex value dim", func(s *Snapshot) { s.Vertices[0].Value = []float64{1, 2} }},
		{"vertex index out of range", func(s *Snapshot) { s.Root.Verts[0] = 99 }},
		{"wrong vertex count", func(s *Snapshot) { s.Root.Verts = s.Root.Verts[:1] }},
		{"leaf with split", func(s *Snapshot) { s.Root.Children[0].Split = 0 }},
		{"child/replaced mismatch", func(s *Snapshot) { s.Root.Replaced = s.Root.Replaced[:1] }},
		{"single child", func(s *Snapshot) {
			s.Root.Children = s.Root.Children[:1]
			s.Root.Replaced = s.Root.Replaced[:1]
		}},
		{"bad mu length", func(s *Snapshot) { s.Root.Mu = s.Root.Mu[:1] }},
		{"replaced out of range", func(s *Snapshot) { s.Root.Replaced[0] = 7 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Each case gets a fresh deep-enough copy by re-snapshotting.
			snap := tr.Snapshot()
			c.mutate(snap)
			if _, err := FromSnapshot(snap); err == nil {
				t.Error("expected validation error")
			}
		})
	}
	// The base snapshot still reconstructs (mutations copied, not shared).
	if _, err := FromSnapshot(base); err != nil {
		t.Fatal(err)
	}
}
