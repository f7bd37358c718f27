package geom

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// contains reports whether q lies in s, boundary included: the
// barycentric test the Simplex Tree applies to its root.
func contains(s *Simplex, q []float64) bool {
	lam, err := s.Barycentric(q)
	return err == nil && AllNonNegative(lam, DefaultTol)
}

// fromBarycentric maps barycentric coordinates λ back to the point
// Σλ_i·v_i of s.
func fromBarycentric(s *Simplex, lam []float64) ([]float64, error) {
	if len(lam) != len(s.verts) {
		return nil, fmt.Errorf("got %d coordinates, want %d", len(lam), len(s.verts))
	}
	out := make([]float64, s.Dim())
	for i, l := range lam {
		vec.Axpy(out, l, s.verts[i])
	}
	return out, nil
}

// sum returns Σ_i v_i.
func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// interiorPoint returns the point of s with barycentric weights w,
// normalized to sum to 1.
func interiorPoint(s *Simplex, w []float64) ([]float64, error) {
	return fromBarycentric(s, vec.ScaleInPlace(vec.Clone(w), 1/sum(w)))
}

// splitAt decomposes s around the interior point p the way the Simplex
// Tree splits a leaf (§4.1): child h replaces vertex h by p, and
// children with μ_h ≤ DefaultTol are skipped.
func splitAt(s *Simplex, p []float64) (children []*Simplex, replaced []int, mu []float64, err error) {
	if mu, err = s.Barycentric(p); err != nil {
		return nil, nil, nil, err
	}
	for h := range mu {
		if mu[h] <= DefaultTol {
			continue
		}
		verts := make([][]float64, len(s.verts))
		copy(verts, s.verts)
		verts[h] = p
		children = append(children, &Simplex{verts: verts})
		replaced = append(replaced, h)
	}
	return children, replaced, mu, nil
}

func TestNewSimplexValidation(t *testing.T) {
	if _, err := NewSimplex(nil); err == nil {
		t.Error("empty vertex list should error")
	}
	if _, err := NewSimplex([][]float64{{1, 2}, {3, 4}}); err == nil {
		t.Error("2 vertices of dim 2 should error (want dim 1)")
	}
	s, err := NewSimplex([][]float64{{0, 0}, {1, 0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Dim() != 2 {
		t.Errorf("Dim = %d", s.Dim())
	}
}

func TestStandardSimplex(t *testing.T) {
	s := StandardSimplex(3)
	if s.Dim() != 3 {
		t.Fatalf("unexpected dim %d", s.Dim())
	}
	if !vec.Equal(s.Vertex(0), []float64{0, 0, 0}) {
		t.Errorf("v0 = %v", s.Vertex(0))
	}
	if !vec.Equal(s.Vertex(2), []float64{0, 1, 0}) {
		t.Errorf("v2 = %v", s.Vertex(2))
	}
	// Normalized-histogram prefix vectors are inside.
	if !contains(s, []float64{0.2, 0.3, 0.1}) {
		t.Error("histogram point should be inside standard simplex")
	}
	if contains(s, []float64{0.5, 0.6, 0.2}) {
		t.Error("point with sum > 1 should be outside")
	}
}

func TestBarycentricKnown2D(t *testing.T) {
	s := StandardSimplex(2) // vertices (0,0), (1,0), (0,1)
	lam, err := s.Barycentric([]float64{0.25, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.25, 0.25, 0.5}
	if !vec.EqualTol(lam, want, 1e-12) {
		t.Errorf("λ = %v, want %v", lam, want)
	}
}

func TestBarycentricDimensionMismatch(t *testing.T) {
	s := StandardSimplex(2)
	if _, err := s.Barycentric([]float64{1}); err == nil {
		t.Error("expected dimension error")
	}
}

func TestBarycentricDegenerateSimplex(t *testing.T) {
	// Three collinear points: no unique barycentric coordinates.
	s, err := NewSimplex([][]float64{{0, 0}, {1, 1}, {2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Barycentric([]float64{0.5, 0.5}); err == nil {
		t.Error("expected degenerate error for collinear vertices")
	}
	if contains(s, []float64{0.5, 0.5}) {
		t.Error("degenerate simplex should contain nothing")
	}
}

// Property: coordinates sum to 1 and reconstruct the point.
func TestBarycentricRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, d := range []int{1, 2, 3, 5, 8, 15, 31} {
		s := StandardSimplex(d)
		for trial := 0; trial < 10; trial++ {
			q := make([]float64, d)
			for i := range q {
				q[i] = rng.Float64() * 2 / float64(d) // mixture of in/out points
			}
			lam, err := s.Barycentric(q)
			if err != nil {
				t.Fatalf("d=%d: %v", d, err)
			}
			if math.Abs(sum(lam)-1) > 1e-9 {
				t.Fatalf("d=%d: Σλ = %v", d, sum(lam))
			}
			back, err := fromBarycentric(s, lam)
			if err != nil {
				t.Fatal(err)
			}
			if !vec.EqualTol(back, q, 1e-9) {
				t.Fatalf("d=%d: round trip %v -> %v", d, q, back)
			}
		}
	}
}

func TestBarycentricAtVertices(t *testing.T) {
	s := StandardSimplex(4)
	for i := 0; i <= s.Dim(); i++ {
		lam, err := s.Barycentric(s.Vertex(i))
		if err != nil {
			t.Fatal(err)
		}
		for j, l := range lam {
			want := 0.0
			if j == i {
				want = 1.0
			}
			if math.Abs(l-want) > 1e-10 {
				t.Fatalf("vertex %d: λ[%d] = %v, want %v", i, j, l, want)
			}
		}
	}
}

func TestChildBarycentricMatchesDirectSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, d := range []int{2, 3, 5, 10} {
		s := StandardSimplex(d)
		w := make([]float64, d+1)
		for i := range w {
			w[i] = 0.2 + rng.Float64()
		}
		p, err := interiorPoint(s, w)
		if err != nil {
			t.Fatal(err)
		}
		children, replaced, mu, err := splitAt(s, p)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 5; trial++ {
			q := make([]float64, d)
			for i := range q {
				q[i] = rng.Float64() / float64(d)
			}
			lam, err := s.Barycentric(q)
			if err != nil {
				t.Fatal(err)
			}
			for ci, c := range children {
				h := replaced[ci]
				nu := make([]float64, len(lam))
				ok := ChildBarycentricInto(nu, lam, mu, h, DefaultTol)
				if !ok {
					t.Fatalf("d=%d: ChildBarycentricInto rejected non-degenerate child", d)
				}
				direct, err := c.Barycentric(q)
				if err != nil {
					t.Fatal(err)
				}
				if !vec.EqualTol(nu, direct, 1e-8) {
					t.Fatalf("d=%d child %d: incremental %v vs direct %v", d, h, nu, direct)
				}
			}
		}
	}
}

func TestChildBarycentricExactlyOneContainingChild(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d := 4
	s := StandardSimplex(d)
	p, err := interiorPoint(s, vec.Ones(d+1))
	if err != nil {
		t.Fatal(err)
	}
	_, replaced, mu, err := splitAt(s, p)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		// Random interior point of the parent.
		w := make([]float64, d+1)
		for i := range w {
			w[i] = 0.05 + rng.Float64()
		}
		q, err := interiorPoint(s, w)
		if err != nil {
			t.Fatal(err)
		}
		lam, err := s.Barycentric(q)
		if err != nil {
			t.Fatal(err)
		}
		containing := 0
		for _, h := range replaced {
			nu := make([]float64, len(lam))
			ok := ChildBarycentricInto(nu, lam, mu, h, DefaultTol)
			if ok && AllNonNegative(nu, DefaultTol) {
				containing++
			}
		}
		if containing < 1 {
			t.Fatalf("trial %d: no child contains interior point %v", trial, q)
		}
		// Points on internal boundaries may be claimed by several children;
		// random interior points should almost always be claimed by one.
		if containing > 2 {
			t.Fatalf("trial %d: %d children claim point %v", trial, containing, q)
		}
	}
}

func TestChildBarycentricDegenerateAndBadInput(t *testing.T) {
	lam := []float64{0.3, 0.3, 0.4}
	mu := []float64{0, 0.5, 0.5}
	nu := []float64{7, 7, 7}
	if ChildBarycentricInto(nu, lam, mu, 0, DefaultTol) {
		t.Error("degenerate child should be rejected")
	}
	if ChildBarycentricInto(nu, lam, mu, 5, DefaultTol) || ChildBarycentricInto(nu, lam, mu, -1, DefaultTol) {
		t.Error("out-of-range h should be rejected")
	}
	if ChildBarycentricInto(nu, []float64{1}, mu, 1, DefaultTol) || ChildBarycentricInto(nu[:2], lam, mu, 1, DefaultTol) {
		t.Error("length mismatch should be rejected")
	}
	if !vec.Equal(nu, []float64{7, 7, 7}) {
		t.Errorf("rejected call wrote %v", nu)
	}
}

func TestContainsBoundary(t *testing.T) {
	s := StandardSimplex(2)
	// Vertices and edge midpoints are boundary points: contained.
	for _, q := range [][]float64{{0, 0}, {1, 0}, {0, 1}, {0.5, 0}, {0, 0.5}, {0.5, 0.5}} {
		if !contains(s, q) {
			t.Errorf("boundary point %v should be contained", q)
		}
	}
	for _, q := range [][]float64{{-0.01, 0}, {1.01, 0}, {0.6, 0.6}} {
		if contains(s, q) {
			t.Errorf("exterior point %v should not be contained", q)
		}
	}
}

func TestHighDimensionalBarycentric31(t *testing.T) {
	// D = 31 is the paper's operating point; ensure the solve is stable.
	d := 31
	s := StandardSimplex(d)
	q := make([]float64, d)
	for i := range q {
		q[i] = 1 / float64(d+5)
	}
	lam, err := s.Barycentric(q)
	if err != nil {
		t.Fatal(err)
	}
	if !AllNonNegative(lam, DefaultTol) {
		t.Error("interior histogram point must have non-negative coordinates")
	}
	back, err := fromBarycentric(s, lam)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.EqualTol(back, q, 1e-9) {
		t.Error("31-dimensional round trip failed")
	}
}
