package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/distance"
	"repro/internal/geom"
	"repro/internal/vec"
)

// psd returns an error unless the d×d quadratic form behind m — read
// back from its distances by polarization, W_ij = (|e_i+e_j|² − |e_i|² −
// |e_j|²)/2 — is positive semidefinite within tol, i.e. m is a valid
// squared distance.
func psd(m *distance.Quadratic, d int, tol float64) error {
	origin := make([]float64, d)
	sq := func(i, j int) float64 {
		x := make([]float64, d)
		x[i]++
		x[j]++
		r := m.Distance(origin, x)
		return r * r
	}
	w := vec.NewMatrix(d, d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			if i == j {
				w.Set(i, i, sq(i, i)/4)
			} else {
				w.Set(i, j, (sq(i, j)-sq(i, i)/4-sq(j, j)/4)/2)
			}
		}
	}
	e, err := vec.SymmetricEigen(w, 1e-9)
	if err != nil {
		return err
	}
	for _, v := range e.Values {
		if v < -tol {
			return fmt.Errorf("weight matrix has negative eigenvalue %v", v)
		}
	}
	return nil
}

func TestQuadraticCodecValidation(t *testing.T) {
	if _, err := NewQuadraticCodec(0); err == nil {
		t.Error("dim 0 should error")
	}
	c, err := NewQuadraticCodec(3)
	if err != nil {
		t.Fatal(err)
	}
	if c.D() != 3 || c.P() != 6 {
		t.Errorf("D=%d P=%d", c.D(), c.P())
	}
}

func TestQuadraticCodecPaperParameterCount(t *testing.T) {
	// §5: "31 × 32/2 = 496 for the Mahalanobis distance".
	c, err := NewQuadraticCodec(31)
	if err != nil {
		t.Fatal(err)
	}
	if c.P() != 496 {
		t.Errorf("P = %d, want 496", c.P())
	}
}

func TestQuadraticDefaultWeightsAreIdentity(t *testing.T) {
	c, _ := NewQuadraticCodec(3)
	def := c.DefaultWeights()
	q := []float64{0.1, 0.2, 0.3}
	qopt, m, err := c.DecodeOQP(q, OQP{Delta: vec.Zeros(3), Weights: def})
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(qopt, q) {
		t.Errorf("qopt = %v", qopt)
	}
	// Identity quadratic = Euclidean.
	a, b := []float64{0, 0, 0}, []float64{3, 4, 0}
	if got := m.Distance(a, b); math.Abs(got-5) > 1e-9 {
		t.Errorf("identity quadratic distance = %v", got)
	}
}

func TestQuadraticEncodeDecodeRoundTrip(t *testing.T) {
	c, _ := NewQuadraticCodec(2)
	q := []float64{0.2, 0.3}
	qopt := []float64{0.25, 0.28}
	w := vec.MatrixFromRows([][]float64{{2, 0.5}, {0.5, 1}})
	oqp, err := c.EncodeOQP(q, qopt, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(oqp.Weights) != 3 {
		t.Fatalf("stored weights = %v", oqp.Weights)
	}
	backQ, m, err := c.DecodeOQP(q, oqp)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.EqualTol(backQ, qopt, 1e-12) {
		t.Errorf("qopt = %v", backQ)
	}
	// The decoded metric equals the original quadratic form.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		a := []float64{rng.NormFloat64(), rng.NormFloat64()}
		b := []float64{rng.NormFloat64(), rng.NormFloat64()}
		diff := vec.Sub(a, b)
		want := math.Sqrt(vec.Dot(diff, w.MulVec(diff)))
		if got := m.Distance(a, b); math.Abs(got-want) > 1e-9 {
			t.Fatalf("distance %v, want %v", got, want)
		}
	}
}

func TestQuadraticEncodeValidation(t *testing.T) {
	c, _ := NewQuadraticCodec(2)
	q := []float64{0.2, 0.3}
	if _, err := c.EncodeOQP([]float64{1}, q, vec.Identity(2)); err == nil {
		t.Error("wrong q dim should error")
	}
	if _, err := c.EncodeOQP(q, q, vec.Identity(3)); err == nil {
		t.Error("wrong matrix size should error")
	}
	if _, err := c.EncodeOQP(q, q, nil); err == nil {
		t.Error("nil matrix should error")
	}
	asym := vec.MatrixFromRows([][]float64{{1, 2}, {0, 1}})
	if _, err := c.EncodeOQP(q, q, asym); err == nil {
		t.Error("asymmetric matrix should error")
	}
	nan := vec.MatrixFromRows([][]float64{{1, math.NaN()}, {math.NaN(), 1}})
	if _, err := c.EncodeOQP(q, q, nan); err == nil {
		t.Error("NaN matrix should error")
	}
}

func TestQuadraticDecodeProjectsIndefiniteMatrices(t *testing.T) {
	c, _ := NewQuadraticCodec(2)
	q := []float64{0.5, 0.5}
	// Upper triangle of [[1, 2], [2, 1]] — eigenvalues 3 and −1.
	oqp := OQP{Delta: vec.Zeros(2), Weights: []float64{1, 2, 1}}
	_, m, err := c.DecodeOQP(q, oqp)
	if err != nil {
		t.Fatal(err)
	}
	if err := psd(m, c.Dim, 1e-9); err != nil {
		t.Errorf("decoded metric not PSD: %v", err)
	}
	// Distances along the former negative direction are now ~0 instead of
	// imaginary.
	d := m.Distance([]float64{0, 0}, []float64{1, -1})
	if math.IsNaN(d) || d < 0 {
		t.Errorf("distance = %v", d)
	}
}

func TestQuadraticDecodeValidation(t *testing.T) {
	c, _ := NewQuadraticCodec(2)
	if _, _, err := c.DecodeOQP([]float64{1}, OQP{Delta: vec.Zeros(2), Weights: vec.Zeros(3)}); err == nil {
		t.Error("wrong q dim should error")
	}
	if _, _, err := c.DecodeOQP([]float64{1, 2}, OQP{Delta: vec.Zeros(1), Weights: vec.Zeros(3)}); err == nil {
		t.Error("wrong delta dim should error")
	}
	if _, _, err := c.DecodeOQP([]float64{1, 2}, OQP{Delta: vec.Zeros(2), Weights: vec.Zeros(2)}); err == nil {
		t.Error("wrong weights len should error")
	}
}

func TestQuadraticCodecWithBypass(t *testing.T) {
	// End to end: a Bypass over the covering simplex learns quadratic OQPs
	// and the interpolated matrices decode to valid metrics.
	c, _ := NewQuadraticCodec(2)
	b, err := New(c.D(), c.P(), Config{
		Domain:         geom.CoveringSimplex(2),
		DefaultWeights: c.DefaultWeights(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 15; i++ {
		q := []float64{rng.Float64(), rng.Float64()}
		// A correlated PSD matrix: W = AᵀA + small ridge.
		a11, a12 := 1+rng.Float64(), rng.Float64()
		w := vec.MatrixFromRows([][]float64{
			{a11*a11 + 0.1, a11 * a12},
			{a11 * a12, a12*a12 + 0.1},
		})
		oqp, err := c.EncodeOQP(q, q, w)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Insert(q, oqp); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 20; trial++ {
		q := []float64{rng.Float64(), rng.Float64()}
		oqp, err := b.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		_, m, err := c.DecodeOQP(q, oqp)
		if err != nil {
			t.Fatal(err)
		}
		if err := psd(m, c.Dim, 1e-9); err != nil {
			t.Fatalf("interpolated metric invalid: %v", err)
		}
	}
}
