package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestCloneIndependence(t *testing.T) {
	a := []float64{1, 2, 3}
	b := Clone(a)
	b[0] = 99
	if a[0] != 1 {
		t.Fatalf("Clone aliases input: a[0] = %v", a[0])
	}
	if Clone(nil) != nil {
		t.Fatal("Clone(nil) should be nil")
	}
}

func TestBasicConstructors(t *testing.T) {
	if got := Zeros(3); !Equal(got, []float64{0, 0, 0}) {
		t.Errorf("Zeros(3) = %v", got)
	}
	if got := Ones(3); !Equal(got, []float64{1, 1, 1}) {
		t.Errorf("Ones(3) = %v", got)
	}
}

func TestInPlaceOps(t *testing.T) {
	a := []float64{2, 3}
	ScaleInPlace(a, 3)
	if !Equal(a, []float64{6, 9}) {
		t.Errorf("ScaleInPlace = %v", a)
	}
	Axpy(a, 2, []float64{1, 1})
	if !Equal(a, []float64{8, 11}) {
		t.Errorf("Axpy = %v", a)
	}
}

func TestDistSum(t *testing.T) {
	a := []float64{3, 4}
	if got := math.Sqrt(SqDistW([]float64{0, 0}, a, Ones(2))); got != 5 {
		t.Errorf("√SqDistW = %v", got)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Axpy([]float64{1}, 1, []float64{1, 2})
}

func TestEqualTol(t *testing.T) {
	if !EqualTol([]float64{1, 2}, []float64{1.0001, 2}, 1e-3) {
		t.Error("EqualTol should accept within tolerance")
	}
	if EqualTol([]float64{1, 2}, []float64{1.1, 2}, 1e-3) {
		t.Error("EqualTol should reject beyond tolerance")
	}
	if EqualTol([]float64{1}, []float64{1, 2}, 1) {
		t.Error("EqualTol should reject length mismatch")
	}
}

func TestIsFinite(t *testing.T) {
	if !IsFinite([]float64{1, -2, 0}) {
		t.Error("finite vector reported non-finite")
	}
	if IsFinite([]float64{1, math.NaN()}) {
		t.Error("NaN not detected")
	}
	if IsFinite([]float64{math.Inf(1)}) {
		t.Error("Inf not detected")
	}
}

// Property: triangle inequality for the Euclidean distance.
func TestDistTriangleInequalityQuick(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 3 {
			return true
		}
		n := len(raw) / 3
		a, b, c := raw[:n], raw[n:2*n], raw[2*n:3*n]
		for _, x := range raw[:3*n] {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				return true
			}
		}
		dist := func(x, y []float64) float64 { return math.Sqrt(SqDistW(x, y, Ones(n))) }
		return dist(a, c) <= dist(a, b)+dist(b, c)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSolveKnownSystem(t *testing.T) {
	a := MatrixFromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	x, err := Solve(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	if !EqualTol(x, want, 1e-10) {
		t.Errorf("Solve = %v, want %v", x, want)
	}
}

func TestSolveSingular(t *testing.T) {
	a := MatrixFromRows([][]float64{
		{1, 2},
		{2, 4},
	})
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Error("expected singular error")
	}
}

func TestSolveRequiresSquare(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Error("expected error for non-square matrix")
	}
}

func TestSolveRhsMismatch(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}})
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1}); err == nil {
		t.Error("expected rhs length error")
	}
}

func TestDetKnownValues(t *testing.T) {
	cases := []struct {
		rows [][]float64
		want float64
	}{
		{[][]float64{{1}}, 1},
		{[][]float64{{2, 0}, {0, 3}}, 6},
		{[][]float64{{0, 1}, {1, 0}}, -1},
		{[][]float64{{1, 2}, {2, 4}}, 0},
		{[][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 10}}, -3},
	}
	for i, c := range cases {
		if got := Det(MatrixFromRows(c.rows)); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("case %d: Det = %v, want %v", i, got, c.want)
		}
	}
}

// Property: Solve(A, A·x) == x for well-conditioned random A.
func TestSolveRoundTripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+2)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 10
		}
		b := make([]float64, n)
		for i := range b {
			for j, xj := range x {
				b[i] += a.At(i, j) * xj
			}
		}
		got, err := Solve(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !EqualTol(got, x, 1e-7) {
			t.Fatalf("trial %d: round trip failed: got %v want %v", trial, got, x)
		}
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 1, 5)
	if m.At(0, 1) != 5 {
		t.Error("Set/At failed")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Error("Clone aliases storage")
	}
}

func TestMatrixFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	MatrixFromRows([][]float64{{1, 2}, {3}})
}
