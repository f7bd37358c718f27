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
	if got := Constant(2, 4.5); !Equal(got, []float64{4.5, 4.5}) {
		t.Errorf("Constant(2, 4.5) = %v", got)
	}
}

func TestAddSubScale(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if got := Add(a, b); !Equal(got, []float64{5, 7, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := Sub(b, a); !Equal(got, []float64{3, 3, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := Scale(a, 2); !Equal(got, []float64{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
}

func TestInPlaceOps(t *testing.T) {
	a := []float64{1, 2}
	AddInPlace(a, []float64{1, 1})
	if !Equal(a, []float64{2, 3}) {
		t.Errorf("AddInPlace = %v", a)
	}
	ScaleInPlace(a, 3)
	if !Equal(a, []float64{6, 9}) {
		t.Errorf("ScaleInPlace = %v", a)
	}
	Axpy(a, 2, []float64{1, 1})
	if !Equal(a, []float64{8, 11}) {
		t.Errorf("Axpy = %v", a)
	}
}

func TestDotNormDist(t *testing.T) {
	a := []float64{3, 4}
	if got := Dot(a, a); got != 25 {
		t.Errorf("Dot = %v", got)
	}
	if got := Dist([]float64{0, 0}, a); got != 5 {
		t.Errorf("Dist = %v", got)
	}
	if got := Sum(a); got != 7 {
		t.Errorf("Sum = %v", got)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Add([]float64{1}, []float64{1, 2})
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

func TestNormalize(t *testing.T) {
	got, err := Normalize([]float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !EqualTol(got, []float64{0.25, 0.75}, 1e-15) {
		t.Errorf("Normalize = %v", got)
	}
	if _, err := Normalize([]float64{0, 0}); err == nil {
		t.Error("expected error normalizing zero vector")
	}
	if _, err := Normalize([]float64{math.NaN()}); err == nil {
		t.Error("expected error normalizing NaN vector")
	}
}

func TestClamp(t *testing.T) {
	if got := Clamp([]float64{-1, 0.5, 2}, 0, 1); !Equal(got, []float64{0, 0.5, 1}) {
		t.Errorf("Clamp = %v", got)
	}
}

// Property: Dot is symmetric and bilinear in its first argument.
func TestDotPropertiesQuick(t *testing.T) {
	f := func(raw []float64, s float64) bool {
		if len(raw) < 2 {
			return true
		}
		n := len(raw) / 2
		a, b := raw[:n], raw[n:2*n]
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				return true
			}
		}
		if math.IsNaN(s) || math.IsInf(s, 0) || math.Abs(s) > 1e3 {
			return true
		}
		sym := almostEqual(Dot(a, b), Dot(b, a), 1e-6)
		lin := almostEqual(Dot(Scale(a, s), b), s*Dot(a, b), 1e-3*(1+math.Abs(s*Dot(a, b))))
		return sym && lin
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
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
		return Dist(a, c) <= Dist(a, b)+Dist(b, c)+1e-6
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
	a := Identity(3)
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
		b := a.MulVec(x)
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
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(1, 0) != 5 {
		t.Errorf("Transpose wrong: %+v", tr)
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Error("Clone aliases storage")
	}
	if m.String() == "" {
		t.Error("String should be non-empty")
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

func TestMulVecIdentity(t *testing.T) {
	id := Identity(4)
	v := []float64{1, 2, 3, 4}
	if got := id.MulVec(v); !Equal(got, v) {
		t.Errorf("I·v = %v", got)
	}
}

func TestMatrixMul(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b := MatrixFromRows([][]float64{{5, 6}, {7, 8}})
	got := a.Mul(b)
	want := MatrixFromRows([][]float64{{19, 22}, {43, 50}})
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("Mul = %v, want %v", got, want)
		}
	}
}

func TestSymmetricEigenDiagonal(t *testing.T) {
	a := MatrixFromRows([][]float64{{3, 0}, {0, 1}})
	e, err := SymmetricEigen(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualTol(e.Values, []float64{3, 1}, 1e-12) {
		t.Errorf("Values = %v", e.Values)
	}
}

func TestSymmetricEigenKnown2x2(t *testing.T) {
	// Eigenvalues of [[2,1],[1,2]] are 3 and 1.
	a := MatrixFromRows([][]float64{{2, 1}, {1, 2}})
	e, err := SymmetricEigen(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualTol(e.Values, []float64{3, 1}, 1e-10) {
		t.Errorf("Values = %v", e.Values)
	}
	// Verify A·v = λ·v for each eigenpair.
	for j := 0; j < 2; j++ {
		v := e.Vectors.Transpose().Row(j)
		av := a.MulVec(v)
		lv := Scale(v, e.Values[j])
		if !EqualTol(av, lv, 1e-9) {
			t.Errorf("eigenpair %d: A·v = %v, λ·v = %v", j, av, lv)
		}
	}
}

func TestSymmetricEigenRejectsAsymmetric(t *testing.T) {
	a := MatrixFromRows([][]float64{{1, 2}, {0, 1}})
	if _, err := SymmetricEigen(a, 1e-12); err == nil {
		t.Error("expected asymmetry error")
	}
}

func TestSymmetricEigenRandomReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5; trial++ {
		n := 2 + rng.Intn(6)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		e, err := SymmetricEigen(a, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Reconstruct V·diag(λ)·Vᵀ and compare with A.
		d := NewMatrix(n, n)
		for i, v := range e.Values {
			d.Set(i, i, v)
		}
		recon := e.Vectors.Mul(d).Mul(e.Vectors.Transpose())
		for i := range a.Data {
			if !almostEqual(recon.Data[i], a.Data[i], 1e-8) {
				t.Fatalf("trial %d: reconstruction mismatch at %d: %v vs %v", trial, i, recon.Data[i], a.Data[i])
			}
		}
		// Eigenvalues must be sorted descending.
		for i := 1; i < n; i++ {
			if e.Values[i] > e.Values[i-1]+1e-12 {
				t.Fatalf("trial %d: eigenvalues not sorted: %v", trial, e.Values)
			}
		}
	}
}

func TestPCARecoveredDirection(t *testing.T) {
	// Samples along the direction (1, 1) with tiny noise orthogonally:
	// the top principal component must align with (1,1)/√2.
	rng := rand.New(rand.NewSource(5))
	n := 200
	x := NewMatrix(n, 2)
	for i := 0; i < n; i++ {
		tval := rng.NormFloat64() * 10
		noise := rng.NormFloat64() * 0.01
		x.Set(i, 0, tval+noise)
		x.Set(i, 1, tval-noise)
	}
	e, means, err := PCA(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(means) != 2 {
		t.Fatalf("means = %v", means)
	}
	v := e.Vectors.Transpose().Row(0)
	// Direction can point either way.
	dot := math.Abs(v[0]*math.Sqrt2/2 + v[1]*math.Sqrt2/2)
	if dot < 0.999 {
		t.Errorf("top PC misaligned: %v (|cos|=%v)", v, dot)
	}
	if e.Values[0] < 100*e.Values[1] {
		t.Errorf("variance ratio too small: %v", e.Values)
	}
}

func TestPCAProject(t *testing.T) {
	x := MatrixFromRows([][]float64{{0, 0}, {1, 1}, {2, 2}, {3, 3}})
	e, means, err := PCA(x)
	if err != nil {
		t.Fatal(err)
	}
	p := e.Project([]float64{4, 4}, means, 1)
	if len(p) != 1 {
		t.Fatalf("Project len = %d", len(p))
	}
	// Requesting more components than exist clamps.
	p2 := e.Project([]float64{4, 4}, means, 10)
	if len(p2) != 2 {
		t.Fatalf("clamped Project len = %d", len(p2))
	}
}

func TestPCATooFewSamples(t *testing.T) {
	if _, _, err := PCA(MatrixFromRows([][]float64{{1, 2}})); err == nil {
		t.Error("expected error for single-sample PCA")
	}
}
