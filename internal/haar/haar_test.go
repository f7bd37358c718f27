package haar

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIsPowerOfTwo(t *testing.T) {
	for _, c := range []struct {
		n    int
		want bool
	}{{1, true}, {2, true}, {4, true}, {1024, true}, {0, false}, {-4, false}, {3, false}, {6, false}} {
		if got := IsPowerOfTwo(c.n); got != c.want {
			t.Errorf("IsPowerOfTwo(%d) = %v", c.n, got)
		}
	}
}

func TestNextPowerOfTwo(t *testing.T) {
	for _, c := range []struct{ n, want int }{{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {17, 32}, {64, 64}} {
		if got := NextPowerOfTwo(c.n); got != c.want {
			t.Errorf("NextPowerOfTwo(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestForwardRejectsBadLength(t *testing.T) {
	for _, n := range []int{0, 3, 5, 12} {
		if _, err := Forward(make([]float64, n)); err == nil {
			t.Errorf("Forward should reject length %d", n)
		}
		if _, err := Inverse(make([]float64, n)); err == nil {
			t.Errorf("Inverse should reject length %d", n)
		}
	}
}

func TestForwardConstantSignal(t *testing.T) {
	xs := []float64{5, 5, 5, 5}
	coeffs, err := Forward(xs)
	if err != nil {
		t.Fatal(err)
	}
	// Constant signal: only the average coefficient is nonzero, and in the
	// orthonormal basis it equals √n·mean = 2·5 = 10.
	if math.Abs(coeffs[0]-10) > 1e-12 {
		t.Errorf("average coeff = %v, want 10", coeffs[0])
	}
	for i := 1; i < len(coeffs); i++ {
		if math.Abs(coeffs[i]) > 1e-12 {
			t.Errorf("detail coeff %d = %v, want 0", i, coeffs[i])
		}
	}
}

func TestForwardKnownPair(t *testing.T) {
	coeffs, err := Forward([]float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Orthonormal Haar of (1,3): smooth = (1+3)/√2 = 2√2, detail = (3-1)/√2 = √2.
	if math.Abs(coeffs[0]-2*math.Sqrt2) > 1e-12 {
		t.Errorf("smooth = %v", coeffs[0])
	}
	if math.Abs(coeffs[1]-math.Sqrt2) > 1e-12 {
		t.Errorf("detail = %v", coeffs[1])
	}
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 4, 8, 64, 256} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		coeffs, err := Forward(xs)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Inverse(coeffs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range xs {
			if math.Abs(back[i]-xs[i]) > 1e-9 {
				t.Fatalf("n=%d: round trip failed at %d: %v vs %v", n, i, back[i], xs[i])
			}
		}
	}
}

// energy is the squared L2 norm of xs.
func energy(xs []float64) float64 {
	var e float64
	for _, x := range xs {
		e += x * x
	}
	return e
}

func TestForwardPreservesEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		n := 1 << (1 + rng.Intn(7))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		coeffs, err := Forward(xs)
		if err != nil {
			t.Fatal(err)
		}
		e1, e2 := energy(xs), energy(coeffs)
		if math.Abs(e1-e2) > 1e-8*(1+e1) {
			t.Fatalf("trial %d: energy not preserved: %v vs %v", trial, e1, e2)
		}
	}
}

// Property: round trip holds for arbitrary signals via testing/quick.
func TestRoundTripQuick(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e8 {
				return true
			}
		}
		n := NextPowerOfTwo(len(raw))
		xs := make([]float64, n)
		copy(xs, raw)
		coeffs, err := Forward(xs)
		if err != nil {
			return false
		}
		back, err := Inverse(coeffs)
		if err != nil {
			return false
		}
		for i := range xs {
			if math.Abs(back[i]-xs[i]) > 1e-6*(1+math.Abs(xs[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestThreshold(t *testing.T) {
	coeffs := []float64{10, 0.01, -5, 0.001}
	kept := Threshold(coeffs, 0.1)
	if kept != 2 {
		t.Errorf("kept = %d, want 2", kept)
	}
	if coeffs[0] != 10 {
		t.Error("average coefficient must never be dropped")
	}
	if coeffs[1] != 0 || coeffs[3] != 0 {
		t.Error("small details should be zeroed")
	}
	if coeffs[2] != -5 {
		t.Error("large detail should survive")
	}
}

func TestThresholdKeepsAverageEvenIfSmall(t *testing.T) {
	coeffs := []float64{0.0001, 1}
	kept := Threshold(coeffs, 0.1)
	if kept != 2 || coeffs[0] != 0.0001 {
		t.Errorf("average must be kept: coeffs=%v kept=%d", coeffs, kept)
	}
}

func TestCompressDecompressLossless(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5} // non-power-of-two: exercises padding
	s, err := Compress(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	back, err := s.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(xs) {
		t.Fatalf("length %d, want %d", len(back), len(xs))
	}
	for i := range xs {
		if math.Abs(back[i]-xs[i]) > 1e-10 {
			t.Errorf("lossless decompress differs at %d: %v vs %v", i, back[i], xs[i])
		}
	}
}

func TestCompressLossyErrorBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	xs := make([]float64, 62) // OQP vector length at the paper's operating point
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	eps := 0.05
	s, err := Compress(xs, eps)
	if err != nil {
		t.Fatal(err)
	}
	lossless, err := Compress(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.StorageSize() > lossless.StorageSize() {
		t.Errorf("thresholding should not grow storage: %d > %d", s.StorageSize(), lossless.StorageSize())
	}
	back, err := s.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	// In the orthonormal basis, the squared L2 error equals the energy of
	// the dropped coefficients, each of which is < eps. N=64 here, so the
	// error is below eps·√64.
	var errNorm float64
	for i := range xs {
		d := back[i] - xs[i]
		errNorm += d * d
	}
	errNorm = math.Sqrt(errNorm)
	bound := eps * math.Sqrt(64)
	if errNorm > bound {
		t.Errorf("reconstruction error %v exceeds bound %v", errNorm, bound)
	}
}

func TestCompressMoreAggressiveIsSmaller(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	xs := make([]float64, 128)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	prev := math.MaxInt
	for _, eps := range []float64{0, 0.01, 0.1, 1, 10} {
		s, err := Compress(xs, eps)
		if err != nil {
			t.Fatal(err)
		}
		if s.StorageSize() > prev {
			t.Errorf("eps=%v: storage %d grew from %d", eps, s.StorageSize(), prev)
		}
		prev = s.StorageSize()
	}
	if prev != 1 {
		t.Errorf("huge eps should keep only the average coefficient, kept %d", prev)
	}
}

func TestCompressEmpty(t *testing.T) {
	if _, err := Compress(nil, 0.1); err == nil {
		t.Error("empty signal should error")
	}
}

func TestDecompressCorruptHeaders(t *testing.T) {
	s := &Sparse{N: 3, Orig: 2, Indices: []int32{0}, Values: []float64{1}}
	if _, err := s.Decompress(); err == nil {
		t.Error("non-power-of-two N should error")
	}
	s = &Sparse{N: 2, Orig: 4, Indices: []int32{0}, Values: []float64{1}}
	if _, err := s.Decompress(); err == nil {
		t.Error("Orig > N should error")
	}
	s = &Sparse{N: 4, Orig: 4, Indices: []int32{9}, Values: []float64{1}}
	if _, err := s.Decompress(); err == nil {
		t.Error("out-of-range index should error")
	}
	s = &Sparse{N: 4, Orig: 4, Indices: []int32{-1}, Values: []float64{1}}
	if _, err := s.Decompress(); err == nil {
		t.Error("negative index should error")
	}
}
