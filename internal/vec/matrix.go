package vec

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("vec: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// MatrixFromRows builds a matrix from row slices, copying the data. All
// rows must have equal length.
func MatrixFromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("vec: ragged rows: row %d has %d cols, want %d", i, len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// LU holds an LU decomposition with partial pivoting: P·A = L·U where L is
// unit lower triangular and U upper triangular, stored compactly in LU.
type LU struct {
	lu    *Matrix
	pivot []int
	sign  float64 // +1 or -1 depending on the permutation parity
}

// Factorize computes the LU decomposition of the square matrix a using
// Gaussian elimination with partial pivoting. The input is not modified.
// It returns ErrSingular when a pivot is exactly zero.
func Factorize(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: LU requires a square matrix, got %dx%d", ErrDimensionMismatch, a.Rows, a.Cols)
	}
	n := a.Rows
	lu := a.Clone()
	pivot := make([]int, n)
	for i := range pivot {
		pivot[i] = i
	}
	sign := 1.0
	for col := 0; col < n; col++ {
		// Find the pivot row: largest absolute value in this column at or
		// below the diagonal.
		p := col
		maxAbs := math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if a := math.Abs(lu.At(r, col)); a > maxAbs {
				maxAbs = a
				p = r
			}
		}
		if maxAbs == 0 {
			return nil, fmt.Errorf("%w: zero pivot in column %d", ErrSingular, col)
		}
		if p != col {
			swapRows(lu, p, col)
			pivot[p], pivot[col] = pivot[col], pivot[p]
			sign = -sign
		}
		inv := 1 / lu.At(col, col)
		for r := col + 1; r < n; r++ {
			f := lu.At(r, col) * inv
			lu.Set(r, col, f)
			if f == 0 {
				continue
			}
			rowR := lu.Row(r)
			rowC := lu.Row(col)
			for j := col + 1; j < n; j++ {
				rowR[j] -= f * rowC[j]
			}
		}
	}
	return &LU{lu: lu, pivot: pivot, sign: sign}, nil
}

// Det returns the determinant of the factorized matrix.
func (f *LU) Det() float64 {
	d := f.sign
	for i := 0; i < f.lu.Rows; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// Solve solves A·x = b for x. b is not modified.
func (f *LU) Solve(b []float64) ([]float64, error) {
	n := f.lu.Rows
	if len(b) != n {
		return nil, fmt.Errorf("%w: rhs has %d rows, want %d", ErrDimensionMismatch, len(b), n)
	}
	dst := make([]float64, n)
	// Apply the permutation.
	for i, p := range f.pivot {
		dst[i] = b[p]
	}
	// Forward substitution with unit lower triangular L.
	for i := 1; i < n; i++ {
		row := f.lu.Row(i)
		var s float64
		for j := 0; j < i; j++ {
			s += row[j] * dst[j]
		}
		dst[i] -= s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Row(i)
		s := dst[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * dst[j]
		}
		dst[i] = s / row[i]
	}
	return dst, nil
}

// Solve solves the square linear system a·x = b using LU with partial
// pivoting. Neither input is modified.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// Det returns the determinant of the square matrix a, and 0 for singular
// matrices.
func Det(a *Matrix) float64 {
	f, err := Factorize(a)
	if err != nil {
		return 0
	}
	return f.Det()
}

func swapRows(m *Matrix, a, b int) {
	ra, rb := m.Row(a), m.Row(b)
	for j := range ra {
		ra[j], rb[j] = rb[j], ra[j]
	}
}
