package store

import (
	"math"
	"testing"
)

func TestFromRowsAndAccessors(t *testing.T) {
	rows := [][]float64{{1, 2, 3}, {4, 5, 6}}
	m, err := FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 2 || m.Dim() != 3 {
		t.Fatalf("shape = %dx%d", m.Len(), m.Dim())
	}
	r1 := m.Row(1)
	if r1[0] != 4 || r1[2] != 6 {
		t.Errorf("Row(1) = %v", r1)
	}
	// FromRows copies: mutating the source must not change the matrix.
	rows[0][0] = 99
	if m.Row(0)[0] != 1 {
		t.Error("FromRows aliased its input")
	}
	if got := m.Slab(1, 2); len(got) != 3 || got[0] != 4 {
		t.Errorf("Slab(1,2) = %v", got)
	}
}

func TestFromRowsValidation(t *testing.T) {
	if _, err := FromRows(nil); err == nil {
		t.Error("empty collection should error")
	}
	if _, err := FromRows([][]float64{{}}); err == nil {
		t.Error("zero-dim rows should error")
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged rows should error")
	}
}

func TestRowsViewsShareStorage(t *testing.T) {
	m, err := NewMatrix(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	row := m.Row(2)
	row[1] = 42
	if m.Row(2)[1] != 42 {
		t.Error("row views should alias the backing storage")
	}
}

func TestRowViewCapacityClipped(t *testing.T) {
	m, _ := NewMatrix(2, 2)
	r := m.Row(0)
	if cap(r) != 2 {
		t.Errorf("row view capacity = %d, want 2 (clipped so append cannot clobber the next row)", cap(r))
	}
}

// TestNewMatrixShapeBound: NewMatrix refuses more rows than the scan's
// int32 row numbers reach, and more float64s than make can allocate,
// with an error instead of make's panic.
func TestNewMatrixShapeBound(t *testing.T) {
	rows := maxRows // a variable, so maxRows+1 compiles where int is 32 bits
	for _, shape := range [][2]int{{rows + 1, 1}, {maxRows, math.MaxInt / maxRows}, {2, math.MaxInt / 16}, {1, maxElems + 1}, {0, 4}, {4, -1}} {
		if m, err := NewMatrix(shape[0], shape[1]); err == nil {
			t.Errorf("NewMatrix(%d, %d) = %dx%d, want an error", shape[0], shape[1], m.Len(), m.Dim())
		}
	}
	if m, err := NewMatrix(3, 2); err != nil || m.Len() != 3 || m.Dim() != 2 {
		t.Fatalf("NewMatrix(3, 2): %v", err)
	}
}
