//go:build amd64

package knn

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/vec"
)

// TestPhaseAVX2Parity pins the AVX2 phase kernels bitwise to the portable
// Go references across random tiles, bounds, weights (unit weights, the
// Euclidean distance, on every other trial) and tie-heavy data.
// Skipped (TestPhaseWrappersMatchGo still pins the Go tier that runs
// instead) when the host lacks AVX2 or GODEBUG=cpu.avx2=off pinned the
// fallback.
func TestPhaseAVX2Parity(t *testing.T) {
	if !vec.HasAVX2() {
		t.Skip("AVX2 unavailable or disabled; dispatch uses the Go kernels")
	}
	rng := rand.New(rand.NewSource(23))
	type bufs struct {
		s0, s1, s2, s3 []float64
		surv           []int32
		c              int
	}
	mk := func(rows int) *bufs {
		return &bufs{
			s0: make([]float64, rows), s1: make([]float64, rows),
			s2: make([]float64, rows), s3: make([]float64, rows),
			surv: make([]int32, rows),
		}
	}
	for trial := 0; trial < 200; trial++ {
		rows := 1 + rng.Intn(160)
		slab := make([]float64, rows*32)
		for i := range slab {
			slab[i] = math.Trunc(rng.NormFloat64() * 8) // many exact ties
		}
		head, _ := headSlab(slab, identityOrder(rows))
		q := make([]float64, 32)
		w := make([]float64, 32)
		for i := range q {
			q[i] = math.Trunc(rng.NormFloat64() * 8)
			w[i] = math.Trunc(rng.Float64() * 4) // includes zero weights
		}
		var bound2 float64
		switch trial % 3 {
		case 0:
			bound2 = math.Inf(1)
		case 1:
			bound2 = float64(rng.Intn(2000))
		default:
			bound2 = 0
		}
		if trial%2 == 0 {
			w = vec.Ones(32)
		}

		ref, got := mk(rows), mk(rows)
		ref.c = phase1x32wGo(q, w, head, rows, bound2, ref.s0, ref.s1, ref.s2, ref.s3, ref.surv)
		got.c = phase1x32wAVX2(&q[0], &w[0], &head[0], rows, bound2, &got.s0[0], &got.s1[0], &got.s2[0], &got.s3[0], &got.surv[0])
		check := func(stage string) {
			t.Helper()
			if ref.c != got.c {
				t.Fatalf("trial %d %s: survivor count %d != %d", trial, stage, got.c, ref.c)
			}
			for j := 0; j < ref.c; j++ {
				if ref.surv[j] != got.surv[j] {
					t.Fatalf("trial %d %s: surv[%d] %d != %d", trial, stage, j, got.surv[j], ref.surv[j])
				}
				for bi, pair := range [][2][]float64{{ref.s0, got.s0}, {ref.s1, got.s1}, {ref.s2, got.s2}, {ref.s3, got.s3}} {
					if math.Float64bits(pair[0][j]) != math.Float64bits(pair[1][j]) {
						t.Fatalf("trial %d %s: stripe %d row %d: %x != %x",
							trial, stage, bi, j, math.Float64bits(pair[1][j]), math.Float64bits(pair[0][j]))
					}
				}
			}
		}
		check("phase1")
		for seg := 1; seg < 4; seg++ {
			ref.c = phaseNext8wGo(q[seg*8:seg*8+8], w[seg*8:seg*8+8], slab[seg*8:], ref.surv, ref.c, bound2, ref.s0, ref.s1, ref.s2, ref.s3)
			got.c = phaseNext8wAVX2(&q[seg*8], &w[seg*8], &slab[seg*8], &got.surv[0], got.c, bound2, &got.s0[0], &got.s1[0], &got.s2[0], &got.s3[0], rows)
			check("next8")
		}
	}
}

// TestPhaseDispatch pins what init selected: the AVX2 kernels exactly
// when vec.HasAVX2(), and the Go wrappers of phase1_generic.go otherwise
// (no AVX2 on the CPU, or GODEBUG=cpu.avx2=off).
func TestPhaseDispatch(t *testing.T) {
	want1, wantN := reflect.ValueOf(phase1x32w).Pointer(), reflect.ValueOf(phaseNext8w).Pointer()
	if vec.HasAVX2() {
		want1, wantN = reflect.ValueOf(phase1x32wAVX2).Pointer(), reflect.ValueOf(phaseNext8wAVX2).Pointer()
	}
	if got := reflect.ValueOf(phase1x32wSel).Pointer(); got != want1 {
		t.Errorf("HasAVX2=%v: phase1x32wSel is %#x, want %#x", vec.HasAVX2(), got, want1)
	}
	if got := reflect.ValueOf(phaseNext8wSel).Pointer(); got != wantN {
		t.Errorf("HasAVX2=%v: phaseNext8wSel is %#x, want %#x", vec.HasAVX2(), got, wantN)
	}
}
