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
// (no AVX2 on the CPU, or GODEBUG=cpu.avx2=off) — the two phase kernels
// and the box bound.
func TestPhaseDispatch(t *testing.T) {
	ptr := func(f any) uintptr { return reflect.ValueOf(f).Pointer() }
	want1, wantN, wantB := ptr(phase1x32w), ptr(phaseNext8w), ptr(boxBound2Ptr)
	if vec.HasAVX2() {
		want1, wantN, wantB = ptr(phase1x32wAVX2), ptr(phaseNext8wAVX2), ptr(boxBound2AVX2)
	}
	if got := ptr(phase1x32wSel); got != want1 {
		t.Errorf("HasAVX2=%v: phase1x32wSel is %#x, want %#x", vec.HasAVX2(), got, want1)
	}
	if got := ptr(phaseNext8wSel); got != wantN {
		t.Errorf("HasAVX2=%v: phaseNext8wSel is %#x, want %#x", vec.HasAVX2(), got, wantN)
	}
	if got := ptr(boxBound2Sel); got != wantB {
		t.Errorf("HasAVX2=%v: boxBound2Sel is %#x, want %#x", vec.HasAVX2(), got, wantB)
	}
}

// TestBoxBoundAVX2Parity pins the AVX2 box-bound kernel, and the Go
// wrapper it replaces, bitwise to boxBound2, the Go loop. Random boxes
// hold the query in some dimensions and miss it in others, under unit,
// random and partly zero weights. Adversarial boxes draw each dimension
// from a menu: lo == hi, the query on a face, ±0 bounds and queries (the
// gaps ±0, which positivePart must clear to +0), subnormal gaps and
// weights, zero weights of either sign, a product that overflows to +Inf,
// and a gap that overflows to +Inf under a zero weight (NaN); some boxes
// have every weight −0, so every term is −0. Skipped, like
// TestPhaseAVX2Parity, when AVX2 is absent or disabled.
func TestBoxBoundAVX2Parity(t *testing.T) {
	if !vec.HasAVX2() {
		t.Skip("AVX2 unavailable or disabled; dispatch uses the Go box bound")
	}
	rng := rand.New(rand.NewSource(29))
	q, w, box := make([]float64, 32), make([]float64, 32), make([]float64, 64)
	check := func(trial int, what string) {
		t.Helper()
		want := boxBound2(q, w, box)
		for _, got := range [2]float64{boxBound2AVX2(&q[0], &w[0], &box[0]), boxBound2Ptr(&q[0], &w[0], &box[0])} {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s trial %d: %v (%#x), Go loop %v (%#x)\nq   %v\nw   %v\nbox %v",
					what, trial, got, math.Float64bits(got), want, math.Float64bits(want), q, w, box)
			}
		}
	}
	const sub = 5e-324 // the least subnormal
	negZero := math.Copysign(0, -1)
	for trial := 0; trial < 20000; trial++ {
		for j := range 32 {
			lo := rng.NormFloat64() * 4
			box[j], box[32+j] = lo, lo+rng.ExpFloat64()
			q[j] = rng.NormFloat64() * 6
			switch trial % 3 {
			case 0:
				w[j] = 1
			case 1:
				w[j] = rng.Float64() * 2
			default:
				w[j] = float64(rng.Intn(3)) * rng.Float64()
			}
		}
		check(trial, "random")
	}
	for trial := 0; trial < 20000; trial++ {
		// Every 100th box gets only weights −0, below, so every term is
		// −0 and the accumulators' +0 start decides the bound's sign; it
		// draws no gap overflow, whose NaN would mask that.
		menu := 10
		if trial%100 == 0 {
			menu = 8
		}
		for j := range 32 {
			lo := math.Trunc(rng.NormFloat64() * 4)
			hi := lo + math.Trunc(rng.ExpFloat64()*2)
			x := math.Trunc(rng.NormFloat64() * 6)
			wj := rng.Float64() * 2
			switch rng.Intn(menu) {
			case 0: // a point box
				hi = lo
			case 1: // the query on the low face
				x = lo
			case 2: // the query on the high face
				x = hi
			case 3: // ±0 bounds and query: every gap is ±0
				pick := func() float64 { return [2]float64{0, negZero}[rng.Intn(2)] }
				lo, hi, x = pick(), pick(), pick()
			case 4: // subnormal gaps
				lo, hi = float64(rng.Intn(4))*sub, float64(4+rng.Intn(4))*sub
				x = float64(rng.Intn(12)) * sub
			case 5: // subnormal weight
				wj = float64(1+rng.Intn(8)) * sub
			case 6: // zero weight, either sign
				wj = [2]float64{0, negZero}[rng.Intn(2)]
			case 7: // (w·g)·g overflows to +Inf
				lo, hi, x = 1e200, 2e200, -1e200
			case 8: // the gap overflows to +Inf; a zero weight makes NaN
				lo, hi, x = math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64
				wj = float64(rng.Intn(2))
			}
			box[j], box[32+j], q[j], w[j] = lo, hi, x, wj
		}
		if trial%100 == 0 {
			for j := range w {
				w[j] = negZero
			}
		}
		check(trial, "adversarial")
	}
}
