package knn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// TestPhaseWrappersMatchGo pins the baseline phase kernels — the
// pointer-signature wrappers of phase1_generic.go, on every arch — to the
// portable Go loops bit for bit: same survivor count, same survivor row
// ids, same stripe values — phase 1 at stride 64 over the head slab, the
// continuation phases gathering from the row-major slab — under random
// weights (some zero), unit weights (the Euclidean distance) and
// all-zero weights. The slab is exactly rows*32 long, and under the
// infinite bound the last row survives every continuation, so its
// segments at offsets 8, 16 and 24 are read and the continuation's
// unsafe.Slice view at offset 24 ends at the allocation's last element
// (checkptr checks the views under -race).
func TestPhaseWrappersMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		rows := 1 + rng.Intn(tileRows)
		slab := make([]float64, rows*32)
		for i := range slab {
			slab[i] = rng.NormFloat64()
		}
		head, _ := headSlab(slab, identityOrder(rows))
		q := make([]float64, 32)
		w := make([]float64, 32)
		for i := range q {
			q[i] = rng.NormFloat64()
			w[i] = rng.Float64() * 2
		}
		if trial%4 == 0 {
			w[rng.Intn(32)] = 0 // zero weights must be handled
		}
		var bound2 float64
		switch trial % 3 {
		case 0:
			bound2 = math.Inf(1) // everything survives
		case 1:
			bound2 = 0 // (almost) nothing survives
		default:
			bound2 = 10 + 20*rng.Float64()
		}

		for wi, w := range [][]float64{w, vec.Ones(32), make([]float64, 32)} {
			ref := struct {
				s0, s1, s2, s3 []float64
				surv           []int32
				c              int
			}{
				make([]float64, tileRows), make([]float64, tileRows), make([]float64, tileRows),
				make([]float64, tileRows), make([]int32, tileRows), 0,
			}
			got := struct {
				s0, s1, s2, s3 []float64
				surv           []int32
				c              int
			}{
				make([]float64, tileRows), make([]float64, tileRows), make([]float64, tileRows),
				make([]float64, tileRows), make([]int32, tileRows), 0,
			}
			ref.c = phase1x32wGo(q, w, head, rows, bound2, ref.s0, ref.s1, ref.s2, ref.s3, ref.surv)
			got.c = phase1x32w(&q[0], &w[0], &head[0], rows, bound2, &got.s0[0], &got.s1[0], &got.s2[0], &got.s3[0], &got.surv[0])
			if got.c != ref.c {
				t.Fatalf("trial %d weights %d: survivor count %d, want %d", trial, wi, got.c, ref.c)
			}
			for j := 0; j < ref.c; j++ {
				if got.surv[j] != ref.surv[j] {
					t.Fatalf("trial %d weights %d: surv[%d] = %d, want %d", trial, wi, j, got.surv[j], ref.surv[j])
				}
				if got.s0[j] != ref.s0[j] || got.s1[j] != ref.s1[j] || got.s2[j] != ref.s2[j] || got.s3[j] != ref.s3[j] {
					t.Fatalf("trial %d weights %d: stripes at %d = (%v,%v,%v,%v), want (%v,%v,%v,%v)",
						trial, wi, j,
						got.s0[j], got.s1[j], got.s2[j], got.s3[j],
						ref.s0[j], ref.s1[j], ref.s2[j], ref.s3[j])
				}
			}

			// Continue the cascade one 8-dim segment at a time and keep
			// checking the arch kernel against the reference.
			for seg := 1; seg < 4 && ref.c > 0; seg++ {
				ref.c = phaseNext8wGo(q[seg*8:seg*8+8], w[seg*8:seg*8+8], slab[seg*8:], ref.surv, ref.c, bound2, ref.s0, ref.s1, ref.s2, ref.s3)
				got.c = phaseNext8w(&q[seg*8], &w[seg*8], &slab[seg*8], &got.surv[0], got.c, bound2, &got.s0[0], &got.s1[0], &got.s2[0], &got.s3[0], rows)
				if got.c != ref.c {
					t.Fatalf("trial %d weights %d seg %d: survivor count %d, want %d", trial, wi, seg, got.c, ref.c)
				}
				if math.IsInf(bound2, 1) && got.surv[got.c-1] != int32(rows-1) {
					t.Fatalf("trial %d weights %d seg %d: last survivor %d, want the last row %d", trial, wi, seg, got.surv[got.c-1], rows-1)
				}
				for j := 0; j < ref.c; j++ {
					if got.surv[j] != ref.surv[j] ||
						got.s0[j] != ref.s0[j] || got.s1[j] != ref.s1[j] || got.s2[j] != ref.s2[j] || got.s3[j] != ref.s3[j] {
						t.Fatalf("trial %d weights %d seg %d: mismatch at survivor %d", trial, wi, seg, j)
					}
				}
			}
		}
	}
}

// BenchmarkBoxBound2 prices one node bound over 256 random boxes that
// hold the query in some dimensions and miss it in others: go is the
// portable loop, dispatched the kernel a search calls (boxBound2Sel: the
// AVX2 kernel where init chose it, the Go wrapper elsewhere).
func BenchmarkBoxBound2(b *testing.B) {
	rng := rand.New(rand.NewSource(60))
	const boxes = 256
	bx := make([]float64, boxes*64)
	for i := 0; i < boxes; i++ {
		for j := 0; j < 32; j++ {
			lo := rng.NormFloat64()
			bx[i*64+j], bx[i*64+32+j] = lo, lo+rng.Float64()
		}
	}
	q, w := make([]float64, 32), make([]float64, 32)
	for j := range q {
		q[j], w[j] = rng.NormFloat64(), rng.Float64()*2
	}
	var sum float64
	b.Run("go", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			j := i % boxes * 64
			sum += boxBound2(q, w, bx[j:j+64])
		}
	})
	b.Run("dispatched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sum += boxBound2Sel(&q[0], &w[0], &bx[i%boxes*64])
		}
	})
	if math.IsNaN(sum) {
		b.Fatal("NaN bound")
	}
}
