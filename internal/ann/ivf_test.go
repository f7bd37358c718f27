package ann

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/distance"
	"repro/internal/knn"
	"repro/internal/store"
)

// testRNG wraps the package's pinned splitmix64 for test data generation
// so every dataset is identical on every platform and Go release.
type testRNG struct{ splitmix64 }

func newTestRNG(seed uint64) *testRNG { return &testRNG{splitmix64{s: seed}} }

// norm returns an approximately standard-normal variate (sum of 12
// uniforms, Irwin–Hall), deterministic and platform-independent.
func (r *testRNG) norm() float64 {
	var s float64
	for i := 0; i < 12; i++ {
		s += r.float64()
	}
	return s - 6
}

// clusteredRows synthesizes the recall workload: k Gaussian clusters
// with well-separated centers, the regime IVF partitioning models.
func clusteredRows(n, dim, clusters int, rng *testRNG) [][]float64 {
	centers := make([][]float64, clusters)
	for c := range centers {
		ctr := make([]float64, dim)
		for j := range ctr {
			ctr[j] = 20 * r01(rng)
		}
		centers[c] = ctr
	}
	rows := make([][]float64, n)
	for i := range rows {
		ctr := centers[rng.intn(clusters)]
		row := make([]float64, dim)
		for j := range row {
			row[j] = ctr[j] + rng.norm()
		}
		rows[i] = row
	}
	return rows
}

func r01(rng *testRNG) float64 { return rng.float64() }

// tieRows synthesizes tie-heavy data: coordinates on a coarse integer
// grid, so many rows share exact distances and the (distance, index)
// tie-break is exercised.
func tieRows(n, dim int, rng *testRNG) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, dim)
		for j := range row {
			row[j] = float64(rng.intn(4))
		}
		rows[i] = row
	}
	return rows
}

func backendFor(t *testing.T, rows [][]float64) store.Backend {
	t.Helper()
	b, err := store.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func bitwiseSame(t *testing.T, ctx string, got, want []knn.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i].Index != want[i].Index {
			t.Fatalf("%s: result %d index %d, want %d", ctx, i, got[i].Index, want[i].Index)
		}
		if math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) {
			t.Fatalf("%s: result %d distance bits %x, want %x (index %d)",
				ctx, i, math.Float64bits(got[i].Distance), math.Float64bits(want[i].Distance), got[i].Index)
		}
	}
}

// TestFullProbeBitwiseParity is the tentpole invariant: with nprobe =
// nlist the IVF tier reproduces the exact scan bit for bit — same
// indices, same IEEE-754 distance bits — across dimensionalities
// (including the D=32 assembly fast path), quantizations, weighted and
// unweighted metrics, zero weights, and tie-heavy data.
func TestFullProbeBitwiseParity(t *testing.T) {
	rng := newTestRNG(41)
	for trial := 0; trial < 12; trial++ {
		dim := []int{3, 8, 32, 33}[trial%4]
		n := 200 + rng.intn(300)
		var rows [][]float64
		if trial%2 == 0 {
			rows = tieRows(n, dim, rng)
		} else {
			rows = clusteredRows(n, dim, 7, rng)
		}
		b := backendFor(t, rows)
		flat, err := knn.NewScanBackend(b)
		if err != nil {
			t.Fatal(err)
		}
		var m distance.Metric = distance.Euclidean{}
		if trial%3 == 1 {
			w := make([]float64, dim)
			for j := range w {
				w[j] = float64(rng.intn(5)) // includes exact zeros
			}
			wm, err := distance.NewWeightedEuclidean(w)
			if err != nil {
				t.Fatal(err)
			}
			m = wm
		}
		for _, quant := range []Quant{QuantF32, QuantI8} {
			nlist := 1 + rng.intn(16)
			x, err := Build(b, Options{NList: nlist, NProbe: nlist, Quant: quant, Seed: int64(trial)})
			if err != nil {
				t.Fatal(err)
			}
			for qi := 0; qi < 5; qi++ {
				q := rows[rng.intn(n)]
				k := 1 + rng.intn(20)
				want, err := flat.Search(q, k, m)
				if err != nil {
					t.Fatal(err)
				}
				got, err := x.Search(q, k, m)
				if err != nil {
					t.Fatal(err)
				}
				bitwiseSame(t, x.Describe(), got, want)
				// nprobe above nlist is the same path.
				over, err := x.SearchNProbe(q, k, m, nlist+3)
				if err != nil {
					t.Fatal(err)
				}
				bitwiseSame(t, "overprobe", over, want)
			}
		}
	}
}

// TestRootTieRanksByIndex: two rows whose squared distances are adjacent
// doubles with one square root — the higher index nearer in squared
// space — come back from both exact rerank paths in SearchNaive's
// (distance, index) order, the lower index first.
func TestRootTieRanksByIndex(t *testing.T) {
	const dim, n = 4, 40
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{0, 0, 2, float64(i % 3)}
	}
	lo, hi := 5, 30
	rows[lo] = []float64{1, 0, 0, 0}
	rows[hi] = []float64{0, 1, 0, 0}
	wm, err := distance.NewWeightedEuclidean([]float64{
		math.Float64frombits(0x3f304f6c7fa53ae0), math.Float64frombits(0x3f304f6c7fa53adf), 1, 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := backendFor(t, rows)
	flat, err := knn.NewScanBackend(b)
	if err != nil {
		t.Fatal(err)
	}
	q := make([]float64, dim)
	x, err := Build(b, Options{NList: 2, NProbe: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	kern, _ := distance.KernelFor(wm)
	short := []knn.Result{{Index: hi}, {Index: 0}, {Index: lo}}
	for _, k := range []int{1, 2} {
		want, err := flat.SearchNaive(q, k, wm)
		if err != nil {
			t.Fatal(err)
		}
		if want[0].Index != lo {
			t.Fatalf("k=%d: naive %v, want row %d first", k, want, lo)
		}
		got, err := x.Search(q, k, wm)
		if err != nil {
			t.Fatal(err)
		}
		bitwiseSame(t, "full probe", got, want)
		bitwiseSame(t, "shortlist rerank", x.rerankShortlist(q, k, kern, short), want)
	}
}

// TestRecallAtDefaultNProbe pins the accuracy gate: recall@10 ≥ 0.95 at
// the default nprobe on synthetic clustered data, for both slab
// quantizations (the exact rerank makes served distances exact, so any
// loss is shortlist misses only).
func TestRecallAtDefaultNProbe(t *testing.T) {
	rng := newTestRNG(7)
	const n, dim, k = 4000, 16, 10
	rows := clusteredRows(n, dim, 24, rng)
	b := backendFor(t, rows)
	flat, err := knn.NewScanBackend(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, quant := range []Quant{QuantF32, QuantI8} {
		x, err := Build(b, Options{NList: 64, Quant: quant, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if x.NProbe() != 8 {
			t.Fatalf("default nprobe = %d, want nlist/8 = 8", x.NProbe())
		}
		var hit, total int
		for qi := 0; qi < 60; qi++ {
			q := make([]float64, dim)
			base := rows[rng.intn(n)]
			for j := range q {
				q[j] = base[j] + rng.norm()/2
			}
			want, err := flat.Search(q, k, distance.Euclidean{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := x.Search(q, k, distance.Euclidean{})
			if err != nil {
				t.Fatal(err)
			}
			exact := make(map[int]bool, k)
			for _, r := range want {
				exact[r.Index] = true
			}
			for _, r := range got {
				if exact[r.Index] {
					hit++
				}
			}
			total += len(want)
		}
		recall := float64(hit) / float64(total)
		t.Logf("quant=%s recall@%d = %.4f", quant, k, recall)
		if recall < 0.95 {
			t.Fatalf("quant=%s recall@%d = %.4f, want ≥ 0.95", quant, k, recall)
		}
	}
}

// TestBatchMatchesSearch pins SearchBatchMulti to per-query Search —
// including the fallback for metrics without a squared-space kernel.
func TestBatchMatchesSearch(t *testing.T) {
	rng := newTestRNG(13)
	rows := clusteredRows(900, 12, 9, rng)
	b := backendFor(t, rows)
	x, err := Build(b, Options{NList: 24, Quant: QuantI8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	qs := make([][]float64, 17)
	ms := make([]distance.Metric, len(qs))
	for i := range qs {
		q := make([]float64, 12)
		for j := range q {
			q[j] = 20 * rng.float64()
		}
		qs[i] = q
		switch i % 3 {
		case 0:
			ms[i] = distance.Euclidean{}
		case 1:
			w := make([]float64, 12)
			for j := range w {
				w[j] = rng.float64()
			}
			wm, err := distance.NewWeightedEuclidean(w)
			if err != nil {
				t.Fatal(err)
			}
			ms[i] = wm
		default:
			ms[i] = distance.Manhattan{} // no kernel: exact-scan fallback
		}
	}
	got, err := x.SearchBatchMulti(qs, 10, ms)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		want, err := x.Search(qs[i], 10, ms[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("batch query %d differs from Search", i)
		}
	}
	if _, err := x.SearchBatchMulti(qs, 10, ms[:3]); err == nil {
		t.Fatal("mismatched metric count accepted")
	}
}

// TestOptionsValidation covers Build and query parameter rejection.
func TestOptionsValidation(t *testing.T) {
	rng := newTestRNG(5)
	rows := tieRows(50, 4, rng)
	b := backendFor(t, rows)
	if _, err := Build(nil, Options{}); err == nil {
		t.Fatal("nil backend accepted")
	}
	if _, err := Build(b, Options{NList: 51}); err == nil {
		t.Fatal("nlist > n accepted")
	}
	if _, err := Build(b, Options{NProbe: -1}); err == nil {
		t.Fatal("negative nprobe accepted")
	}
	if _, err := Build(b, Options{Quant: Quant(9)}); err == nil {
		t.Fatal("unknown quant accepted")
	}
	if _, err := Build(b, Options{RerankFactor: -2}); err == nil {
		t.Fatal("negative rerank factor accepted")
	}
	x, err := Build(b, Options{NList: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := x.SetNProbe(0); err == nil {
		t.Fatal("SetNProbe(0) accepted")
	}
	if _, err := x.Search(rows[0], 0, distance.Euclidean{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := x.Search([]float64{1}, 3, distance.Euclidean{}); err == nil {
		t.Fatal("wrong-dimension query accepted")
	}
	if _, err := x.SearchNProbe(rows[0], 3, distance.Euclidean{}, 0); err == nil {
		t.Fatal("SearchNProbe(0) accepted")
	}
	if got := x.Describe(); got != "ivf(nlist=8,nprobe=1,quant=f32)" {
		t.Fatalf("Describe() = %q", got)
	}
	if _, err := ParseQuant("i8"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseQuant("f16"); err == nil {
		t.Fatal("ParseQuant accepted f16")
	}
}

// TestI8Quantization pins the affine dequantization: codes reconstruct
// every value within half a quantization step per dimension, and
// constant dimensions (span zero) reconstruct exactly.
func TestI8Quantization(t *testing.T) {
	rng := newTestRNG(19)
	const n, dim = 300, 6
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, dim)
		for j := range row {
			if j == 2 {
				row[j] = 7.25 // constant dimension: scale must be 0
			} else {
				row[j] = 100 * rng.float64()
			}
		}
		rows[i] = row
	}
	b := backendFor(t, rows)
	x, err := Build(b, Options{NList: 4, Quant: QuantI8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if x.scale[2] != 0 || x.offset[2] != 7.25 {
		t.Fatalf("constant dim: scale=%g offset=%g, want 0 and 7.25", x.scale[2], x.offset[2])
	}
	for pos, id := range x.ids {
		row := rows[id]
		codes := x.slab8[pos*dim : (pos+1)*dim]
		for j, v := range row {
			deq := x.offset[j] + x.scale[j]*float64(codes[j])
			tol := x.scale[j]/2 + 1e-9
			if math.Abs(deq-v) > tol {
				t.Fatalf("row %d dim %d: dequant %g vs %g exceeds half-step %g", id, j, deq, v, tol)
			}
		}
	}
}

// TestSqDistI8MatchesDequant pins the int8 probe kernels to a naive
// dequantize-then-SqDist reference, including the abandoning contract.
func TestSqDistI8MatchesDequant(t *testing.T) {
	rng := newTestRNG(29)
	for trial := 0; trial < 50; trial++ {
		dim := 1 + rng.intn(40)
		q := make([]float64, dim)
		w := make([]float64, dim)
		scale := make([]float64, dim)
		offset := make([]float64, dim)
		codes := make([]int8, dim)
		deq := make([]float64, dim)
		for j := 0; j < dim; j++ {
			q[j] = 10 * rng.float64()
			w[j] = float64(rng.intn(4))
			scale[j] = rng.float64() / 8
			offset[j] = 5 * rng.float64()
			codes[j] = int8(rng.intn(256) - 128)
			deq[j] = offset[j] + scale[j]*float64(codes[j])
		}
		wantU := naiveSq(q, deq, nil)
		wantW := naiveSq(q, deq, w)
		if s, ab := sqDistI8(q, codes, scale, offset, math.Inf(1)); ab || math.Abs(s-wantU) > 1e-9*(1+wantU) {
			t.Fatalf("trial %d: sqDistI8 = %g (abandoned=%v), want %g", trial, s, ab, wantU)
		}
		if s, ab := sqDistI8W(q, codes, scale, offset, w, math.Inf(1)); ab || math.Abs(s-wantW) > 1e-9*(1+wantW) {
			t.Fatalf("trial %d: sqDistI8W = %g (abandoned=%v), want %g", trial, s, ab, wantW)
		}
		// Abandoning: a bound below the true sum must abandon; a surviving
		// sum at a bound above it must equal the full sum.
		if wantU > 0 {
			if _, ab := sqDistI8(q, codes, scale, offset, wantU/2); !ab {
				t.Fatalf("trial %d: bound below sum did not abandon", trial)
			}
			s, ab := sqDistI8(q, codes, scale, offset, wantU*2)
			sFull, _ := sqDistI8(q, codes, scale, offset, math.Inf(1))
			if ab || math.Float64bits(s) != math.Float64bits(sFull) {
				t.Fatalf("trial %d: surviving abandoning sum differs from full sum", trial)
			}
		}
	}
}

func naiveSq(q, r, w []float64) float64 {
	var s float64
	for j := range q {
		d := q[j] - r[j]
		if w != nil {
			s += w[j] * d * d
		} else {
			s += d * d
		}
	}
	return s
}
