package dataset

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/histogram"
	"repro/internal/imagegen"
)

func testItems() []Item {
	return []Item{
		{ID: 0, Category: "A", Feature: []float64{1, 0}},
		{ID: 1, Category: "A", Feature: []float64{0.9, 0.1}},
		{ID: 2, Category: "B", Feature: []float64{0, 1}},
		{ID: 3, Category: "B", Feature: []float64{0.1, 0.9}},
		{ID: 4, Category: "C", Feature: []float64{0.5, 0.5}},
	}
}

func TestFromItems(t *testing.T) {
	d, err := FromItems(testItems(), []string{"A", "B"})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 5 || d.Dim != 2 {
		t.Errorf("Len=%d Dim=%d", d.Len(), d.Dim)
	}
	if d.Relevant("A") != 2 || d.Relevant("C") != 1 || d.Relevant("Z") != 0 {
		t.Error("Relevant counts wrong")
	}
	if !d.IsGood(0, "A") || d.IsGood(2, "A") {
		t.Error("IsGood oracle wrong")
	}
	feats := d.Features()
	if len(feats) != 5 || feats[4][0] != 0.5 {
		t.Error("Features view wrong")
	}
}

func TestFromItemsValidation(t *testing.T) {
	if _, err := FromItems(nil, nil); err == nil {
		t.Error("empty items should error")
	}
	bad := testItems()
	bad[1].Feature = []float64{1}
	if _, err := FromItems(bad, nil); err == nil {
		t.Error("ragged features should error")
	}
}

func TestSampleQueries(t *testing.T) {
	d, _ := FromItems(testItems(), []string{"A", "B"})
	rng := rand.New(rand.NewSource(1))
	qs, err := d.SampleQueries(rng, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 10 {
		t.Fatalf("got %d queries", len(qs))
	}
	for _, q := range qs {
		cat := d.Items[q].Category
		if cat != "A" && cat != "B" {
			t.Fatalf("query %d from non-query category %s", q, cat)
		}
	}
	// Small n samples without replacement: 4 distinct pool items.
	qs4, _ := d.SampleQueries(rng, 4)
	seen := map[int]bool{}
	for _, q := range qs4 {
		if seen[q] {
			t.Error("duplicate query before pool exhaustion")
		}
		seen[q] = true
	}
}

func TestSampleQueriesErrors(t *testing.T) {
	d, _ := FromItems(testItems(), nil)
	rng := rand.New(rand.NewSource(1))
	if _, err := d.SampleQueries(rng, 3); err == nil {
		t.Error("no query categories should error")
	}
	d2, _ := FromItems(testItems(), []string{"Missing"})
	if _, err := d2.SampleQueries(rng, 3); err == nil {
		t.Error("empty query pool should error")
	}
}

func TestSampleQueriesFromCategory(t *testing.T) {
	d, _ := FromItems(testItems(), []string{"A"})
	rng := rand.New(rand.NewSource(2))
	qs, err := d.SampleQueriesFromCategory(rng, "B", 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if d.Items[q].Category != "B" {
			t.Fatalf("query %d not from B", q)
		}
	}
	if _, err := d.SampleQueriesFromCategory(rng, "Nope", 1); err == nil {
		t.Error("missing category should error")
	}
}

func TestBuildFromGenerator(t *testing.T) {
	cfg := imagegen.IMSILike(11, 0.02)
	d, err := Build(cfg, histogram.DefaultExtractor)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != cfg.Count() {
		t.Errorf("Len = %d, want %d", d.Len(), cfg.Count())
	}
	if d.Dim != 32 {
		t.Errorf("Dim = %d", d.Dim)
	}
	if len(d.QueryCats) != 7 {
		t.Errorf("QueryCats = %v", d.QueryCats)
	}
	for _, it := range d.Items[:5] {
		var sum float64
		for _, v := range it.Feature {
			if v < 0 {
				t.Fatal("negative bin")
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("item %d histogram sum %v", it.ID, sum)
		}
	}
	// ByCategory index is consistent.
	total := 0
	for cat, idxs := range d.ByCategory {
		total += len(idxs)
		for _, i := range idxs {
			if d.Items[i].Category != cat {
				t.Fatalf("index inconsistency for %s", cat)
			}
		}
	}
	if total != d.Len() {
		t.Errorf("category index covers %d of %d", total, d.Len())
	}
}

// putItem feeds one item to a collection hash: the feature's float64
// bits little-endian, then "category\x00theme\x00".
func putItem(h hash.Hash64, cat, theme string, feat []float64) {
	var b [8]byte
	for _, v := range feat {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	h.Write([]byte(cat + "\x00" + theme + "\x00"))
}

// buildHash builds cfg under GOMAXPROCS procs and returns the FNV-64a of
// its items in id order, failing if any item's ID is not its index.
func buildHash(t *testing.T, cfg imagegen.Config, procs int) (uint64, *Dataset) {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	d, err := Build(cfg, histogram.DefaultExtractor)
	runtime.GOMAXPROCS(old)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	slab := d.Matrix().Slab(0, d.Len())
	for i, it := range d.Items {
		if it.ID != i {
			t.Fatalf("GOMAXPROCS=%d: item %d has ID %d", procs, i, it.ID)
		}
		putItem(h, it.Category, it.Theme, slab[i*d.Dim:(i+1)*d.Dim])
	}
	return h.Sum64(), d
}

// TestBuildGolden pins the bits of the collection itself. Build and
// Generate share their renderer, so TestBuildMatchesSerialGenerate cannot
// see a change to both; these hashes can. They were recorded before the
// renderer's arithmetic fast paths, reused buffers and seeding source
// went in, and every one of those must leave them unchanged. Scale 10
// (the bench/ bigscan collection) hashes to 0x7b5038af0cd8874d
// (DESIGN.md).
func TestBuildGolden(t *testing.T) {
	for _, c := range []struct {
		scale float64
		want  uint64
	}{{0.05, 0x1561694b2c234f91}, {0.3, 0xe8670ea4cdf29a12}, {1, 0x02dfffbbd23480f2}} {
		for _, procs := range []int{1, 4} {
			if got, _ := buildHash(t, imagegen.IMSILike(1, c.scale), procs); got != c.want {
				t.Errorf("scale %g, GOMAXPROCS=%d: Build hashes to %#016x, want %#016x", c.scale, procs, got, c.want)
			}
		}
	}
}

// TestBuildMatchesSerialGenerate pins the streaming, parallel Build to
// the serial pipeline it replaced — render everything, then extract in
// id order — by one FNV-64a over every feature bit and every item's
// (category, theme), under GOMAXPROCS 1 and 4.
func TestBuildMatchesSerialGenerate(t *testing.T) {
	cfg := imagegen.IMSILike(1, 0.05)
	h := fnv.New64a()
	imgs, err := imagegen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range imgs {
		feat, err := histogram.DefaultExtractor.Extract(g.Image)
		if err != nil {
			t.Fatal(err)
		}
		putItem(h, g.Category, g.Theme, feat)
	}
	want := h.Sum64()

	for _, procs := range []int{1, 4} {
		got, d := buildHash(t, cfg, procs)
		if d.Len() != len(imgs) {
			t.Fatalf("GOMAXPROCS=%d: %d items, want %d", procs, d.Len(), len(imgs))
		}
		if got != want {
			t.Errorf("GOMAXPROCS=%d: Build hashes to %#x, serial Generate→Extract to %#x", procs, got, want)
		}
		for cat, idx := range d.ByCategory {
			for j, i := range idx {
				if d.Items[i].Category != cat || (j > 0 && idx[j-1] >= i) {
					t.Fatalf("GOMAXPROCS=%d: ByCategory[%q] is not the ascending index list of its items", procs, cat)
				}
			}
		}
	}
}

func TestBuildInvalidConfig(t *testing.T) {
	cfg := imagegen.IMSILike(1, 0.02)
	cfg.ImageW = 0
	if _, err := Build(cfg, histogram.DefaultExtractor); err == nil {
		t.Error("invalid config should error")
	}
}

func TestSameCategoryCloserOnAverage(t *testing.T) {
	// Sanity check of the generator + extractor pipeline: average same-
	// category distance must be smaller than cross-category distance, but
	// with enough overlap that retrieval is non-trivial.
	cfg := imagegen.IMSILike(5, 0.05)
	d, err := Build(cfg, histogram.DefaultExtractor)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var same, cross float64
	var nSame, nCross int
	for trial := 0; trial < 3000; trial++ {
		i := rng.Intn(d.Len())
		j := rng.Intn(d.Len())
		if i == j {
			continue
		}
		var dist float64
		for b := range d.Items[i].Feature {
			diff := d.Items[i].Feature[b] - d.Items[j].Feature[b]
			dist += diff * diff
		}
		dist = math.Sqrt(dist)
		if d.Items[i].Category == d.Items[j].Category {
			same += dist
			nSame++
		} else {
			cross += dist
			nCross++
		}
	}
	if nSame < 20 || nCross < 20 {
		t.Skip("too few pairs sampled")
	}
	avgSame, avgCross := same/float64(nSame), cross/float64(nCross)
	if avgSame >= avgCross {
		t.Errorf("same-category avg distance %v not below cross-category %v", avgSame, avgCross)
	}
	if avgSame < 0.2*avgCross {
		t.Errorf("categories too separable (%v vs %v): retrieval would be trivial", avgSame, avgCross)
	}
}
