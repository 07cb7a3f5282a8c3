package workload

import (
	"math"
	"math/rand"
	"testing"

	"bullion/internal/core"
	"bullion/internal/sparse"
)

func TestTable1Total(t *testing.T) {
	if got := Table1Total(); got != 17733 {
		t.Fatalf("Table1Total = %d, want 17733", got)
	}
}

// TestAdsSchemaMatchesTable1 is the tab1 experiment's correctness check:
// the full-scale generator reproduces the paper's histogram exactly at the
// logical-column level (struct columns flatten to more leaves).
func TestAdsSchemaMatchesTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("full 17k-column schema")
	}
	s, err := AdsSchema(1, false)
	if err != nil {
		t.Fatal(err)
	}
	// Count leaves per generated family prefix.
	byType := map[string]int{}
	for _, f := range s.Fields {
		byType[f.Type.String()]++
	}
	// list<int64> leaves: 16256 direct + 143 (pair .ids) + 120 (wrap) = 16519.
	if got := byType["list<int64>"]; got != 16256+143+120 {
		t.Fatalf("list<int64> leaves = %d", got)
	}
	// list<float32> leaves: 812 + 143 + 29 + 5 = 989.
	if got := byType["list<float32>"]; got != 812+143+29+5 {
		t.Fatalf("list<float32> leaves = %d", got)
	}
	if got := byType["list<list<int64>>"]; got != 277+5 {
		t.Fatalf("list<list<int64>> leaves = %d", got)
	}
	if got := byType["int64"]; got != 1 {
		t.Fatalf("int64 leaves = %d", got)
	}
	if got := byType["string"]; got != 3 {
		t.Fatalf("string leaves = %d", got)
	}
}

func TestAdsSchemaScaledDown(t *testing.T) {
	s, err := AdsSchema(100, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Fields) < 170 || len(s.Fields) > 250 {
		t.Fatalf("scaled schema has %d fields", len(s.Fields))
	}
	sparseCount := 0
	for _, f := range s.Fields {
		if f.Sparse {
			sparseCount++
			if f.Type.Kind != core.List || f.Type.Elem != core.Int64 {
				t.Fatalf("sparse flag on %v", f.Type)
			}
		}
	}
	if sparseCount == 0 {
		t.Fatal("no sparse columns marked")
	}
	breakdown := SchemaBreakdown(s)
	total := 0
	for _, r := range breakdown {
		total += r.Count
	}
	if total != len(s.Fields) {
		t.Fatalf("breakdown covers %d of %d fields", total, len(s.Fields))
	}
}

func TestSlidingWindowsOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vectors := SlidingWindows(rng, 500, 256, 0.3)
	if len(vectors) != 500 {
		t.Fatalf("generated %d vectors", len(vectors))
	}
	stats, err := sparse.Analyze(vectors, sparse.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeltaVectors*4 < stats.Vectors*3 {
		t.Fatalf("sliding windows should delta-encode: %+v", stats)
	}
	savings := 1 - float64(stats.ValuesStored)/float64(stats.ValuesTotal)
	if savings < 0.5 {
		t.Fatalf("sliding windows only save %.0f%%", savings*100)
	}
}

func TestZipfIDsSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ids := ZipfIDs(rng, 10000, 1<<20, 1.3)
	counts := map[int64]int{}
	for _, id := range ids {
		counts[id]++
	}
	// Heavy head: the most common value appears far more than uniform.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 100 {
		t.Fatalf("Zipf head too light: max count %d", max)
	}
}

func TestEmbeddingsNormalized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	embs := Embeddings(rng, 100, 64)
	for i, v := range embs {
		var norm float64
		for _, x := range v {
			norm += float64(x) * float64(x)
			if x <= -1 || x >= 1 {
				t.Fatalf("embedding %d component %v outside (-1,1)", i, x)
			}
		}
		if math.Abs(norm-1) > 1e-3 {
			t.Fatalf("embedding %d norm %v", i, norm)
		}
	}
}

func TestFigure1CensusShape(t *testing.T) {
	census := Figure1Census()
	if len(census) != 10 {
		t.Fatalf("census has %d tables", len(census))
	}
	if census[0].SizePB < 90 || census[0].SizePB > 100 {
		t.Fatalf("largest table %v PB, want ~100", census[0].SizePB)
	}
	for i := 1; i < len(census); i++ {
		if census[i].SizePB >= census[i-1].SizePB {
			t.Fatalf("census not descending at %d", i)
		}
	}
}

func TestQuantTargets(t *testing.T) {
	if len(QuantTargets()) != 6 {
		t.Fatalf("expected 6 quant targets, got %d", len(QuantTargets()))
	}
}
