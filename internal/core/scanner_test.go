package core

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"

	"bullion/internal/enc"
	"bullion/internal/footer"
	"bullion/internal/quant"
)

// drainScanner collects every batch of a scan into one concatenated
// column set.
func drainScanner(t *testing.T, sc *Scanner) []ColumnData {
	t.Helper()
	var out []ColumnData
	for {
		batch, err := sc.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		if out == nil {
			out = make([]ColumnData, len(batch.Columns))
		}
		for i, c := range batch.Columns {
			out[i] = appendColumn(out[i], c)
		}
	}
}

// TestScanMatchesWritten is the read engine's ground-truth test: at every
// worker count and batch size, over page/group geometries that align and
// misalign with the batches and with each other, at both deletion levels
// and on the committed golden file, a scan returns exactly the rows that
// were written minus the rows deleted since.
func TestScanMatchesWritten(t *testing.T) {
	type fixture struct {
		name   string
		f      *File
		schema *Schema
		want   []ColumnData
	}
	var fixtures []fixture

	const n = 5000
	schema := testSchema(t)
	batch := testBatch(t, schema, rand.New(rand.NewSource(41)), n)
	for _, level := range []Level{Level1, Level2} {
		// Scattered rows on group and page boundaries; at Level 1 also a
		// dense run covering whole batches (pruned) and whole pages. (At
		// Level 2 the run's partial pages would have to be masked in
		// place, which ErrPageGrew refuses for some of these columns.)
		deleted := []uint64{0, 3, 255, 256, 700, 701, 702, 1499, 1500, 4999}
		if level == Level1 {
			for r := uint64(2000); r < 2600; r++ {
				deleted = append(deleted, r)
			}
		}
		want := liveMinus(batch.Columns, n, deleted, nil)
		for _, geo := range []struct{ rowsPerPage, groupRows int }{
			{256, 1024}, // pages tile groups
			{256, 1500}, // every group ends in a short page
			{100, 333},  // neither tiles anything
		} {
			mf, f := writeTestFile(t, schema, batch,
				&Options{RowsPerPage: geo.rowsPerPage, GroupRows: geo.groupRows, Compliance: level})
			if err := f.DeleteRows(mf, deleted); err != nil {
				t.Fatal(err)
			}
			fixtures = append(fixtures, fixture{
				name: fmt.Sprintf("L%d_p%d_g%d", level, geo.rowsPerPage, geo.groupRows),
				f:    f, schema: schema, want: want,
			})
		}
	}

	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	gf, err := Open(bytes.NewReader(golden), int64(len(golden)))
	if err != nil {
		t.Fatal(err)
	}
	gSchema, gBatch, _ := goldenTable(t)
	fixtures = append(fixtures, fixture{name: "golden", f: gf, schema: gSchema, want: gBatch.Columns})

	for _, fx := range fixtures {
		for _, workers := range []int{1, 4, 8} {
			for _, batchRows := range []int{97, 256, 700, 1024, 100000} {
				t.Run(fmt.Sprintf("%s_w%d_b%d", fx.name, workers, batchRows), func(t *testing.T) {
					got, _ := scanAll(t, fx.f, ScanOptions{Workers: workers, BatchRows: batchRows})
					assertColumnsEqual(t, fx.schema, fx.want, got)
				})
			}
		}
	}
}

// TestCollectEdges pins what the whole-column wrappers promise at the
// edges of the single scan they run on.
func TestCollectEdges(t *testing.T) {
	schema := testSchema(t)
	batch := testBatch(t, schema, rand.New(rand.NewSource(43)), 600)
	mf, f := writeTestFile(t, schema, batch, &Options{RowsPerPage: 128, GroupRows: 256, Compliance: Level1})
	gone := make([]uint64, 0, 300)
	for r := uint64(100); r < 400; r++ { // spans groups and whole pages
		gone = append(gone, r)
	}
	if err := f.DeleteRows(mf, gone); err != nil {
		t.Fatal(err)
	}

	// No names is a zero-column batch, not "every column".
	empty, err := f.Project()
	if err != nil {
		t.Fatal(err)
	}
	if empty == nil || len(empty.Columns) != 0 || len(empty.Schema.Fields) != 0 {
		t.Fatalf("Project() = %+v, want a zero-column batch", empty)
	}
	if _, err := f.Project("uid", "nope"); err == nil {
		t.Fatal("Project accepted an unknown column")
	}

	// A range with no live row is a typed zero-length column.
	for ci, fd := range schema.Fields {
		for _, rng := range [][2]uint64{{100, 400}, {150, 151}, {7, 7}} {
			col, err := f.ReadRows(ci, rng[0], rng[1])
			if err != nil {
				t.Fatalf("%s rows [%d,%d): %v", fd.Name, rng[0], rng[1], err)
			}
			if col == nil || col.Len() != 0 || checkColumnType(fd, col) != nil {
				t.Fatalf("%s rows [%d,%d) = %T len %d, want empty %v", fd.Name, rng[0], rng[1], col, col.Len(), fd.Type)
			}
		}
	}
	all := make([]uint64, 600)
	for r := range all {
		all[r] = uint64(r)
	}
	if err := f.DeleteRows(mf, all); err != nil {
		t.Fatal(err)
	}
	for _, fd := range schema.Fields {
		col, err := f.ReadColumn(fd.Name)
		if err != nil {
			t.Fatalf("%s after deleting every row: %v", fd.Name, err)
		}
		if col == nil || col.Len() != 0 || checkColumnType(fd, col) != nil {
			t.Fatalf("%s = %T len %d, want empty %v", fd.Name, col, col.Len(), fd.Type)
		}
	}

	for _, rng := range [][2]uint64{{10, 5}, {0, 601}, {601, 601}} {
		if _, err := f.ReadRows(0, rng[0], rng[1]); err == nil {
			t.Fatalf("ReadRows accepted [%d,%d) of 600 rows", rng[0], rng[1])
		}
	}
}

func TestScanDefaultsAllColumns(t *testing.T) {
	schema := testSchema(t)
	rng := rand.New(rand.NewSource(5))
	batch := testBatch(t, schema, rng, 1200)
	_, f := writeTestFile(t, schema, batch, nil)

	sc, err := f.Scan(ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if got := len(sc.Schema().Fields); got != len(schema.Fields) {
		t.Fatalf("default projection has %d fields, want %d", got, len(schema.Fields))
	}
	got := drainScanner(t, sc)
	if got[0].Len() != 1200 {
		t.Fatalf("scanned %d rows, want 1200", got[0].Len())
	}
	st := sc.Stats()
	if st.RowsEmitted != 1200 || st.BatchesEmitted == 0 || st.BytesRead == 0 || st.PagesDecoded == 0 {
		t.Fatalf("implausible stats: %+v", st)
	}
}

func TestScanRange(t *testing.T) {
	schema := testSchema(t)
	rng := rand.New(rand.NewSource(17))
	batch := testBatch(t, schema, rng, 4000)
	_, f := writeTestFile(t, schema, batch, &Options{RowsPerPage: 128, GroupRows: 1024, Compliance: Level1})

	lo, hi := uint64(300), uint64(2600)
	want, err := f.ReadRows(0, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := f.Scan(ScanOptions{Columns: []string{"uid"}, Range: &RowRange{Lo: lo, Hi: hi}, Workers: 3, BatchRows: 500})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	got := drainScanner(t, sc)
	if !reflect.DeepEqual(got[0], want) {
		t.Fatal("ranged scan differs from ReadRows")
	}

	if _, err := f.Scan(ScanOptions{Range: &RowRange{Lo: 10, Hi: 5}}); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := f.Scan(ScanOptions{Range: &RowRange{Lo: 0, Hi: 4001}}); err == nil {
		t.Fatal("out-of-bounds range accepted")
	}
	if _, err := f.Scan(ScanOptions{Columns: []string{"nope"}}); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := f.Scan(ScanOptions{Filters: []ColumnFilter{{Column: "nope"}}}); err == nil {
		t.Fatal("unknown filter column accepted")
	}
}

// TestScanZoneMapPruning writes a uid column that increases monotonically,
// so page min/max zone maps make out-of-band filters prune every batch.
func TestScanZoneMapPruning(t *testing.T) {
	schema, err := NewSchema(
		Field{Name: "uid", Type: Type{Kind: Int64}},
		Field{Name: "payload", Type: Type{Kind: Int64}},
	)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8192
	uid := make(Int64Data, n)
	payload := make(Int64Data, n)
	for i := range uid {
		uid[i] = int64(i)
		payload[i] = int64(i) * 3
	}
	b, err := NewBatch(schema, []ColumnData{uid, payload})
	if err != nil {
		t.Fatal(err)
	}
	_, f := writeTestFile(t, schema, b, &Options{RowsPerPage: 512, GroupRows: 4096, Compliance: Level1})

	lo, hi := int64(6000), int64(6500)
	sc, err := f.Scan(ScanOptions{
		BatchRows: 512,
		Filters:   []ColumnFilter{{Column: "uid", Min: &lo, Max: &hi}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	got := drainScanner(t, sc)
	st := sc.Stats()
	if st.BatchesSkipped == 0 || st.PagesSkipped == 0 {
		t.Fatalf("expected zone-map pruning, stats: %+v", st)
	}
	// Every row in [6000, 6500] must survive (pruning is conservative).
	seen := map[int64]bool{}
	for _, v := range got[0].(Int64Data) {
		seen[v] = true
	}
	for v := lo; v <= hi; v++ {
		if !seen[v] {
			t.Fatalf("row with uid=%d pruned away", v)
		}
	}
	// With 512-row batches aligned to 512-row pages, exactly one page per
	// column survives per overlapping batch: rows 6000..6500 span batches
	// [5632,6144) and [6144,6656), i.e. 2 of 16 batches.
	if st.BatchesEmitted != 2 {
		t.Fatalf("emitted %d batches, want 2: %+v", st.BatchesEmitted, st)
	}

	// A filter below every uid prunes the whole scan before any I/O.
	none := int64(-5)
	sc2, err := f.Scan(ScanOptions{Filters: []ColumnFilter{{Column: "uid", Max: &none}}})
	if err != nil {
		t.Fatal(err)
	}
	defer sc2.Close()
	if _, err := sc2.Next(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
	if st := sc2.Stats(); st.BytesRead != 0 {
		t.Fatalf("fully pruned scan read %d bytes", st.BytesRead)
	}

	// Filters on columns without zone maps (float64) must not prune.
	schema2, _ := NewSchema(Field{Name: "score", Type: Type{Kind: Float64}})
	score := make(Float64Data, 100)
	b2, _ := NewBatch(schema2, []ColumnData{score})
	_, f2 := writeTestFile(t, schema2, b2, nil)
	big := int64(1 << 40)
	sc3, err := f2.Scan(ScanOptions{Filters: []ColumnFilter{{Column: "score", Min: &big}}})
	if err != nil {
		t.Fatal(err)
	}
	defer sc3.Close()
	if got := drainScanner(t, sc3); got[0].Len() != 100 {
		t.Fatalf("statless column pruned: %d rows", got[0].Len())
	}
}

// TestScanSkipsDeletedBatches deletes a dense row region and checks the
// scan never reads its pages, while the remaining rows match Project.
func TestScanSkipsDeletedBatches(t *testing.T) {
	schema := deleteSchema(t)
	batch := deleteBatch(t, schema, 6000)
	mf, f := writeTestFile(t, schema, batch, &Options{RowsPerPage: 250, GroupRows: 2000, Compliance: Level1})

	rows := make([]uint64, 0, 2000)
	for r := uint64(2000); r < 4000; r++ {
		rows = append(rows, r)
	}
	if err := f.DeleteRows(mf, rows); err != nil {
		t.Fatal(err)
	}
	want, err := f.Project("uid")
	if err != nil {
		t.Fatal(err)
	}

	sc, err := f.Scan(ScanOptions{Columns: []string{"uid"}, BatchRows: 1000, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	got := drainScanner(t, sc)
	if !reflect.DeepEqual(got[0], want.Columns[0]) {
		t.Fatal("scan over deleted file differs from Project")
	}
	if st := sc.Stats(); st.BatchesSkipped != 2 {
		t.Fatalf("want 2 all-deleted batches skipped, got %+v", st)
	}
}

// TestScanConcurrent runs many scanners over one *File from parallel
// goroutines (exercised under -race in CI) without priming any caches.
func TestScanConcurrent(t *testing.T) {
	schema := testSchema(t)
	rng := rand.New(rand.NewSource(23))
	batch := testBatch(t, schema, rng, 3000)
	_, f := writeTestFile(t, schema, batch, &Options{RowsPerPage: 200, GroupRows: 1000, Compliance: Level1})

	want, err := f.Project("uid", "tag", "emb")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			sc, err := f.Scan(ScanOptions{
				Columns:   []string{"uid", "tag", "emb"},
				Workers:   1 + seed%4,
				BatchRows: 300 + 77*seed,
			})
			if err != nil {
				errs <- err
				return
			}
			defer sc.Close()
			var cols []ColumnData
			for {
				b, err := sc.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					errs <- err
					return
				}
				if cols == nil {
					cols = make([]ColumnData, len(b.Columns))
				}
				for i, c := range b.Columns {
					cols[i] = appendColumn(cols[i], c)
				}
			}
			for i := range want.Columns {
				if !reflect.DeepEqual(cols[i], want.Columns[i]) {
					errs <- fmt.Errorf("goroutine %d: column %d differs", seed, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestScanCloseEarly(t *testing.T) {
	schema := testSchema(t)
	rng := rand.New(rand.NewSource(3))
	batch := testBatch(t, schema, rng, 4000)
	_, f := writeTestFile(t, schema, batch, &Options{RowsPerPage: 128, GroupRows: 1024, Compliance: Level1})

	sc, err := f.Scan(ScanOptions{Workers: 4, BatchRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Next(); err != nil {
		t.Fatal(err)
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sc.Close(); err != nil { // double close is fine
		t.Fatal(err)
	}
	if _, err := sc.Next(); err == nil {
		t.Fatal("Next after Close succeeded")
	}
}

func TestScanEmptyRange(t *testing.T) {
	schema := testSchema(t)
	rng := rand.New(rand.NewSource(9))
	batch := testBatch(t, schema, rng, 100)
	_, f := writeTestFile(t, schema, batch, nil)

	sc, err := f.Scan(ScanOptions{Range: &RowRange{Lo: 50, Hi: 50}})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if _, err := sc.Next(); err != io.EOF {
		t.Fatalf("want io.EOF on empty range, got %v", err)
	}
}

// TestPageStatsRecorded checks the writer's zone maps directly.
func TestPageStatsRecorded(t *testing.T) {
	schema, err := NewSchema(
		Field{Name: "v", Type: Type{Kind: Int64}},
		Field{Name: "n", Type: Type{Kind: Int64}, Nullable: true},
		Field{Name: "f", Type: Type{Kind: Float64}},
	)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	v := make(Int64Data, n)
	nn := NullableInt64Data{Values: make([]int64, n), Valid: make([]bool, n)}
	fl := make(Float64Data, n)
	for i := 0; i < n; i++ {
		v[i] = int64(i) - 100
		nn.Valid[i] = i%2 == 0
		nn.Values[i] = int64(i)
		fl[i] = float64(i)
	}
	b, err := NewBatch(schema, []ColumnData{v, nn, fl})
	if err != nil {
		t.Fatal(err)
	}
	_, f := writeTestFile(t, schema, b, &Options{RowsPerPage: 500, GroupRows: 1 << 16, Compliance: Level1})

	// Page 0: column "v" rows 0..499 → [-100, 399].
	st, ok := f.PageStats(0)
	if !ok || st.Flags == 0 {
		t.Fatalf("no stats for page 0: %+v ok=%v", st, ok)
	}
	if st.Min != -100 || st.Max != 399 || st.NullCount != 0 {
		t.Fatalf("page 0 stats wrong: %+v", st)
	}
	// Pages 2,3: nullable column, 250 nulls per 500-row page.
	st2, _ := f.PageStats(2)
	if st2.NullCount != 250 || st2.Min != 0 || st2.Max != 498 {
		t.Fatalf("nullable page stats wrong: %+v", st2)
	}
	// Pages 4,5: float64 → float-bit zone maps (footer v3).
	st4, _ := f.PageStats(4)
	if st4.Flags&footer.StatFloatBits == 0 || st4.Flags&footer.StatHasMinMax == 0 {
		t.Fatalf("float page has flags %x, want float min/max", st4.Flags)
	}
	if lo, hi := statFloatBounds(st4.Min, st4.Max); lo != 0 || hi != 499 {
		t.Fatalf("float page bounds [%v,%v], want [0,499]", lo, hi)
	}
}

// raceEnabled reports a -race build (race_test.go).
var raceEnabled bool

// TestScanAllocsPerPage asserts that a fixed-width page inside the batch
// decodes into the batch's storage without allocating: a one-column scan
// of 64 pages in a single batch makes as many allocations as one of 8
// pages. Each case's values are picked so the cascade chooses the scheme
// it names, which the test checks in the footer.
func TestScanAllocsPerPage(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	const pageRows = 128
	cases := []struct {
		name   string
		field  Field
		scheme enc.SchemeID
		gen    func(rng *rand.Rand, n int) ColumnData
	}{
		{"int64", Field{Type: Type{Kind: Int64}}, enc.BitPack, func(rng *rand.Rand, n int) ColumnData {
			vs := make(Int64Data, n)
			for i := range vs {
				vs[i] = rng.Int63n(1 << 20)
			}
			return vs
		}},
		{"nullable int64", Field{Type: Type{Kind: Int64}, Nullable: true}, enc.Sentinel, func(rng *rand.Rand, n int) ColumnData {
			d := NullableInt64Data{Values: make([]int64, n), Valid: make([]bool, n)}
			for i := range d.Values {
				d.Values[i], d.Valid[i] = rng.Int63n(1<<20), i%3 != 0
			}
			return d
		}},
		{"ALP float64", Field{Type: Type{Kind: Float64}}, enc.ALPF, func(rng *rand.Rand, n int) ColumnData {
			vs := make(Float64Data, n)
			for i := range vs {
				vs[i] = float64(rng.Intn(100000)) / 100
			}
			return vs
		}},
		{"Dict int64", Field{Type: Type{Kind: Int64}}, enc.Dict, func(rng *rand.Rand, n int) ColumnData {
			dict := []int64{-7 << 40, 3 << 50, 11, 1 << 33, -5}
			vs := make(Int64Data, n)
			for i := range vs {
				vs[i] = dict[rng.Intn(len(dict))]
			}
			return vs
		}},
		{"float32", Field{Type: Type{Kind: Float32, Quant: quant.FP32}}, enc.FOR, func(rng *rand.Rand, n int) ColumnData {
			vs := make(Float32Data, n)
			for i := range vs {
				vs[i] = rng.Float32()
			}
			return vs
		}},
		{"bool", Field{Type: Type{Kind: Bool}}, enc.PlainBool, func(rng *rand.Rand, n int) ColumnData {
			vs := make(BoolData, n)
			for i := range vs {
				vs[i] = rng.Intn(2) == 0
			}
			return vs
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			allocs := make(map[int]float64)
			for _, pages := range []int{8, 64} {
				c.field.Name = "c"
				schema, err := NewSchema(c.field)
				if err != nil {
					t.Fatal(err)
				}
				n := pages * pageRows
				batch, err := NewBatch(schema, []ColumnData{c.gen(rand.New(rand.NewSource(int64(pages))), n)})
				if err != nil {
					t.Fatal(err)
				}
				_, f := writeTestFile(t, schema, batch, &Options{RowsPerPage: pageRows})
				for p := 0; p < pages; p++ {
					if got := enc.SchemeID(f.view.PageCompression(p)); got != c.scheme {
						t.Fatalf("%d pages: page %d is %v, want %v", pages, p, got, c.scheme)
					}
				}
				allocs[pages] = testing.AllocsPerRun(20, func() {
					sc, err := f.Scan(ScanOptions{BatchRows: n})
					if err != nil {
						t.Fatal(err)
					}
					defer sc.Close()
					b, err := sc.Next()
					if err != nil || b.NumRows() != n {
						t.Fatalf("scan: %v", err)
					}
				})
			}
			if allocs[8] != allocs[64] {
				t.Errorf("%v allocations scanning 8 pages, %v scanning 64: a page allocates", allocs[8], allocs[64])
			}
		})
	}
}
