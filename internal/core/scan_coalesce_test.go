package core

import (
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"bullion/internal/enc"
)

// plainFixture writes nCols int64 columns with the cascade pinned to Plain
// so every page has a predictable byte size — the planner tests pin run
// boundaries against CoalesceLimit/CoalesceGap, which needs deterministic
// chunk sizes.
func plainFixture(t *testing.T, nCols, nRows, groupRows, rowsPerPage int) *File {
	t.Helper()
	fields := make([]Field, nCols)
	for i := range fields {
		fields[i] = Field{Name: fmt.Sprintf("c%02d", i), Type: Type{Kind: Int64}}
	}
	schema, err := NewSchema(fields...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	cols := make([]ColumnData, nCols)
	for i := range cols {
		vs := make(Int64Data, nRows)
		for r := range vs {
			vs[r] = rng.Int63() // wide values: Plain is the cheapest scheme
		}
		cols[i] = vs
	}
	batch, err := NewBatch(schema, cols)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.GroupRows = groupRows
	opts.RowsPerPage = rowsPerPage
	opts.Compliance = Level1
	opts.Enc = enc.DefaultOptions()
	opts.Enc.Allowed = map[enc.SchemeID]bool{enc.Plain: true}
	_, f := writeTestFile(t, schema, batch, opts)
	return f
}

// TestPlanSpanRunsAdjacent pins the core planner property: byte-adjacent
// chunks of different columns merge into one run, and a skipped column
// splits the run when its chunk exceeds the gap.
func TestPlanSpanRunsAdjacent(t *testing.T) {
	f := plainFixture(t, 4, 512, 512, 128)
	span := rowSpan{0, 512}

	// All four columns, one group: chunks are exactly adjacent -> 1 run.
	runs := planSpanRuns(f, []int{0, 1, 2, 3}, span, DefaultCoalesceGap)
	if len(runs) != 1 || len(runs[0].segs) != 4 {
		t.Fatalf("adjacent columns: %d runs (want 1 with 4 segs)", len(runs))
	}
	if runs[0].wasted != 0 {
		t.Fatalf("adjacent merge wasted %d bytes, want 0", runs[0].wasted)
	}

	// Columns 0 and 2: column 1's chunk (4 plain pages ~ 4.1 KB) exceeds
	// the default 4 KiB gap -> two runs.
	runs = planSpanRuns(f, []int{0, 2}, span, DefaultCoalesceGap)
	if len(runs) != 2 {
		t.Fatalf("gap > CoalesceGap: %d runs, want 2", len(runs))
	}

	// Raising the gap above the skipped chunk size reads through it.
	_, chunkSize1 := f.view.ChunkByteRange(0, 1)
	runs = planSpanRuns(f, []int{0, 2}, span, int64(chunkSize1))
	if len(runs) != 1 || len(runs[0].segs) != 2 {
		t.Fatalf("gap read-through: %d runs, want 1 with 2 segs", len(runs))
	}
	if runs[0].wasted != int64(chunkSize1) {
		t.Fatalf("wasted = %d, want skipped chunk size %d", runs[0].wasted, chunkSize1)
	}
}

// TestPlanSpanRunsLimit pins the CoalesceLimit cap: merging stops when the
// combined read would exceed the limit, and a single oversized segment
// still becomes one (uncapped) read because pages are fetched whole.
func TestPlanSpanRunsLimit(t *testing.T) {
	// 3 columns x 64Ki rows x 8 B/plain value ~ 512 KiB per chunk: two
	// chunks (~1.0 MiB) fit under the 1.25 MiB limit, three do not.
	const rows = 1 << 16
	f := plainFixture(t, 3, rows, rows, 1024)
	span := rowSpan{0, rows}

	runs := planSpanRuns(f, []int{0, 1, 2}, span, DefaultCoalesceGap)
	if len(runs) != 2 {
		t.Fatalf("limit split: %d runs, want 2", len(runs))
	}
	if got := len(runs[0].segs); got != 2 {
		t.Fatalf("first run has %d segs, want 2 (greedy merge under limit)", got)
	}
	if sz := runs[0].end - runs[0].off; sz > CoalesceLimit {
		t.Fatalf("merged run %d bytes exceeds CoalesceLimit %d", sz, CoalesceLimit)
	}

	// A single column chunk larger than the limit is one read.
	_, chunkSize := f.view.ChunkByteRange(0, 0)
	if chunkSize <= CoalesceLimit/3 {
		t.Fatalf("fixture chunk too small: %d", chunkSize)
	}
	runs = planSpanRuns(f, []int{0}, span, DefaultCoalesceGap)
	if len(runs) != 1 {
		t.Fatalf("single column: %d runs, want 1", len(runs))
	}
}

// scanAll drains a scan configured by opts into one concatenated column
// set.
func scanAll(t *testing.T, f *File, opts ScanOptions) ([]ColumnData, ScanStats) {
	t.Helper()
	sc, err := f.Scan(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	out := drainScanner(t, sc)
	return out, sc.Stats()
}

// Recycled batches must decode to the same data as a fresh scan: the
// recycled storage must be fully overwritten. Batches that split pages (300 and 97 rows against 256-row pages) and
// Level-1 deletes (rows either side of page and group boundaries, and a
// run of 300 rows across one) decode partial pages into recycled storage.
// Recycling a batch twice, a batch from another scanner or from Project,
// or any batch after Close must leave the scanner's storage untouched:
// the scan, the other scanner's batches and the projection all stay
// intact, and a closed scanner keeps nothing.
func TestScanReuseBatchesCorrect(t *testing.T) {
	schema := testSchema(t)
	names := make([]string, len(schema.Fields))
	for i, fd := range schema.Fields {
		names[i] = fd.Name
	}
	rng := rand.New(rand.NewSource(29))
	batch := testBatch(t, schema, rng, 4000)
	mf, f := writeTestFile(t, schema, batch, &Options{RowsPerPage: 256, GroupRows: 1024, Compliance: Level1})

	// appendAll deep-copies cols onto got, seeding got with typed empty
	// columns so every append copies: appendColumn(nil, c) would alias
	// c's soon-recycled storage.
	appendAll := func(got, cols []ColumnData) []ColumnData {
		if got == nil {
			got = make([]ColumnData, len(cols))
			for i := range got {
				got[i] = defaultColumn(schema.Fields[i], 0)
			}
		}
		for i, c := range cols {
			got[i] = appendColumn(got[i], c)
		}
		return got
	}
	same := func(what string, f *File, batchRows int, got, want []ColumnData) {
		t.Helper()
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s, %d-row batches, %d live rows: column %q differs from a scan without recycling",
					what, batchRows, f.NumLiveRows(), schema.Fields[i].Name)
			}
		}
	}
	// check scans f, hands every batch to recycle once it is copied, and
	// compares the copies with a scan that never recycles.
	check := func(what string, f *File, batchRows, workers int, recycle func(sc *Scanner, b *Batch)) []ColumnData {
		t.Helper()
		want, _ := scanAll(t, f, ScanOptions{BatchRows: batchRows, Workers: workers})
		sc, err := f.Scan(ScanOptions{BatchRows: batchRows, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		var got []ColumnData
		for {
			b, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			got = appendAll(got, b.Columns)
			recycle(sc, b)
		}
		same(what, f, batchRows, got, want)
		return want
	}
	once := func(sc *Scanner, b *Batch) { sc.Recycle(b) }
	batchRows := []int{512, 300, 97}
	for _, n := range batchRows {
		check("recycled", f, n, 2, once)
	}

	// Foreign batches: another scanner's, kept unrecycled, and Project's.
	other, err := f.Scan(ScanOptions{BatchRows: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	proj, err := f.Project(names...)
	if err != nil {
		t.Fatal(err)
	}
	projWant := appendAll(nil, proj.Columns)
	var foreign []*Batch
	want := check("recycled with foreign batches", f, 512, 2, func(sc *Scanner, b *Batch) {
		sc.Recycle(b)
		sc.Recycle(proj)
		RecycleBatch(proj)
		if ob, err := other.Next(); err == nil {
			sc.Recycle(ob)
			foreign = append(foreign, ob)
		}
	})
	var otherGot []ColumnData
	for _, ob := range foreign {
		otherGot = appendAll(otherGot, ob.Columns)
	}
	same("another scanner's batches", f, 512, otherGot, want)
	same("Project", f, 512, proj.Columns, projWant)

	// After Close, the scanner keeps nothing it is handed.
	sc, err := f.Scan(ScanOptions{BatchRows: 512})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.Next()
	if err != nil {
		t.Fatal(err)
	}
	sc.Close()
	sc.Recycle(b)
	if n := len(sc.free); n != 0 {
		t.Errorf("closed scanner holds %d recycled column sets", n)
	}

	// Recycling each batch twice must not hand one storage set to two
	// in-flight batches.
	_, f8k := writeTestFile(t, schema, testBatch(t, schema, rng, 8192), nil)
	check("recycled twice", f8k, 256, 4, func(sc *Scanner, b *Batch) {
		sc.Recycle(b)
		sc.Recycle(b)
	})

	del := []uint64{0, 255, 256, 1023, 1024, 2047, 3999}
	for r := uint64(1400); r < 1700; r++ {
		del = append(del, r)
	}
	if err := f.DeleteRows(mf, del); err != nil {
		t.Fatal(err)
	}
	if got, want := f.NumLiveRows(), uint64(4000-len(del)); got != want {
		t.Fatalf("live rows = %d after deletes, want %d", got, want)
	}
	for _, n := range batchRows {
		check("recycled", f, n, 2, once)
	}
}

// TestScanRecycleRace exercises Recycle racing the decode pool: the
// consumer recycles each batch immediately while workers are decoding
// later slots into previously recycled storage. Run under -race in CI.
func TestScanRecycleRace(t *testing.T) {
	f := plainFixture(t, 8, 1<<14, 4096, 512)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			sc, err := f.Scan(ScanOptions{BatchRows: 1024, Workers: 4})
			if err != nil {
				t.Error(err)
				return
			}
			defer sc.Close()
			rows := 0
			for {
				b, err := sc.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Error(err)
					return
				}
				rows += b.NumRows()
				sc.Recycle(b)
			}
			if rows != 1<<14 {
				t.Errorf("scanned %d rows, want %d", rows, 1<<14)
			}
		}(g)
	}
	wg.Wait()
}

// TestScanCoalescedStats sanity-checks the new ScanStats fields: the
// coalesced scan of adjacent columns reports multi-column reads and no
// waste; a gap read-through reports waste.
func TestScanCoalescedStats(t *testing.T) {
	f := plainFixture(t, 4, 2048, 1024, 256)

	_, st := scanAll(t, f, ScanOptions{BatchRows: 1024})
	if st.ReadOps != 2 { // one coalesced read per group
		t.Fatalf("ReadOps = %d, want 2", st.ReadOps)
	}
	if st.CoalescedBytes != st.BytesRead {
		t.Fatalf("CoalescedBytes %d != BytesRead %d (all reads are multi-column)",
			st.CoalescedBytes, st.BytesRead)
	}
	if st.WastedBytes != 0 {
		t.Fatalf("WastedBytes = %d, want 0", st.WastedBytes)
	}

	// Project c00 and c02 with a gap wide enough to read through c01.
	_, chunkSize := f.view.ChunkByteRange(0, 1)
	_, st = scanAll(t, f, ScanOptions{
		Columns:     []string{"c00", "c02"},
		BatchRows:   1024,
		CoalesceGap: int(chunkSize),
	})
	if st.ReadOps != 2 {
		t.Fatalf("gap read-through ReadOps = %d, want 2", st.ReadOps)
	}
	if st.WastedBytes == 0 {
		t.Fatal("gap read-through reported no WastedBytes")
	}

	// Negative gap: only exact adjacency merges; the c01 hole splits runs.
	_, st = scanAll(t, f, ScanOptions{
		Columns:     []string{"c00", "c02"},
		BatchRows:   1024,
		CoalesceGap: -1,
	})
	if st.ReadOps != 4 || st.WastedBytes != 0 {
		t.Fatalf("negative gap: ReadOps=%d WastedBytes=%d, want 4 and 0", st.ReadOps, st.WastedBytes)
	}
}
