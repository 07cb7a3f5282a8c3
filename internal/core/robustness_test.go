package core

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"bullion/internal/quant"
)

// ---- Failure injection ----

// TestCorruptedPagePayload verifies decode errors (never panics, never
// silent garbage acceptance that VerifyChecksums would miss).
func TestCorruptedPagePayload(t *testing.T) {
	schema := testSchema(t)
	rng := rand.New(rand.NewSource(51))
	batch := testBatch(t, schema, rng, 400)
	mf, f := writeTestFile(t, schema, batch, nil)

	// Corrupt bytes throughout the data region; each position must either
	// decode to an error or be caught by checksum verification. (Some
	// corruptions decode "successfully" to different values — that's what
	// the Merkle tree exists to catch.)
	dataEnd := int(f.ftr.footerOff)
	for _, pos := range []int{0, dataEnd / 4, dataEnd / 2, dataEnd - 1} {
		cp := &memFile{data: append([]byte{}, mf.data...)}
		cp.data[pos] ^= 0xA5
		f2, err := Open(cp, cp.Size())
		if err != nil {
			continue // footer-region corruption rejected at open: fine
		}
		decodeErr := false
		for c := 0; c < f2.NumColumns(); c++ {
			if _, err := f2.ReadColumnByIndex(c); err != nil {
				decodeErr = true
				break
			}
		}
		if !decodeErr {
			if err := f2.VerifyChecksums(); err == nil {
				t.Fatalf("corruption at %d neither failed decode nor checksum", pos)
			}
		}
	}
}

// TestFooterRegionCorruption flips bytes inside the footer.
func TestFooterRegionCorruption(t *testing.T) {
	schema := testSchema(t)
	rng := rand.New(rand.NewSource(52))
	batch := testBatch(t, schema, rng, 200)
	mf, f := writeTestFile(t, schema, batch, nil)

	footerStart := int(f.ftr.footerOff)
	for delta := 0; delta < 64; delta += 7 {
		cp := &memFile{data: append([]byte{}, mf.data...)}
		cp.data[footerStart+delta] ^= 0xFF
		// Must not panic; may error at open or at read.
		f2, err := Open(cp, cp.Size())
		if err != nil {
			continue
		}
		for c := 0; c < f2.NumColumns() && c < 3; c++ {
			_, _ = f2.ReadColumnByIndex(c)
		}
	}
}

// TestRowCountDisagreesWithPageIndex: the footer header's row count is
// only a claim; reads follow the page index and refuse a file where the
// two disagree instead of planning batches over rows no page holds.
func TestRowCountDisagreesWithPageIndex(t *testing.T) {
	schema := testSchema(t)
	batch := testBatch(t, schema, rand.New(rand.NewSource(54)), 200)
	mf, f := writeTestFile(t, schema, batch, nil)
	for _, claimed := range []uint64{0, 199, 201, 1 << 62} {
		cp := &memFile{data: append([]byte{}, mf.data...)}
		binary.LittleEndian.PutUint64(cp.data[f.ftr.footerOff+12:], claimed)
		f2, err := Open(cp, cp.Size())
		if err != nil {
			continue
		}
		if _, err := f2.ReadColumnByIndex(0); err == nil {
			t.Fatalf("read a file whose header claims %d rows over a 200-row page index", claimed)
		}
		if _, err := f2.Scan(ScanOptions{}); err == nil {
			t.Fatalf("scanned a file whose header claims %d rows over a 200-row page index", claimed)
		}
	}
}

// TestTruncatedMidPage verifies graceful failure for truncated data.
func TestTruncatedMidPage(t *testing.T) {
	schema := testSchema(t)
	rng := rand.New(rand.NewSource(53))
	batch := testBatch(t, schema, rng, 300)
	mf, _ := writeTestFile(t, schema, batch, nil)
	// Keep the footer (copied to the right place) but truncate page data:
	// the file claims page offsets beyond what exists.
	for _, keep := range []int{8, 64, len(mf.data) / 2} {
		trunc := append([]byte{}, mf.data[:keep]...)
		if _, err := Open(&memFile{data: trunc}, int64(len(trunc))); err == nil {
			t.Fatalf("truncation to %d bytes opened successfully", keep)
		}
	}
}

// ---- Deletion edge cases ----

func TestDeleteEveryRowInPage(t *testing.T) {
	mf, f, _ := writeLevel(t, Level2, 1000) // RowsPerPage=128
	rows := make([]uint64, 128)
	for i := range rows {
		rows[i] = uint64(128 + i) // exactly page 1 of each chunk
	}
	if err := f.DeleteRows(mf, rows); err != nil {
		t.Fatal(err)
	}
	if got := f.NumLiveRows(); got != 1000-128 {
		t.Fatalf("live rows = %d", got)
	}
	data, err := f.ReadColumn("ad_id")
	if err != nil {
		t.Fatal(err)
	}
	if data.Len() != 1000-128 {
		t.Fatalf("read %d rows", data.Len())
	}
	// The fully-deleted page is zero-filled on disk.
	raw := rawRows(t, mf, "ad_id").(Int64Data)
	for r := 128; r < 256; r++ {
		if raw[r] == 0xABCD0000+int64(r) {
			t.Fatalf("row %d survived full-page erasure", r)
		}
	}
	if err := f.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteAllRows(t *testing.T) {
	mf, f, _ := writeLevel(t, Level2, 500)
	rows := make([]uint64, 500)
	for i := range rows {
		rows[i] = uint64(i)
	}
	if err := f.DeleteRows(mf, rows); err != nil {
		t.Fatal(err)
	}
	if got := f.NumLiveRows(); got != 0 {
		t.Fatalf("live rows = %d", got)
	}
	data, err := f.ReadColumn("uid")
	if err != nil {
		t.Fatal(err)
	}
	if data.Len() != 0 {
		t.Fatalf("read %d rows from fully-deleted file", data.Len())
	}
	if err := f.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}

// Property: for random clustered deletions, reads equal the original data
// minus the deleted rows, and checksums stay valid.
func TestDeletionSemanticsProperty(t *testing.T) {
	schema := deleteSchema(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 500 + rng.Intn(1500)
		batch := deleteBatch(t, schema, n)
		opts := DefaultOptions()
		opts.RowsPerPage = 64
		opts.GroupRows = 512
		opts.Compliance = Level2
		mf, file := writeTestFile(t, schema, batch, opts)

		// 1-3 clustered spans.
		del := map[uint64]bool{}
		var rows []uint64
		for s := 0; s < 1+rng.Intn(3); s++ {
			start := rng.Intn(n)
			l := 1 + rng.Intn(60)
			for i := start; i < start+l && i < n; i++ {
				if !del[uint64(i)] {
					del[uint64(i)] = true
					rows = append(rows, uint64(i))
				}
			}
		}
		if err := file.DeleteRows(mf, rows); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		got, err := file.ReadColumn("ad_id")
		if err != nil {
			return false
		}
		want := make([]int64, 0, n)
		orig := batch.Columns[1].(Int64Data)
		for i, v := range orig {
			if !del[uint64(i)] {
				want = append(want, v)
			}
		}
		g := got.(Int64Data)
		if len(g) != len(want) {
			return false
		}
		for i := range want {
			if g[i] != want[i] {
				return false
			}
		}
		return file.VerifyChecksums() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// ---- ReadRows ----

func TestReadRowsRanges(t *testing.T) {
	schema, _ := NewSchema(Field{Name: "v", Type: Type{Kind: Int64}})
	n := 3000
	vs := make(Int64Data, n)
	for i := range vs {
		vs[i] = int64(i)
	}
	batch, _ := NewBatch(schema, []ColumnData{vs})
	opts := DefaultOptions()
	opts.RowsPerPage = 100
	opts.GroupRows = 1000
	_, f := writeTestFile(t, schema, batch, opts)

	cases := []struct{ lo, hi uint64 }{
		{0, 0}, {0, 1}, {0, 100}, {50, 150}, {95, 105}, {0, 3000},
		{999, 1001}, {2999, 3000}, {1000, 2000}, {1500, 1501},
	}
	for _, c := range cases {
		data, err := f.ReadRows(0, c.lo, c.hi)
		if err != nil {
			t.Fatalf("[%d,%d): %v", c.lo, c.hi, err)
		}
		got := data.(Int64Data)
		if uint64(len(got)) != c.hi-c.lo {
			t.Fatalf("[%d,%d): %d rows", c.lo, c.hi, len(got))
		}
		for i := range got {
			if got[i] != int64(c.lo)+int64(i) {
				t.Fatalf("[%d,%d): row %d = %d", c.lo, c.hi, i, got[i])
			}
		}
	}
	if _, err := f.ReadRows(0, 5, 3); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := f.ReadRows(0, 0, 3001); err == nil {
		t.Fatal("out-of-range accepted")
	}
}

func TestReadRowsSkipsDeleted(t *testing.T) {
	schema, _ := NewSchema(Field{Name: "v", Type: Type{Kind: Int64}})
	n := 1000
	vs := make(Int64Data, n)
	for i := range vs {
		vs[i] = int64(i)
	}
	batch, _ := NewBatch(schema, []ColumnData{vs})
	opts := DefaultOptions()
	opts.RowsPerPage = 100
	mf, f := writeTestFile(t, schema, batch, opts)
	if err := f.DeleteRows(mf, []uint64{150, 151, 152}); err != nil {
		t.Fatal(err)
	}
	data, err := f.ReadRows(0, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	got := data.(Int64Data)
	if len(got) != 97 {
		t.Fatalf("rows = %d, want 97", len(got))
	}
	for _, v := range got {
		if v >= 150 && v <= 152 {
			t.Fatalf("deleted row %d returned", v)
		}
	}
}

// ---- Quality sorting across groups ----

func TestQualitySortPerGroup(t *testing.T) {
	schema, _ := NewSchema(
		Field{Name: "id", Type: Type{Kind: Int64}},
		Field{Name: "q", Type: Type{Kind: Float64}},
	)
	n := 5000
	rng := rand.New(rand.NewSource(3))
	ids := make(Int64Data, n)
	q := make(Float64Data, n)
	for i := range ids {
		ids[i] = int64(i)
		q[i] = rng.Float64()
	}
	batch, _ := NewBatch(schema, []ColumnData{ids, q})
	opts := DefaultOptions()
	opts.QualityColumn = "q"
	opts.GroupRows = 2000
	_, f := writeTestFile(t, schema, batch, opts)

	data, _ := f.ReadColumn("q")
	qd := data.(Float64Data)
	counts := f.GroupRowCounts()
	start := 0
	for g, cnt := range counts {
		for i := start + 1; i < start+cnt; i++ {
			if qd[i] > qd[i-1] {
				t.Fatalf("group %d not descending at row %d", g, i)
			}
		}
		start += cnt
	}
	if len(counts) != 3 {
		t.Fatalf("groups = %d, want 3", len(counts))
	}
}

// ---- Misc ----

func TestWriterAfterClose(t *testing.T) {
	schema, _ := NewSchema(Field{Name: "v", Type: Type{Kind: Int64}})
	mf := &memFile{}
	w, _ := NewWriter(mf, schema, nil)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	batch, _ := NewBatch(schema, []ColumnData{Int64Data{1}})
	if err := w.Write(batch); err == nil {
		t.Fatal("write after close accepted")
	}
	// Double close is a no-op.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizedFP16ListColumn(t *testing.T) {
	schema, err := NewSchema(
		Field{Name: "emb", Type: Type{Kind: List, Elem: Float32, Quant: quant.FP16}},
	)
	if err != nil {
		t.Fatal(err)
	}
	n := 200
	embs := make(ListFloat32Data, n)
	for i := range embs {
		embs[i] = []float32{0.5, -0.25, 0.125} // FP16-exact values
	}
	batch, _ := NewBatch(schema, []ColumnData{embs})
	_, f := writeTestFile(t, schema, batch, nil)
	data, err := f.ReadColumn("emb")
	if err != nil {
		t.Fatal(err)
	}
	got := data.(ListFloat32Data)
	for i := range embs {
		for j := range embs[i] {
			if got[i][j] != embs[i][j] {
				t.Fatalf("emb[%d][%d] = %v", i, j, got[i][j])
			}
		}
	}
}
