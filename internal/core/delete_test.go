package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bullion/internal/enc"
	"bullion/internal/iostats"
)

// deleteSchema is a compact schema for deletion tests: a user-sorted table
// the way ads training data is laid out (§2.1-2.2).
func deleteSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Field{Name: "uid", Type: Type{Kind: Int64}},
		Field{Name: "ad_id", Type: Type{Kind: Int64}},
		Field{Name: "label", Type: Type{Kind: Float64}},
		Field{Name: "tag", Type: Type{Kind: String}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func deleteBatch(t *testing.T, schema *Schema, n int) *Batch {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	uid := make(Int64Data, n)
	adID := make(Int64Data, n)
	label := make(Float64Data, n)
	tag := make(BytesData, n)
	for i := 0; i < n; i++ {
		uid[i] = int64(i / 50) // 50 rows per user, user-sorted
		adID[i] = 0xABCD0000 + int64(i)
		label[i] = rng.Float64()
		tag[i] = []byte(fmt.Sprintf("user-%d-row-%d", uid[i], i))
	}
	b, err := NewBatch(schema, []ColumnData{uid, adID, label, tag})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func writeLevel(t *testing.T, level Level, n int) (*memFile, *File, *Batch) {
	t.Helper()
	schema := deleteSchema(t)
	batch := deleteBatch(t, schema, n)
	opts := DefaultOptions()
	opts.RowsPerPage = 128
	opts.GroupRows = 1024
	opts.Compliance = level
	mf, f := writeTestFile(t, schema, batch, opts)
	return mf, f, batch
}

// rawRows reads a column with the deletion vector cleared, exposing what
// is physically on disk at deleted slots (Level 1: original values remain;
// Level 2: masked copies).
func rawRows(t *testing.T, mf *memFile, name string) ColumnData {
	t.Helper()
	cp := &memFile{data: append([]byte{}, mf.data...)}
	f, err := Open(cp, cp.Size())
	if err != nil {
		t.Fatal(err)
	}
	ftr, err := f.View().Materialize()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ftr.DeletionVec {
		ftr.DeletionVec[i] = 0
	}
	buf, err := ftr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.WriteAt(buf, cp.Size()-8-int64(len(buf))); err != nil {
		t.Fatal(err)
	}
	f2, err := Open(cp, cp.Size())
	if err != nil {
		t.Fatal(err)
	}
	data, err := f2.ReadColumn(name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestLevel0RejectsDeletion(t *testing.T) {
	mf, f, _ := writeLevel(t, Level0, 500)
	if err := f.DeleteRows(mf, []uint64{1}); err == nil {
		t.Fatal("Level 0 accepted a delete")
	}
}

func TestLevel1DeletionVector(t *testing.T) {
	mf, f, batch := writeLevel(t, Level1, 2000)
	del := []uint64{0, 5, 100, 1999}
	if err := f.DeleteRows(mf, del); err != nil {
		t.Fatal(err)
	}
	if got := f.NumLiveRows(); got != 2000-4 {
		t.Fatalf("live rows = %d, want %d", got, 2000-4)
	}
	// Reads filter the deleted rows.
	data, err := f.ReadColumn("ad_id")
	if err != nil {
		t.Fatal(err)
	}
	got := data.(Int64Data)
	want := make([]int64, 0, 1996)
	delSet := map[uint64]bool{0: true, 5: true, 100: true, 1999: true}
	orig := batch.Columns[1].(Int64Data)
	for i, v := range orig {
		if !delSet[uint64(i)] {
			want = append(want, v)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %d, want %d", i, got[i], want[i])
		}
	}
	// Level 1 leaves the data physically on disk: reading with the
	// deletion vector cleared still reveals the original values.
	raw := rawRows(t, mf, "tag").(BytesData)
	if string(raw[0]) != "user-0-row-0" {
		t.Fatalf("Level 1 physically altered data: row 0 tag = %q", raw[0])
	}
	// Checksums still valid (pages untouched).
	if err := f.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}

func TestLevel2PhysicalErasure(t *testing.T) {
	mf, f, batch := writeLevel(t, Level2, 2000)

	// Delete user 3's rows: 150..199 (contiguous, page-aligned-ish).
	var del []uint64
	for r := uint64(150); r < 200; r++ {
		del = append(del, r)
	}
	if err := f.DeleteRows(mf, del); err != nil {
		t.Fatal(err)
	}

	// The deleted rows' values are physically gone: even with the deletion
	// vector cleared, the slots now hold a masked copy of a live neighbor,
	// not the original data.
	raw := rawRows(t, mf, "tag").(BytesData)
	for r := 150; r < 200; r++ {
		if string(raw[r]) == fmt.Sprintf("user-3-row-%d", r) {
			t.Fatalf("row %d tag survived Level 2 erasure", r)
		}
	}
	// Neighboring rows survive untouched.
	if string(raw[149]) != "user-2-row-149" {
		t.Fatalf("neighbor row damaged: %q", raw[149])
	}
	rawIDs := rawRows(t, mf, "ad_id").(Int64Data)
	for r := 150; r < 200; r++ {
		if rawIDs[r] == 0xABCD0000+int64(r) {
			t.Fatalf("row %d ad_id survived Level 2 erasure", r)
		}
	}

	// Reads return exactly the live rows.
	data, err := f.ReadColumn("ad_id")
	if err != nil {
		t.Fatal(err)
	}
	got := data.(Int64Data)
	orig := batch.Columns[1].(Int64Data)
	want := append(append([]int64{}, orig[:150]...), orig[200:]...)
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %d, want %d", i, got[i], want[i])
		}
	}

	// Merkle checksums were maintained through the in-place update.
	if err := f.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}

func TestLevel2RepeatedDeletes(t *testing.T) {
	mf, f, batch := writeLevel(t, Level2, 1000)
	if err := f.DeleteRows(mf, []uint64{10, 11}); err != nil {
		t.Fatal(err)
	}
	if err := f.DeleteRows(mf, []uint64{12, 500}); err != nil {
		t.Fatal(err)
	}
	// Deleting already-deleted rows is a no-op.
	if err := f.DeleteRows(mf, []uint64{10, 500}); err != nil {
		t.Fatal(err)
	}
	if got := f.NumLiveRows(); got != 996 {
		t.Fatalf("live rows = %d, want 996", got)
	}
	data, err := f.ReadColumn("uid")
	if err != nil {
		t.Fatal(err)
	}
	got := data.(Int64Data)
	orig := batch.Columns[0].(Int64Data)
	var want []int64
	delSet := map[int]bool{10: true, 11: true, 12: true, 500: true}
	for i, v := range orig {
		if !delSet[i] {
			want = append(want, v)
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %d, want %d", i, got[i], want[i])
		}
	}
	if err := f.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteOutOfRange(t *testing.T) {
	mf, f, _ := writeLevel(t, Level2, 100)
	if err := f.DeleteRows(mf, []uint64{100}); err == nil {
		t.Fatal("out-of-range row accepted")
	}
}

func TestDeleteAcrossGroups(t *testing.T) {
	mf, f, _ := writeLevel(t, Level2, 3000) // 3 groups of 1024, 1024, 952
	del := []uint64{1000, 1023, 1024, 1025, 2048, 2999}
	if err := f.DeleteRows(mf, del); err != nil {
		t.Fatal(err)
	}
	if got := f.NumLiveRows(); got != 3000-6 {
		t.Fatalf("live rows = %d", got)
	}
	data, err := f.ReadColumn("ad_id")
	if err != nil {
		t.Fatal(err)
	}
	if data.Len() != 3000-6 {
		t.Fatalf("read %d rows", data.Len())
	}
	if err := f.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}

// The §2.1 headline: deleting a small, clustered fraction of rows in place
// writes a tiny fraction of the bytes a full rewrite would.
func TestInPlaceDeletionIOAdvantage(t *testing.T) {
	const n = 50000
	schema := deleteSchema(t)
	batch := deleteBatch(t, schema, n)
	opts := DefaultOptions()
	opts.RowsPerPage = 512
	opts.GroupRows = 1 << 14
	opts.Compliance = Level2
	mf, f := writeTestFile(t, schema, batch, opts)
	fileSize := mf.Size()

	// 2% of rows, contiguous (one user's data, as user-sorted tables give).
	var del []uint64
	for r := uint64(10000); r < uint64(10000+n/50); r++ {
		del = append(del, r)
	}

	var c iostats.Counters
	c.Reset()
	counted := &iostats.WriterAt{W: mf, C: &c}
	if err := f.DeleteRows(counted, del); err != nil {
		t.Fatal(err)
	}
	inPlaceBytes := c.Snapshot().WriteBytes

	// Baseline: full rewrite into a fresh buffer.
	var rw iostats.Counters
	rw.Reset()
	out := &iostats.Writer{W: &memFile{}, C: &rw}
	if _, err := f.RewriteWithoutRows(out, nil, opts); err != nil {
		t.Fatal(err)
	}
	rewriteBytes := rw.Snapshot().WriteBytes

	factor := float64(rewriteBytes) / float64(inPlaceBytes)
	t.Logf("deletion I/O: in-place %d bytes vs rewrite %d bytes (%.1fx reduction, file %d bytes)",
		inPlaceBytes, rewriteBytes, factor, fileSize)
	if factor < 5 {
		t.Fatalf("in-place deletion only %.1fx better than rewrite", factor)
	}
	if err := f.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}

func TestLevel2SparseColumnErasure(t *testing.T) {
	// Sparse sliding-window columns re-encode correctly through erasure.
	schema, err := NewSchema(
		Field{Name: "uid", Type: Type{Kind: Int64}},
		Field{Name: "clk_seq", Type: Type{Kind: List, Elem: Int64}, Sparse: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	n := 600
	uid := make(Int64Data, n)
	clk := make(ListInt64Data, n)
	window := []int64{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 11, 12, 13, 14, 15, 16}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		uid[i] = int64(i)
		if rng.Intn(4) == 0 {
			window = append([]int64{rng.Int63n(1 << 20)}, window[:len(window)-1]...)
		}
		clk[i] = append([]int64{}, window...)
	}
	batch, _ := NewBatch(schema, []ColumnData{uid, clk})
	opts := DefaultOptions()
	opts.RowsPerPage = 128
	opts.Compliance = Level2
	mf, f := writeTestFile(t, schema, batch, opts)

	if err := f.DeleteRows(mf, []uint64{130, 131, 132}); err != nil {
		t.Fatal(err)
	}
	data, err := f.ReadColumn("clk_seq")
	if err != nil {
		t.Fatal(err)
	}
	got := data.(ListInt64Data)
	if len(got) != n-3 {
		t.Fatalf("rows = %d, want %d", len(got), n-3)
	}
	// Spot-check alignment across the erased span.
	wantAt := func(orig int) []int64 { return clk[orig] }
	checkVec := func(gotIdx, origIdx int) {
		w := wantAt(origIdx)
		if len(got[gotIdx]) != len(w) {
			t.Fatalf("row %d len %d, want %d", gotIdx, len(got[gotIdx]), len(w))
		}
		for j := range w {
			if got[gotIdx][j] != w[j] {
				t.Fatalf("row %d elem %d mismatch", gotIdx, j)
			}
		}
	}
	checkVec(129, 129)
	checkVec(130, 133) // first row after the erased span
	checkVec(n-4, n-1)
	if err := f.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}

// TestLevel2SparseRetryKeepsValueScheme: when a fresh selection for a
// masked sparse page picks a value-stream scheme that no longer fits the
// page, the erasure retries with the page's original value-stream scheme.
// The value stream is random wide values except where the selector samples
// it, where it draws from four symbols: a sample-based selection picks
// Dict, which on the whole stream is larger than the BitPack the writer
// was restricted to.
func TestLevel2SparseRetryKeepsValueScheme(t *testing.T) {
	schema, err := NewSchema(Field{Name: "seq", Type: Type{Kind: List, Elem: Int64}, Sparse: true})
	if err != nil {
		t.Fatal(err)
	}
	const rows, width = 1024, 16
	const n = rows * width
	stride := (n - 128) / 7 // the selector's sample runs start at r*stride
	sampled := func(i int) bool {
		for r := 0; r < 8; r++ {
			if i >= r*stride-64 && i < r*stride+192 {
				return true
			}
		}
		return false
	}
	rng := rand.New(rand.NewSource(11))
	symbols := []int64{1<<27 + 1, 1<<27 + 77, 1<<27 + 4242, 1<<27 + 90001}
	seq := make(ListInt64Data, rows)
	for r := range seq {
		v := make([]int64, width)
		for j := range v {
			if sampled(r*width + j) {
				v[j] = symbols[rng.Intn(len(symbols))]
			} else {
				v[j] = rng.Int63n(1 << 28)
			}
		}
		seq[r] = v
	}
	batch, err := NewBatch(schema, []ColumnData{seq})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.RowsPerPage, opts.GroupRows, opts.Compliance = rows, rows, Level2
	opts.Enc.Allowed = map[enc.SchemeID]bool{enc.BitPack: true}
	mf, f := writeTestFile(t, schema, batch, opts)

	masked := maskColumn(schema.Fields[0], seq, []int{100})
	fresh, _, err := encodePage(schema.Fields[0], masked, rewriteOptions())
	if err != nil {
		t.Fatal(err)
	}
	if off, end := f.pageByteRange(0); int64(len(fresh)) <= end-off {
		t.Fatalf("a fresh selection fits the masked page (%d <= %d bytes); the retry goes untested", len(fresh), end-off)
	}
	if err := f.DeleteRows(mf, []uint64{100}); err != nil {
		t.Fatal(err)
	}
	data, err := f.ReadColumn("seq")
	if err != nil {
		t.Fatal(err)
	}
	want := append(append(ListInt64Data{}, seq[:100]...), seq[101:]...)
	if !reflect.DeepEqual(data, want) {
		t.Fatal("live rows read back differently after erasure")
	}
	if err := f.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}

// TestLevel2DefaultSparseValueStreamMaskable: a Level-2 writer given no
// Sparse options still restricts a sparse page's value stream to the
// maskable schemes, so erasing isolated rows fits in place. The value
// stream is skewed wide values: mostly one value near 2^40, a few others.
// Unrestricted, the cascade picks MainlyConstant over children whose
// masked re-encode outgrows the page (ErrPageGrew).
func TestLevel2DefaultSparseValueStreamMaskable(t *testing.T) {
	schema, err := NewSchema(Field{Name: "seq", Type: Type{Kind: List, Elem: Int64}, Sparse: true})
	if err != nil {
		t.Fatal(err)
	}
	const rows, width = 512, 16
	common := int64(1<<40 + 12345)
	others := []int64{1<<40 + 7, 1<<40 + 999_983, 1<<41 + 3, 1<<39 + 271_828}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		seq := make(ListInt64Data, rows)
		for r := range seq {
			v := make([]int64, width)
			for j := range v {
				v[j] = common
				if rng.Intn(8) == 0 {
					v[j] = others[rng.Intn(len(others))]
				}
			}
			seq[r] = v
		}
		batch, err := NewBatch(schema, []ColumnData{seq})
		if err != nil {
			t.Fatal(err)
		}
		mf, f := writeTestFile(t, schema, batch, &Options{RowsPerPage: rows, GroupRows: rows, Compliance: Level2})
		var del []uint64
		var want ListInt64Data
		for r := range seq {
			if r%7 == 3 {
				del = append(del, uint64(r))
			} else {
				want = append(want, seq[r])
			}
		}
		if err := f.DeleteRows(mf, del); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := f.ReadColumn("seq")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: live rows read back differently after erasure", seed)
		}
		if err := f.VerifyChecksums(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
