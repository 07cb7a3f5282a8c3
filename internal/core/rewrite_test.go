package core

import (
	"math/rand"
	"os"
	"testing"
)

// These tests pin the compaction primitive the dataset layer builds on:
// RewriteWithoutRows must produce a file whose scan output is exactly the
// original's live rows minus the dropped set.

// liveMinus returns the original columns restricted to rows not in
// deleted and not in dropped (all indices in the original row space).
func liveMinus(cols []ColumnData, n int, deleted, dropped []uint64) []ColumnData {
	skip := map[uint64]bool{}
	for _, r := range deleted {
		skip[r] = true
	}
	for _, r := range dropped {
		skip[r] = true
	}
	keep := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if !skip[uint64(i)] {
			keep = append(keep, i)
		}
	}
	out := make([]ColumnData, len(cols))
	for i, c := range cols {
		out[i] = c.gather(keep)
	}
	return out
}

// rewriteAndReopen runs RewriteWithoutRows and opens the result.
func rewriteAndReopen(t *testing.T, f *File, drop []uint64, opts *Options) *File {
	t.Helper()
	out := &memFile{}
	if _, err := f.RewriteWithoutRows(out, drop, opts); err != nil {
		t.Fatal(err)
	}
	rf, err := Open(out, out.Size())
	if err != nil {
		t.Fatal(err)
	}
	return rf
}

// TestRewriteWithoutRowsScanRoundTrip: deletion-vector deletes plus an
// explicit drop set, rewritten, reopened, and scanned — the output must
// equal the written batch minus every removed row, for every column type,
// including at a batch size that misaligns with the pages.
func TestRewriteWithoutRowsScanRoundTrip(t *testing.T) {
	schema := testSchema(t)
	rng := rand.New(rand.NewSource(77))
	const n = 5000
	batch := testBatch(t, schema, rng, n)
	opts := &Options{RowsPerPage: 256, GroupRows: 1500, Compliance: Level1}
	mf, f := writeTestFile(t, schema, batch, opts)

	// Mark a scattered set deleted (vector-only at Level 1), then drop a
	// second set at rewrite time — including overlaps, which must not
	// double-remove.
	deleted := []uint64{0, 1, 255, 256, 1499, 1500, 2999, 4999}
	if err := f.DeleteRows(mf, deleted); err != nil {
		t.Fatal(err)
	}
	var dropped []uint64
	for r := uint64(700); r < 900; r++ {
		dropped = append(dropped, r)
	}
	dropped = append(dropped, 255, 3000, 4998) // 255 overlaps the deleted set

	want := liveMinus(batch.Columns, n, deleted, dropped)

	rf := rewriteAndReopen(t, f, dropped, opts)
	if got, wantRows := rf.NumRows(), uint64(n-len(deleted)-len(dropped)+1); got != wantRows {
		t.Fatalf("rewritten file has %d rows, want %d", got, wantRows)
	}

	for _, batchRows := range []int{256, 300, 1024, 100000} {
		got, _ := scanAll(t, rf, ScanOptions{BatchRows: batchRows})
		assertColumnsEqual(t, schema, want, got)
	}
}

// TestWithDeletionsOverlay: a WithDeletions bitmap hides its rows from
// every read of the returned handle — scans at aligned and misaligned
// batch sizes, whole-column reads, NumLiveRows, RewriteWithoutRows — on
// top of the footer's own deletion vector, and leaves the file's bytes
// and the original handle untouched.
func TestWithDeletionsOverlay(t *testing.T) {
	schema := testSchema(t)
	rng := rand.New(rand.NewSource(78))
	const n = 3000
	batch := testBatch(t, schema, rng, n)
	opts := &Options{RowsPerPage: 256, GroupRows: 1500, Compliance: Level1}
	mf, f := writeTestFile(t, schema, batch, opts)
	footerDel := []uint64{3, 256, 2999}
	if err := f.DeleteRows(mf, footerDel); err != nil {
		t.Fatal(err)
	}
	before := string(mf.data)

	// One whole page (its batch must prune), scattered rows across word,
	// page and group boundaries, and rows the footer already deletes.
	overlay := make([]uint64, (n+63)/64)
	var marked []uint64
	mark := func(r uint64) {
		overlay[r>>6] |= 1 << (r & 63)
		marked = append(marked, r)
	}
	for r := uint64(512); r < 768; r++ {
		mark(r)
	}
	for _, r := range []uint64{0, 1, 63, 64, 256, 1499, 1500, 2998, 2999} {
		mark(r)
	}
	g := f.WithDeletions(overlay)

	want := liveMinus(batch.Columns, n, footerDel, marked)
	if got, live := g.NumLiveRows(), uint64(want[0].Len()); got != live {
		t.Fatalf("overlay handle has %d live rows, want %d", got, live)
	}
	for _, batchRows := range []int{256, 300, 100000} {
		got, st := scanAll(t, g, ScanOptions{BatchRows: batchRows})
		assertColumnsEqual(t, schema, want, got)
		if batchRows == 256 && st.BatchesSkipped != 1 {
			t.Fatalf("fully overlaid page: %d batches skipped, want 1", st.BatchesSkipped)
		}
	}
	var names []string
	for _, fd := range schema.Fields {
		names = append(names, fd.Name)
	}
	whole, err := g.Project(names...)
	if err != nil {
		t.Fatal(err)
	}
	assertColumnsEqual(t, schema, want, whole.Columns)
	rf := rewriteAndReopen(t, g, []uint64{10}, opts)
	got, _ := scanAll(t, rf, ScanOptions{})
	assertColumnsEqual(t, schema, liveMinus(batch.Columns, n, append(footerDel, 10), marked), got)

	// The overlay lives in the handle only.
	if string(mf.data) != before {
		t.Fatal("WithDeletions modified the file's bytes")
	}
	if got := f.NumLiveRows(); got != n-uint64(len(footerDel)) {
		t.Fatalf("original handle has %d live rows, want %d", got, n-len(footerDel))
	}
	got, _ = scanAll(t, f, ScanOptions{})
	assertColumnsEqual(t, schema, liveMinus(batch.Columns, n, footerDel, nil), got)
}

// TestGoldenRewriteWithoutRowsRoundTrip runs the same round-trip over the
// committed golden file: rewriting the pinned format, reopening, and
// scanning must reproduce the golden table minus the dropped rows.
func TestGoldenRewriteWithoutRowsRoundTrip(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading %s (run with -update to regenerate): %v", goldenPath, err)
	}
	mf := &memFile{data: data}
	f, err := Open(mf, mf.Size())
	if err != nil {
		t.Fatal(err)
	}
	n := int(f.NumRows())

	dropped := []uint64{0, 7, 255, 256, 999, 1000, 1001, 2000, uint64(n - 1)}

	schema, table, opts := goldenTable(t)
	rf := rewriteAndReopen(t, f, dropped, opts)
	if got := rf.NumRows(); got != uint64(n-len(dropped)) {
		t.Fatalf("rewritten golden has %d rows, want %d", got, n-len(dropped))
	}
	want := liveMinus(table.Columns, n, nil, dropped)
	for _, batchRows := range []int{256, 700} { // 700 misaligns with the 256-row pages
		got, _ := scanAll(t, rf, ScanOptions{BatchRows: batchRows})
		assertColumnsEqual(t, schema, want, got)
	}

	// The rewrite must also leave a verifiable checksum tree.
	if err := rf.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}
