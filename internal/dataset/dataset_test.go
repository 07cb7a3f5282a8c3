package dataset

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"bullion/internal/core"
)

// testSchema is a small mixed schema: an int64 key (zone-mappable), a
// float64 value, and a string tag (no zone maps — exercises conservative
// pruning).
func testSchema(t *testing.T) *core.Schema {
	t.Helper()
	schema, err := core.NewSchema(
		core.Field{Name: "key", Type: core.Type{Kind: core.Int64}},
		core.Field{Name: "val", Type: core.Type{Kind: core.Float64}},
		core.Field{Name: "tag", Type: core.Type{Kind: core.String}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return schema
}

// keyBatch builds n rows with keys [base, base+n).
func keyBatch(t *testing.T, schema *core.Schema, base, n int) *core.Batch {
	t.Helper()
	keys := make(core.Int64Data, n)
	vals := make(core.Float64Data, n)
	tags := make(core.BytesData, n)
	for i := 0; i < n; i++ {
		keys[i] = int64(base + i)
		vals[i] = float64(base+i) / 2
		tags[i] = []byte(fmt.Sprintf("t%04d", (base+i)%7))
	}
	b, err := core.NewBatch(schema, []core.ColumnData{keys, vals, tags})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// newTestDataset creates a dataset of nFiles member files, each holding
// rowsPerFile rows with keys partitioned by file: file i holds keys
// [i*rowsPerFile, (i+1)*rowsPerFile).
func newTestDataset(t *testing.T, opts *Options, nFiles, rowsPerFile int) *Dataset {
	t.Helper()
	d, err := Create(t.TempDir(), testSchema(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	for i := 0; i < nFiles; i++ {
		if err := d.Append(keyBatch(t, d.Schema(), i*rowsPerFile, rowsPerFile)); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// scanKeys drains a dataset scan, returning the emitted key column.
func scanKeys(t *testing.T, d *Dataset, opts ScanOptions) ([]int64, ScanStats) {
	t.Helper()
	opts.Columns = []string{"key"}
	sc, err := d.Scan(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var keys []int64
	for {
		b, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, b.Columns[0].(core.Int64Data)...)
	}
	return keys, sc.Stats()
}

func wantKeys(lo, hi int64) []int64 {
	out := make([]int64, 0, hi-lo)
	for k := lo; k < hi; k++ {
		out = append(out, k)
	}
	return out
}

func checkKeys(t *testing.T, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d keys, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("key[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestDatasetAppendScan pins the basic lifecycle: append N files, scan in
// manifest order, reopen from disk, scan again.
func TestDatasetAppendScan(t *testing.T) {
	d := newTestDataset(t, nil, 4, 1000)
	if got := d.NumFiles(); got != 4 {
		t.Fatalf("NumFiles = %d, want 4", got)
	}
	if got := d.NumRows(); got != 4000 {
		t.Fatalf("NumRows = %d, want 4000", got)
	}
	for _, k := range []int{1, 3} {
		keys, stats := scanKeys(t, d, ScanOptions{FileConcurrency: k})
		checkKeys(t, keys, wantKeys(0, 4000))
		if stats.FilesScanned != 4 || stats.FilesPruned != 0 {
			t.Fatalf("conc %d: stats = %+v", k, stats)
		}
		if stats.RowsEmitted != 4000 {
			t.Fatalf("conc %d: RowsEmitted = %d", k, stats.RowsEmitted)
		}
	}

	// Reopen from disk: the manifest alone must reconstruct the dataset.
	d2, err := Open(d.dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	keys, _ := scanKeys(t, d2, ScanOptions{})
	checkKeys(t, keys, wantKeys(0, 4000))
	if d2.Schema().Fingerprint() != d.Schema().Fingerprint() {
		t.Fatal("fingerprint mismatch after reopen")
	}
}

// TestDatasetScanRangePruning asserts a global Range maps to the right
// member files and local rows, and that files wholly outside the range
// are pruned without ever being opened.
func TestDatasetScanRangePruning(t *testing.T) {
	var opens sync.Map // file name -> opened
	opts := &Options{WrapReader: func(name string, r io.ReaderAt, size int64) io.ReaderAt {
		opens.Store(name, true)
		return r
	}}
	d := newTestDataset(t, opts, 4, 1000)

	keys, stats := scanKeys(t, d, ScanOptions{
		ScanOptions: core.ScanOptions{Range: &core.RowRange{Lo: 1500, Hi: 2500}},
	})
	checkKeys(t, keys, wantKeys(1500, 2500))
	if stats.FilesPruned != 2 || stats.FilesPlanned != 2 {
		t.Fatalf("stats = %+v, want 2 pruned / 2 planned", stats)
	}
	opened := 0
	opens.Range(func(_, _ any) bool { opened++; return true })
	if opened != 2 {
		t.Fatalf("opened %d member files, want 2", opened)
	}
}

// TestDatasetScanZonePruning asserts the manifest's file-level zone maps
// prune whole files for ColumnFilters, and that stat-less columns never
// prune.
func TestDatasetScanZonePruning(t *testing.T) {
	d := newTestDataset(t, nil, 4, 1000)
	min, max := int64(3200), int64(3400)
	keys, stats := scanKeys(t, d, ScanOptions{
		ScanOptions: core.ScanOptions{Filters: []core.ColumnFilter{{Column: "key", Min: &min, Max: &max}}},
	})
	// Zone pruning is conservative: the matching file is scanned in full
	// minus its internally pruned batches.
	if stats.FilesPruned != 3 || stats.FilesPlanned != 1 {
		t.Fatalf("stats = %+v, want 3 pruned / 1 planned", stats)
	}
	for _, k := range keys {
		if k < 3000 || k >= 4000 {
			t.Fatalf("key %d from a file the filter excludes", k)
		}
	}

	// A filter on a column with no zone maps must not prune files.
	_, stats = scanKeys(t, d, ScanOptions{
		ScanOptions: core.ScanOptions{Filters: []core.ColumnFilter{{Column: "tag", Min: &min}}},
	})
	if stats.FilesPruned != 0 {
		t.Fatalf("stat-less column pruned %d files", stats.FilesPruned)
	}

	// Unknown filter and projection columns fail even when every file
	// would be pruned (or the dataset is empty).
	if _, err := d.Scan(ScanOptions{
		ScanOptions: core.ScanOptions{Filters: []core.ColumnFilter{{Column: "nope", Min: &min}}},
	}); err == nil {
		t.Fatal("scan with unknown filter column succeeded")
	}
	if _, err := d.Scan(ScanOptions{
		ScanOptions: core.ScanOptions{
			Columns: []string{"nope"},
			Range:   &core.RowRange{Lo: 0, Hi: 0},
		},
	}); err == nil {
		t.Fatal("scan with unknown projected column succeeded")
	}
}

// TestScannerRecycleConcurrent recycles every batch of a multi-member
// scan from a second goroutine while Next runs: each batch goes back to
// the member engine that produced it, and the rows must equal a scan
// that never recycles. The -race build checks the hand-off.
func TestScannerRecycleConcurrent(t *testing.T) {
	d := newTestDataset(t, nil, 4, 3000)
	type rows struct {
		keys []int64
		vals []float64
		tags []string
	}
	scan := func(recycle bool) rows {
		t.Helper()
		sc, err := d.Scan(ScanOptions{
			ScanOptions:     core.ScanOptions{BatchRows: 256, Workers: 2},
			FileConcurrency: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		done := make(chan *core.Batch, 4)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range done {
				sc.Recycle(b)
			}
		}()
		defer wg.Wait()
		defer close(done)
		var out rows
		for {
			b, err := sc.Next()
			if err == io.EOF {
				return out
			}
			if err != nil {
				t.Fatal(err)
			}
			out.keys = append(out.keys, b.Columns[0].(core.Int64Data)...)
			out.vals = append(out.vals, b.Columns[1].(core.Float64Data)...)
			for _, tag := range b.Columns[2].(core.BytesData) {
				out.tags = append(out.tags, string(tag))
			}
			if recycle {
				done <- b
			}
		}
	}
	want, got := scan(false), scan(true)
	if len(want.keys) != 12000 {
		t.Fatalf("scan returned %d rows, want 12000", len(want.keys))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a scan recycling every batch differs from one that never recycles")
	}
}

// TestShardedWriterRouting pins round-robin batch routing: 6 batches over
// 3 shards become 3 member files of 2 batches each, committed as one
// generation.
func TestShardedWriterRouting(t *testing.T) {
	d, err := Create(t.TempDir(), testSchema(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	genBefore := d.Generation()
	sw, err := d.ShardedWriter(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := sw.Write(keyBatch(t, d.Schema(), i*100, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if got := d.NumFiles(); got != 3 {
		t.Fatalf("NumFiles = %d, want 3", got)
	}
	if got := d.Generation(); got != genBefore+1 {
		t.Fatalf("generation = %d, want %d (one commit)", got, genBefore+1)
	}
	for i, e := range d.Manifest().Files {
		if e.Rows != 200 {
			t.Fatalf("shard %d has %d rows, want 200", i, e.Rows)
		}
	}
	// Shard 0 got batches 0 and 3: keys [0,100) and [300,400).
	keys, _ := scanKeys(t, d, ScanOptions{
		ScanOptions: core.ScanOptions{Range: &core.RowRange{Lo: 0, Hi: 200}},
	})
	want := append(wantKeys(0, 100), wantKeys(300, 400)...)
	checkKeys(t, keys, want)

	// No temporary files survive a successful commit.
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if strings.Contains(de.Name(), ".tmp") {
			t.Fatalf("leftover temporary %s", de.Name())
		}
	}
}

// TestDatasetDelete asserts global row deletion maps to the right member
// files, updates manifest accounting, and is visible to fresh scans.
func TestDatasetDelete(t *testing.T) {
	d := newTestDataset(t, nil, 3, 1000)
	// Delete keys 500..1499 (second half of file 0, first half of file 1).
	var rows []uint64
	for r := uint64(500); r < 1500; r++ {
		rows = append(rows, r)
	}
	if err := d.Delete(rows); err != nil {
		t.Fatal(err)
	}
	if got := d.NumLiveRows(); got != 2000 {
		t.Fatalf("NumLiveRows = %d, want 2000", got)
	}
	keys, _ := scanKeys(t, d, ScanOptions{})
	want := append(wantKeys(0, 500), wantKeys(1500, 3000)...)
	checkKeys(t, keys, want)

	// Deleting out-of-range rows fails without mutating anything.
	if err := d.Delete([]uint64{3000}); err == nil {
		t.Fatal("delete of row 3000 succeeded")
	}
}

// TestDatasetFingerprintMismatch asserts a member whose bytes don't match
// the manifest fingerprint is rejected at open.
func TestDatasetFingerprintMismatch(t *testing.T) {
	d := newTestDataset(t, nil, 2, 100)
	victim := d.Manifest().Files[1].Name

	// Overwrite member 1 with a file of a different schema.
	other, err := core.NewSchema(core.Field{Name: "zzz", Type: core.Type{Kind: core.Int64}})
	if err != nil {
		t.Fatal(err)
	}
	osf, err := os.Create(filepath.Join(d.dir, victim))
	if err != nil {
		t.Fatal(err)
	}
	w, err := core.NewWriter(osf, other, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := core.NewBatch(other, []core.ColumnData{make(core.Int64Data, 100)})
	if err := w.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	osf.Close()

	d2, err := Open(d.dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	// Members are opened (and verified) when their engine starts, so the
	// mismatch surfaces from Next.
	sc, err := d2.Scan(ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if _, err = drainRows(sc); err == nil {
		t.Fatal("scan over a swapped member succeeded")
	}
	if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("error %v does not mention the fingerprint", err)
	}
}

// TestDatasetScanErrorPropagates asserts a read failure inside one member
// engine surfaces from Next and shuts the scan down.
func TestDatasetScanErrorPropagates(t *testing.T) {
	opts := &Options{WrapReader: func(name string, r io.ReaderAt, size int64) io.ReaderAt {
		// Footer reads (at the tail) succeed so Scan can plan; page reads
		// at offset 0 — the first data page — fail.
		return failingReader{r: r, failBelow: 8}
	}}
	d := newTestDataset(t, opts, 2, 1000)
	sc, err := d.Scan(ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	for {
		_, err := sc.Next()
		if err == io.EOF {
			t.Fatal("scan with failing reader reached EOF")
		}
		if err != nil {
			break
		}
	}
}

type failingReader struct {
	r         io.ReaderAt
	failBelow int64
}

func (f failingReader) ReadAt(p []byte, off int64) (int, error) {
	if off < f.failBelow {
		return 0, fmt.Errorf("injected read failure")
	}
	return f.r.ReadAt(p, off)
}

// TestManifestAtomicCommit pins the commit protocol: a manifest file per
// generation, a CURRENT pointer naming the live one, and no temp debris.
func TestManifestAtomicCommit(t *testing.T) {
	d := newTestDataset(t, nil, 2, 100)
	cur, err := os.ReadFile(filepath.Join(d.dir, currentName))
	if err != nil {
		t.Fatal(err)
	}
	want := manifestName(d.Generation())
	if strings.TrimSpace(string(cur)) != want {
		t.Fatalf("CURRENT = %q, want %q", strings.TrimSpace(string(cur)), want)
	}
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		t.Fatal(err)
	}
	manifests := 0
	for _, de := range ents {
		name := de.Name()
		if strings.Contains(name, ".tmp") {
			t.Fatalf("temp debris %s", name)
		}
		if strings.HasPrefix(name, "manifest-") {
			manifests++
		}
	}
	// Create + 2 appends = 3 generations on disk until Vacuum.
	if manifests != 3 {
		t.Fatalf("%d manifest files, want 3", manifests)
	}

	rep, err := d.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Removed) != 2 {
		t.Fatalf("vacuum removed %v, want the 2 stale manifests", rep.Removed)
	}
}

// scanStatsInts maps each integer field of the struct v — nested structs
// included, named by path — to its value, and fails on any field kind it
// does not know how to sum.
func scanStatsInts(t *testing.T, prefix string, v reflect.Value, out map[string]reflect.Value) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		name := prefix + v.Type().Field(i).Name
		switch f := v.Field(i); f.Kind() {
		case reflect.Struct:
			scanStatsInts(t, name+".", f, out)
		case reflect.Int, reflect.Int64:
			out[name] = f
		case reflect.Slice: // DegradedMembers, checked by the caller
		default:
			t.Fatalf("ScanStats field %s has kind %s; teach Add and this test to sum it", name, f.Kind())
		}
	}
}

// TestScanStatsAddSumsEveryCounter gives every integer field of a
// ScanStats — the embedded core counters and the cache section included —
// a distinct value and checks that Add sums each one, so a counter added
// to either struct but not to its Add fails here.
func TestScanStatsAddSumsEveryCounter(t *testing.T) {
	var src ScanStats
	fields := map[string]reflect.Value{}
	scanStatsInts(t, "", reflect.ValueOf(&src).Elem(), fields)
	n := int64(0)
	for _, f := range fields {
		n++
		f.SetInt(n)
	}
	src.DegradedMembers = []string{"part-1-0.bln"}

	sum := src
	sum.Add(src)
	sums := map[string]reflect.Value{}
	scanStatsInts(t, "", reflect.ValueOf(&sum).Elem(), sums)
	for name, f := range fields {
		if got, want := sums[name].Int(), 2*f.Int(); got != want {
			t.Errorf("%s: Add gave %d, want %d", name, got, want)
		}
	}
	if want := []string{"part-1-0.bln", "part-1-0.bln"}; !reflect.DeepEqual(sum.DegradedMembers, want) {
		t.Errorf("DegradedMembers = %v, want %v", sum.DegradedMembers, want)
	}
}
