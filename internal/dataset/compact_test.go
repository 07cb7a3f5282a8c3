package dataset

import (
	"io"
	"sync"
	"testing"

	"bullion/internal/core"
)

// deleteEveryOther marks half of each member file's rows deleted: global
// odd rows across the whole dataset.
func deleteEveryOther(t *testing.T, d *Dataset) []int64 {
	t.Helper()
	total := d.NumRows()
	var rows []uint64
	var live []int64
	for r := uint64(0); r < total; r++ {
		if r%2 == 1 {
			rows = append(rows, r)
		} else {
			live = append(live, int64(r))
		}
	}
	if err := d.Delete(rows); err != nil {
		t.Fatal(err)
	}
	return live
}

// TestCompactHalfDeleted pins the acceptance shape: a half-deleted
// dataset shrinks on Compact and subsequent scans return identical live
// rows.
func TestCompactHalfDeleted(t *testing.T) {
	d := newTestDataset(t, nil, 4, 1024)
	live := deleteEveryOther(t, d)
	before, _ := scanKeys(t, d, ScanOptions{})
	checkKeys(t, before, live)
	bytesBefore := d.TotalBytes()

	stats, err := d.Compact(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FilesCompacted != 4 || stats.FilesDropped != 0 {
		t.Fatalf("stats = %+v, want 4 compacted", stats)
	}
	if stats.RowsReclaimed != 4*512 {
		t.Fatalf("RowsReclaimed = %d, want %d", stats.RowsReclaimed, 4*512)
	}
	if d.TotalBytes() >= bytesBefore {
		t.Fatalf("compaction did not shrink: %d -> %d bytes", bytesBefore, d.TotalBytes())
	}
	if d.NumRows() != uint64(len(live)) || d.NumLiveRows() != uint64(len(live)) {
		t.Fatalf("rows = %d live %d, want %d", d.NumRows(), d.NumLiveRows(), len(live))
	}
	after, stats2 := scanKeys(t, d, ScanOptions{})
	checkKeys(t, after, live)
	if stats2.FilesScanned != 4 {
		t.Fatalf("post-compact scan stats = %+v", stats2)
	}

	// Zone maps survive compaction: a filter for the last file's keys
	// still prunes the other three.
	min := int64(3 * 1024)
	_, stats3 := scanKeys(t, d, ScanOptions{
		ScanOptions: core.ScanOptions{Filters: []core.ColumnFilter{{Column: "key", Min: &min}}},
	})
	if stats3.FilesPruned != 3 {
		t.Fatalf("post-compact zone pruning: %+v", stats3)
	}

	// A second compaction finds nothing to do.
	stats4, err := d.Compact(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if stats4.FilesCompacted != 0 || stats4.FilesDropped != 0 {
		t.Fatalf("idle compaction did work: %+v", stats4)
	}
}

// TestCompactDropsEmptyFiles asserts a fully deleted member is removed
// from the manifest without a replacement file.
func TestCompactDropsEmptyFiles(t *testing.T) {
	d := newTestDataset(t, nil, 3, 100)
	// Delete all of file 1 (global rows [100, 200)).
	var rows []uint64
	for r := uint64(100); r < 200; r++ {
		rows = append(rows, r)
	}
	if err := d.Delete(rows); err != nil {
		t.Fatal(err)
	}
	stats, err := d.Compact(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FilesDropped != 1 || stats.FilesCompacted != 0 {
		t.Fatalf("stats = %+v, want 1 dropped", stats)
	}
	if d.NumFiles() != 2 {
		t.Fatalf("NumFiles = %d, want 2", d.NumFiles())
	}
	keys, _ := scanKeys(t, d, ScanOptions{})
	checkKeys(t, keys, append(wantKeys(0, 100), wantKeys(200, 300)...))
}

// TestScanDuringCompact runs scans concurrently with a Compact commit:
// scanners holding the old manifest generation must keep serving their
// snapshot (race-clean under -race), and scans started after the commit
// see the compacted generation.
func TestScanDuringCompact(t *testing.T) {
	d := newTestDataset(t, nil, 4, 1024)
	live := deleteEveryOther(t, d)
	genBefore := d.Generation()

	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 8; i++ {
				sc, err := d.Scan(ScanOptions{FileConcurrency: 2})
				if err != nil {
					t.Error(err)
					return
				}
				rows := 0
				for {
					b, err := sc.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Errorf("scan during compact: %v", err)
						sc.Close()
						return
					}
					rows += b.NumRows()
				}
				sc.Close()
				// Every snapshot — pre- or post-compaction — holds exactly
				// the live rows.
				if rows != len(live) {
					t.Errorf("scan saw %d rows, want %d", rows, len(live))
					return
				}
			}
		}()
	}
	close(start)
	if _, err := d.Compact(0.9); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if d.Generation() != genBefore+1 {
		t.Fatalf("generation = %d, want %d", d.Generation(), genBefore+1)
	}
	keys, _ := scanKeys(t, d, ScanOptions{})
	checkKeys(t, keys, live)
}

// TestScanDuringDelete runs scans concurrently with a series of Deletes,
// each touching two members, which take no lock against scans: every scan
// must serve exactly the rows of one committed generation — all of some
// prefix of the deletes, none of the rest.
func TestScanDuringDelete(t *testing.T) {
	const n, step, deletes = 4096, 100, 6
	d := newTestDataset(t, nil, 4, n/4)
	// After k deletes, keys [0, k*step) and [n/2, n/2+k*step) are gone.
	liveAfter := func(k int) []int64 {
		cut := int64(k * step)
		return append(wantKeys(cut, n/2), wantKeys(n/2+cut, n)...)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 8; i++ {
				sc, err := d.Scan(ScanOptions{
					ScanOptions:     core.ScanOptions{Columns: []string{"key"}},
					FileConcurrency: 2,
				})
				if err != nil {
					t.Error(err)
					return
				}
				var keys []int64
				for {
					b, err := sc.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Errorf("scan during delete: %v", err)
						sc.Close()
						return
					}
					keys = append(keys, b.Columns[0].(core.Int64Data)...)
				}
				sc.Close()
				k := (n - len(keys)) / (2 * step)
				if err := verifyLiveKeys(keys, liveAfter(k)); err != nil {
					t.Errorf("scan saw no committed generation: %v", err)
					return
				}
			}
		}()
	}
	close(start)
	for k := uint64(0); k < deletes; k++ {
		rows := append(spanRows(k*step, (k+1)*step), spanRows(n/2+k*step, n/2+(k+1)*step)...)
		if err := d.Delete(rows); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	keys, _ := scanKeys(t, d, ScanOptions{})
	checkKeys(t, keys, liveAfter(deletes))
}

// TestScanHoldsSnapshotAcrossCommit pins generation isolation precisely:
// a scanner created before a Delete+Compact still returns the rows that
// were live at its snapshot, even when drained after the commit.
func TestScanHoldsSnapshotAcrossCommit(t *testing.T) {
	d := newTestDataset(t, nil, 2, 512)
	sc, err := d.Scan(ScanOptions{
		ScanOptions:     core.ScanOptions{Columns: []string{"key"}},
		FileConcurrency: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	// Commit a delete and a compaction while sc is outstanding.
	live := deleteEveryOther(t, d)
	if _, err := d.Compact(0.9); err != nil {
		t.Fatal(err)
	}

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
	// The old snapshot predates the delete: all 1024 rows.
	checkKeys(t, keys, wantKeys(0, 1024))

	after, _ := scanKeys(t, d, ScanOptions{})
	checkKeys(t, after, live)
}
