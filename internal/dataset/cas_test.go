package dataset

import (
	"errors"
	"strings"
	"testing"
)

// TestConcurrentCommitCAS races two handles of the same directory
// through interleaved ShardedWriter commits: exactly one wins, the loser
// fails with ErrGenerationConflict, its part files are cleaned up, and
// the surviving dataset is exactly the winner's.
func TestConcurrentCommitCAS(t *testing.T) {
	dir := t.TempDir()
	d1, err := Create(dir, testSchema(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d1.Close()
	d2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()

	// Both handles observe generation 1 and start a bulk load.
	sw1, err := d1.ShardedWriter(1)
	if err != nil {
		t.Fatal(err)
	}
	sw2, err := d2.ShardedWriter(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw1.Write(keyBatch(t, d1.Schema(), 0, 100)); err != nil {
		t.Fatal(err)
	}
	if err := sw2.Write(keyBatch(t, d2.Schema(), 1000, 100)); err != nil {
		t.Fatal(err)
	}

	if err := sw1.Close(); err != nil {
		t.Fatalf("first committer must win: %v", err)
	}
	err = sw2.Close()
	if !errors.Is(err, ErrGenerationConflict) {
		t.Fatalf("second committer = %v, want ErrGenerationConflict", err)
	}

	// The loser's files are gone; the winner's data is intact.
	reopened, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if g := reopened.Generation(); g != 2 {
		t.Fatalf("generation = %d, want the winner's 2", g)
	}
	keys, err := scanKeyVals(reopened)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyLiveKeys(keys, wantKeys(0, 100)); err != nil {
		t.Fatalf("surviving rows are not the winner's: %v", err)
	}
	names, err := reopened.backend.List()
	if err != nil {
		t.Fatal(err)
	}
	referenced := map[string]bool{}
	for _, e := range reopened.Manifest().Files {
		referenced[e.Name] = true
	}
	for _, n := range names {
		if strings.HasPrefix(n, "part-") && !referenced[n] {
			t.Fatalf("loser left part file %s behind", n)
		}
		if strings.Contains(n, ".tmp") {
			t.Fatalf("loser left temporary %s behind", n)
		}
	}

	// The losing handle recovers by reopening; a retry then lands.
	d3, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if err := d3.Append(keyBatch(t, d3.Schema(), 1000, 100)); err != nil {
		t.Fatalf("retry after conflict: %v", err)
	}
	keys, err = scanKeyVals(d3)
	if err != nil {
		t.Fatal(err)
	}
	want := append(wantKeys(0, 100), wantKeys(1000, 1100)...)
	if err := verifyLiveKeys(keys, want); err != nil {
		t.Fatal(err)
	}
}

// TestCompactLosesCASToWriter interleaves a Compact with a concurrent
// append commit from a second handle: the compact must fail with a clean
// generation conflict, remove its rewritten files, and leave both
// handles' committed data untouched.
func TestCompactLosesCASToWriter(t *testing.T) {
	dir := t.TempDir()
	d1, err := Create(dir, testSchema(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d1.Close()
	if err := d1.Append(keyBatch(t, d1.Schema(), 0, 100)); err != nil {
		t.Fatal(err)
	}
	if err := d1.Delete(spanRows(0, 50)); err != nil {
		t.Fatal(err)
	}

	// A second handle commits between d1's delete and its compact.
	d2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if err := d2.Append(keyBatch(t, d2.Schema(), 500, 100)); err != nil {
		t.Fatal(err)
	}

	_, err = d1.Compact(0.999)
	if !errors.Is(err, ErrGenerationConflict) {
		t.Fatalf("stale compact = %v, want ErrGenerationConflict", err)
	}

	reopened, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	keys, err := scanKeyVals(reopened)
	if err != nil {
		t.Fatal(err)
	}
	want := append(wantKeys(50, 100), wantKeys(500, 600)...)
	if err := verifyLiveKeys(keys, want); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(dir, nil, false)
	if err != nil || !rep.OK() {
		t.Fatalf("fsck after lost compact: %v, errors=%v", err, rep.Errors)
	}
	if len(rep.OrphanParts) != 0 {
		t.Fatalf("lost compact left rewritten files behind: %v", rep.OrphanParts)
	}
}
