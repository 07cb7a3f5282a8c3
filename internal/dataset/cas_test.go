package dataset

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"bullion/internal/core"
	"bullion/internal/storage"
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

// createHook wraps a backend and runs hook once, right after the first
// Create it serves.
type createHook struct {
	storage.Backend
	once sync.Once
	hook func()
}

func (b *createHook) Create(name string) (storage.File, error) {
	f, err := b.Backend.Create(name)
	if err == nil && b.hook != nil {
		b.once.Do(b.hook)
	}
	return f, err
}

// TestConcurrentCompactsStageApart races two handles compacting the same
// generation with different writer options, so their rewrites differ
// byte for byte: d2's whole Compact runs right after d1 created its first
// staged member. d1 must lose the CAS cleanly, and d2's committed member
// must be exactly the bytes d2 wrote — staged names are unique per
// handle, so d1 never wrote into the file d2 published.
func TestConcurrentCompactsStageApart(t *testing.T) {
	dir := t.TempDir()
	d0, err := Create(dir, testSchema(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d0.Append(keyBatch(t, d0.Schema(), 0, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := d0.Delete(spanRows(0, 500)); err != nil {
		t.Fatal(err)
	}
	d0.Close()

	// Two fresh handles: each stages its first file with the same
	// per-handle sequence number.
	d2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	local, err := storage.NewLocal(dir)
	if err != nil {
		t.Fatal(err)
	}
	hb := &createHook{Backend: local}
	wopts := core.DefaultOptions()
	wopts.Compliance = core.Level1
	wopts.RowsPerPage = 16
	d1, err := Open(dir, &Options{Backend: hb, Writer: wopts})
	if err != nil {
		t.Fatal(err)
	}
	defer d1.Close()
	hb.hook = func() {
		if _, err := d2.Compact(0.9); err != nil {
			t.Errorf("interleaved compact: %v", err)
		}
	}

	if _, err := d1.Compact(0.9); !errors.Is(err, ErrGenerationConflict) {
		t.Fatalf("stale compact = %v, want ErrGenerationConflict", err)
	}
	rep, err := Fsck(dir, nil, true)
	if err != nil || !rep.OK() {
		t.Fatalf("fsck after racing compacts: %v, errors=%v members=%+v", err, rep.Errors, rep.Members)
	}
	if len(rep.OrphanTmps) != 0 {
		t.Fatalf("losing compact left its staged file behind: %v", rep.OrphanTmps)
	}
	reopened, err := Open(dir, &Options{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	keys, err := scanKeyVals(reopened)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyLiveKeys(keys, wantKeys(500, 1000)); err != nil {
		t.Fatal(err)
	}
}
