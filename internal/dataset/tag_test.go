package dataset

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"bullion/internal/core"
)

// listNames returns the backend's directory listing as a set.
func listNames(t *testing.T, d *Dataset) map[string]bool {
	t.Helper()
	names, err := d.backend.List()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool, len(names))
	for _, n := range names {
		out[n] = true
	}
	return out
}

func TestTagLifecycle(t *testing.T) {
	d := newTestDataset(t, nil, 2, 500)
	tagged := d.Generation()
	if err := d.Tag("v1", 0); err != nil {
		t.Fatal(err)
	}
	if got := d.Generation(); got != tagged+1 {
		t.Fatalf("Tag bumped generation to %d, want %d (tags ride commits)", got, tagged+1)
	}
	if got := d.Tags()["v1"]; got != tagged {
		t.Fatalf("Tags()[v1] = %d, want %d", got, tagged)
	}
	if err := d.Append(keyBatch(t, d.Schema(), 1000, 100)); err != nil {
		t.Fatal(err)
	}

	// The tag resolves to a read-only snapshot of the tagged generation:
	// the post-tag append is invisible through it.
	snap, err := OpenAt(d.dir, "v1", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if got := snap.Generation(); got != tagged {
		t.Fatalf("OpenAt(v1) generation = %d, want %d", got, tagged)
	}
	keys, _ := scanKeys(t, snap, ScanOptions{})
	checkKeys(t, keys, wantKeys(0, 1000))

	// Numeric refs name generations directly.
	byGen, err := OpenAt(d.dir, fmt.Sprint(tagged), nil)
	if err != nil {
		t.Fatal(err)
	}
	byGen.Close()
	if _, err := OpenAt(d.dir, "nope", nil); !errors.Is(err, ErrNoSuchTag) {
		t.Fatalf("OpenAt(nope) = %v, want ErrNoSuchTag", err)
	}

	// Tags reassign and remove; removing a missing tag reports it.
	if err := d.Tag("v1", 0); err != nil {
		t.Fatal(err)
	}
	if got, cur := d.Tags()["v1"], d.Generation()-1; got != cur {
		t.Fatalf("retag pinned %d, want %d", got, cur)
	}
	if err := d.Untag("v1"); err != nil {
		t.Fatal(err)
	}
	if err := d.Untag("v1"); !errors.Is(err, ErrNoSuchTag) {
		t.Fatalf("double Untag = %v, want ErrNoSuchTag", err)
	}
}

func TestTagValidation(t *testing.T) {
	d := newTestDataset(t, nil, 1, 100)
	for _, name := range []string{"", "123", "has space", "a/b", "x\\y", string(make([]byte, 200))} {
		if err := d.Tag(name, 0); err == nil {
			t.Fatalf("Tag(%q) accepted an invalid name", name)
		}
	}
	if err := d.Tag("future", d.Generation()+5); err == nil {
		t.Fatal("Tag of a future generation accepted")
	}
	// A generation Vacuum already reclaimed cannot be tagged back to life.
	if _, err := d.Vacuum(); err != nil {
		t.Fatal(err)
	}
	if err := d.Tag("gone", 1); err == nil {
		t.Fatal("Tag of a vacuumed generation accepted")
	}
}

func TestSnapshotHandlesAreReadOnly(t *testing.T) {
	d := newTestDataset(t, nil, 1, 200)
	if err := d.Tag("ro", 0); err != nil {
		t.Fatal(err)
	}
	snap, err := OpenAt(d.dir, "ro", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if err := snap.Append(keyBatch(t, snap.Schema(), 500, 10)); !errors.Is(err, ErrSnapshotReadOnly) {
		t.Fatalf("Append on snapshot = %v, want ErrSnapshotReadOnly", err)
	}
	if err := snap.Delete([]uint64{0}); !errors.Is(err, ErrSnapshotReadOnly) {
		t.Fatalf("Delete on snapshot = %v, want ErrSnapshotReadOnly", err)
	}
	if _, err := snap.Compact(0.9); !errors.Is(err, ErrSnapshotReadOnly) {
		t.Fatalf("Compact on snapshot = %v, want ErrSnapshotReadOnly", err)
	}
	if _, err := snap.Vacuum(); !errors.Is(err, ErrSnapshotReadOnly) {
		t.Fatalf("Vacuum on snapshot = %v, want ErrSnapshotReadOnly", err)
	}
	if err := snap.Tag("t2", 0); !errors.Is(err, ErrSnapshotReadOnly) {
		t.Fatalf("Tag on snapshot = %v, want ErrSnapshotReadOnly", err)
	}
	if err := snap.Untag("ro"); !errors.Is(err, ErrSnapshotReadOnly) {
		t.Fatalf("Untag on snapshot = %v, want ErrSnapshotReadOnly", err)
	}
}

// TestVacuumRetainsTaggedGenerations is the Vacuum bugfix pinned: a
// tagged generation's manifest and exclusive members survive reclamation
// (and keep serving reads), until the tag is removed.
func TestVacuumRetainsTaggedGenerations(t *testing.T) {
	d := newTestDataset(t, nil, 2, 500)
	tagged := d.Generation()
	taggedFiles := manifestFiles(d.Manifest())
	if err := d.Tag("keep", 0); err != nil {
		t.Fatal(err)
	}
	// Delete half of member 1 and compact: the tagged generation's first
	// member is superseded by a rewrite — exactly what the old Vacuum
	// would have deleted out from under the tag.
	del := make([]uint64, 250)
	for i := range del {
		del[i] = uint64(i)
	}
	if err := d.Delete(del); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Compact(0.9); err != nil {
		t.Fatal(err)
	}

	rep, err := d.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RetainedGenerations) != 1 || rep.RetainedGenerations[0] != tagged {
		t.Fatalf("RetainedGenerations = %v, want [%d]", rep.RetainedGenerations, tagged)
	}
	if len(rep.RetainedFiles) == 0 {
		t.Fatalf("vacuum retained no files for the tagged generation: %+v", rep)
	}
	have := listNames(t, d)
	for _, name := range taggedFiles {
		if !have[name] {
			t.Fatalf("vacuum removed %s, which tag %q retains", name, "keep")
		}
	}

	// The snapshot still serves, frozen: the later Delete only changed
	// later manifests, and the compaction wrote a new file, so the tagged
	// generation reads all 1,000 rows it had.
	snap, err := OpenAt(d.dir, "keep", nil)
	if err != nil {
		t.Fatal(err)
	}
	keys, _ := scanKeys(t, snap, ScanOptions{})
	checkKeys(t, keys, wantKeys(0, 1000))
	snap.Close()

	// Untagged, the generation is garbage again.
	if err := d.Untag("keep"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Vacuum(); err != nil {
		t.Fatal(err)
	}
	have = listNames(t, d)
	if have[manifestName(tagged)] {
		t.Fatalf("untagged generation %d's manifest survived vacuum", tagged)
	}
	if _, err := OpenAt(d.dir, fmt.Sprint(tagged), nil); err == nil {
		t.Fatal("OpenAt of a vacuumed generation succeeded")
	}
}

// TestVacuumRetainsLiveScannerGeneration: a scanner still serving a
// superseded generation pins it — Vacuum must not delete the files the
// scan is reading (the other half of the bugfix: the old contract was a
// doc comment).
func TestVacuumRetainsLiveScannerGeneration(t *testing.T) {
	d := newTestDataset(t, nil, 2, 500)
	scanned := d.Generation()
	sc, err := d.Scan(ScanOptions{ScanOptions: scanColumns("key")})
	if err != nil {
		t.Fatal(err)
	}
	// Supersede the scanned generation's first member while the scan is
	// live.
	del := make([]uint64, 250)
	for i := range del {
		del[i] = uint64(i)
	}
	if err := d.Delete(del); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Compact(0.9); err != nil {
		t.Fatal(err)
	}
	rep, err := d.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, g := range rep.RetainedGenerations {
		if g == scanned {
			found = true
		}
	}
	if !found {
		t.Fatalf("vacuum did not retain generation %d under a live scanner: %+v", scanned, rep)
	}

	// The scanner drains its snapshot untouched: the delete and the
	// compaction committed later generations without writing its members.
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
	checkKeys(t, keys, wantKeys(0, 1000))
	sc.Close()

	// Pin released with the scanner: the next vacuum reclaims.
	if _, err := d.Vacuum(); err != nil {
		t.Fatal(err)
	}
	if have := listNames(t, d); have[manifestName(scanned)] {
		t.Fatalf("generation %d's manifest survived vacuum after its scanner closed", scanned)
	}
}

// TestFsckRetainedGenerations is the Fsck bugfix pinned: tagged
// generations classify as referenced (not orphans), get shallow-verified,
// and a missing retained member is an integrity error.
func TestFsckRetainedGenerations(t *testing.T) {
	d := newTestDataset(t, nil, 2, 500)
	tagged := d.Generation()
	taggedFiles := manifestFiles(d.Manifest())
	if err := d.Tag("epoch-0", 0); err != nil {
		t.Fatal(err)
	}
	del := make([]uint64, 250)
	for i := range del {
		del[i] = uint64(i)
	}
	if err := d.Delete(del); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Compact(0.9); err != nil {
		t.Fatal(err)
	}

	report, err := Fsck(d.dir, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("fsck not OK: %+v", report)
	}
	if report.Tags["epoch-0"] != tagged {
		t.Fatalf("report.Tags = %v, want epoch-0 -> %d", report.Tags, tagged)
	}
	if len(report.Retained) != 1 || report.Retained[0].Generation != tagged {
		t.Fatalf("report.Retained = %+v, want generation %d", report.Retained, tagged)
	}
	rg := report.Retained[0]
	if rg.Files != 2 || rg.Rows != 1000 || len(rg.Missing) != 0 {
		t.Fatalf("retained entry = %+v, want 2 files, 1000 rows, none missing", rg)
	}
	// None of the tagged generation's files may be classified as orphans
	// (the old bug: -repair would have vacuumed them).
	orphans := map[string]bool{}
	for _, n := range append(report.OrphanParts, report.OrphanManifests...) {
		orphans[n] = true
	}
	for _, name := range taggedFiles {
		if orphans[name] {
			t.Fatalf("fsck classified retained file %s as an orphan", name)
		}
	}

	// Deleting a retained-only member is now an integrity error.
	removedAny := false
	cur := map[string]bool{currentName: true}
	for _, name := range manifestFiles(d.Manifest()) {
		cur[name] = true
	}
	for _, name := range taggedFiles {
		if !cur[name] && name != manifestName(tagged) {
			if err := d.backend.Remove(name); err != nil {
				t.Fatal(err)
			}
			removedAny = true
		}
	}
	if !removedAny {
		t.Fatal("test setup: tagged generation has no exclusive member")
	}
	report, err = Fsck(d.dir, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if report.OK() {
		t.Fatal("fsck passed with a retained generation's member missing")
	}
	if len(report.Retained) != 1 || len(report.Retained[0].Missing) == 0 {
		t.Fatalf("report.Retained = %+v, want missing members listed", report.Retained)
	}
}

// scanColumns is a small helper building core scan options projecting
// the given columns.
func scanColumns(cols ...string) core.ScanOptions {
	return core.ScanOptions{Columns: cols}
}
