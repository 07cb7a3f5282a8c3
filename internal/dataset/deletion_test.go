package dataset

import (
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bullion/internal/core"
	"bullion/internal/storage"
)

// memberHashes returns the SHA-256 of every part file in dir, by name.
func memberHashes(t *testing.T, dir string) map[string][32]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][32]byte{}
	for _, ent := range ents {
		if !strings.HasPrefix(ent.Name(), "part-") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[ent.Name()] = sha256.Sum256(data)
	}
	return out
}

// checkSameMembers fails unless after holds exactly the files of before,
// byte for byte.
func checkSameMembers(t *testing.T, before, after map[string][32]byte) {
	t.Helper()
	if len(after) != len(before) {
		t.Fatalf("%d part files, want the %d there were", len(after), len(before))
	}
	for name, h := range before {
		if after[name] != h {
			t.Fatalf("member %s changed on disk", name)
		}
	}
}

// editCurrentManifest rewrites the dataset's current manifest file in
// place after edit has changed it.
func editCurrentManifest(t *testing.T, dir string, edit func(m *Manifest)) {
	t.Helper()
	b, err := storage.NewLocal(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := loadManifest(b)
	if err != nil {
		t.Fatal(err)
	}
	edit(m)
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName(m.Generation)), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// legacyShape rewrites m, a manifest this package committed, in the
// version 1-2 shape: the schema and every member's zones inline, no
// schema file or statistics sidecar named.
func legacyShape(t *testing.T, dir string, m *Manifest, version int) {
	t.Helper()
	b, err := storage.NewLocal(dir)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := readSchemaFile(b, m.SchemaFP)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range sf.schema().Fields {
		m.Schema = append(m.Schema, FieldDef{Name: f.Name, Kind: uint8(f.Type.Kind), Elem: uint8(f.Type.Elem),
			Quant: uint8(f.Type.Quant), Sparse: f.Sparse, Nullable: f.Nullable})
	}
	for i := range m.Files {
		e := &m.Files[i]
		if e.Stats == "" {
			continue
		}
		st, err := memberStats(b, e)
		if err != nil {
			t.Fatal(err)
		}
		e.Columns, e.Stats = allZones(st.View()), ""
	}
	m.Version = version
}

// checkFsckClean runs a deep Fsck and fails on any error or warning.
func checkFsckClean(t *testing.T, dir string) {
	t.Helper()
	rep, err := Fsck(dir, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || len(rep.Warnings) > 0 {
		t.Fatalf("fsck not clean: errors=%v warnings=%v members=%+v", rep.Errors, rep.Warnings, rep.Members)
	}
}

// TestDeleteLeavesMembersByteIdentical: a Delete writes a manifest and
// nothing else — every member file hashes the same before and after, and
// the deletion lives in the entries' bitmaps.
func TestDeleteLeavesMembersByteIdentical(t *testing.T) {
	d := newTestDataset(t, nil, 3, 1000)
	before := memberHashes(t, d.dir)
	// Across a member boundary, then again into a member that already
	// has a bitmap.
	if err := d.Delete(spanRows(900, 1100)); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(append(spanRows(0, 10), 2999)); err != nil {
		t.Fatal(err)
	}
	checkSameMembers(t, before, memberHashes(t, d.dir))

	m := d.Manifest()
	for i, want := range []uint64{110, 100, 1} {
		e := m.Files[i]
		if got := deletedCount(e.DeletionVec); got != want || e.LiveRows != e.Rows-want {
			t.Fatalf("member %d: bitmap marks %d rows, live %d; want %d marked", i, got, e.LiveRows, want)
		}
	}
	keys, _ := scanKeys(t, d, ScanOptions{})
	checkKeys(t, keys, append(wantKeys(10, 900), wantKeys(1100, 2999)...))
	checkFsckClean(t, d.dir)
}

// TestLegacyFooterDeletions builds what earlier releases left on disk — a
// version-1 manifest whose members carry their deletions as footer bits,
// written in place by core.File.DeleteRows — and drives it through the
// whole lifecycle: open, scan, a further Delete (the touched legacy entry
// seeds its bitmap from its footer), Compact, deep Fsck.
func TestLegacyFooterDeletions(t *testing.T) {
	dir := buildLocalDataset(t, 3, 500) // member i holds keys [500i, 500i+500)
	legacy := map[int][]uint64{0: spanRows(0, 100), 1: spanRows(250, 260)}
	editCurrentManifest(t, dir, func(m *Manifest) {
		legacyShape(t, dir, m, 1)
		for i, rows := range legacy {
			e := &m.Files[i]
			osf, err := os.OpenFile(filepath.Join(dir, e.Name), os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			f, err := core.Open(osf, e.Bytes)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.DeleteRows(osf, rows); err != nil {
				t.Fatal(err)
			}
			if err := osf.Close(); err != nil {
				t.Fatal(err)
			}
			e.LiveRows = f.NumLiveRows()
		}
	})

	d, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if v := d.Manifest().Version; v != 1 {
		t.Fatalf("test setup: manifest version %d, want 1", v)
	}
	want := append(append(wantKeys(100, 750), wantKeys(760, 1000)...), wantKeys(1000, 1500)...)
	keys, _ := scanKeys(t, d, ScanOptions{})
	checkKeys(t, keys, want)
	checkFsckClean(t, dir)

	// Rows 100-149 of the legacy member (global 100-149) and 1000-1009 of
	// a clean one. The legacy member's bitmap must include its footer bits.
	before := memberHashes(t, dir)
	if err := d.Delete(append(spanRows(100, 150), spanRows(1000, 1010)...)); err != nil {
		t.Fatal(err)
	}
	checkSameMembers(t, before, memberHashes(t, dir))
	m := d.Manifest()
	if m.Version != ManifestVersion {
		t.Fatalf("commit wrote manifest version %d, want %d", m.Version, ManifestVersion)
	}
	if got := deletedCount(m.Files[0].DeletionVec); got != 150 || m.Files[0].LiveRows != 350 {
		t.Fatalf("seeded legacy member: bitmap marks %d, live %d; want 150, 350", got, m.Files[0].LiveRows)
	}
	if m.Files[1].DeletionVec != nil || m.Files[1].LiveRows != 490 {
		t.Fatalf("untouched legacy member changed: %+v", m.Files[1])
	}
	want = append(append(wantKeys(150, 750), wantKeys(760, 1000)...), wantKeys(1010, 1500)...)
	keys, _ = scanKeys(t, d, ScanOptions{})
	checkKeys(t, keys, want)
	checkFsckClean(t, dir)

	st, err := d.Compact(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if st.FilesCompacted != 3 || st.RowsReclaimed != 170 {
		t.Fatalf("compact = %+v, want 3 files, 170 rows reclaimed", st)
	}
	if _, err := d.Vacuum(); err != nil {
		t.Fatal(err)
	}
	checkFsckClean(t, dir)
	d2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	keys, _ = scanKeys(t, d2, ScanOptions{})
	checkKeys(t, keys, want)
}

// TestFsckLiveRowsExact: a self-consistent manifest whose live-row count
// disagrees with what its member holds — rows the entry says are deleted
// that no bitmap or footer marks, or footer bits the entry does not
// count — is a member error, not a warning.
func TestFsckLiveRowsExact(t *testing.T) {
	for _, tc := range []struct {
		name   string
		footer []uint64 // rows deleted in place in the member's footer
		live   uint64   // the entry's LiveRows (no bitmap)
	}{
		{"entry counts deletes nothing marks", nil, 495},
		{"footer bits the entry does not count", spanRows(0, 5), 500},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := buildLocalDataset(t, 2, 500)
			editCurrentManifest(t, dir, func(m *Manifest) {
				e := &m.Files[1]
				if tc.footer != nil {
					osf, err := os.OpenFile(filepath.Join(dir, e.Name), os.O_RDWR, 0)
					if err != nil {
						t.Fatal(err)
					}
					defer osf.Close()
					f, err := core.Open(osf, e.Bytes)
					if err != nil {
						t.Fatal(err)
					}
					if err := f.DeleteRows(osf, tc.footer); err != nil {
						t.Fatal(err)
					}
				}
				e.LiveRows = tc.live
			})
			rep, err := Fsck(dir, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			if rep.OK() || len(rep.Members) != 2 || len(rep.Members[1].Errors) != 1 ||
				!strings.Contains(rep.Members[1].Errors[0], "live rows") {
				t.Fatalf("fsck = errors %v, members %+v; want one live-rows error on member 1", rep.Errors, rep.Members)
			}
		})
	}
}

// TestManifestRejectsBadDeletionBitmaps: a manifest whose row accounting
// is malformed fails to load — Open errors, Fsck reports it — and never
// panics.
func TestManifestRejectsBadDeletionBitmaps(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(e *FileEntry) // applied to the second of two 500-row members
		want    string
	}{
		{"bitmap longer than the rows", func(e *FileEntry) {
			e.DeletionVec = make([]uint64, 9) // 500 rows need 8 words
		}, "9 words"},
		{"bits past the last row", func(e *FileEntry) {
			e.DeletionVec = make([]uint64, 8)
			e.DeletionVec[7] = 1 << 60 // word 7 holds rows 448-499 in bits 0-51
			e.LiveRows = e.Rows - 1
		}, "past its last row"},
		{"live rows disagree with the bitmap", func(e *FileEntry) {
			e.DeletionVec = []uint64{0b111}
			e.LiveRows = e.Rows - 2
		}, "bitmap leaves 497"},
		{"more live rows than rows", func(e *FileEntry) {
			e.LiveRows = e.Rows + 1
		}, "501 live of 500 rows"},
		{"row count overflows", func(e *FileEntry) {
			e.Rows = math.MaxUint64
		}, "overflows"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := buildLocalDataset(t, 2, 500)
			editCurrentManifest(t, dir, func(m *Manifest) { tc.corrupt(&m.Files[1]) })
			if _, err := Open(dir, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open = %v, want an error mentioning %q", err, tc.want)
			}
			rep, err := Fsck(dir, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			if rep.OK() || len(rep.Errors) != 1 || !strings.Contains(rep.Errors[0], tc.want) {
				t.Fatalf("fsck errors = %v, want one mentioning %q", rep.Errors, tc.want)
			}
		})
	}
}
