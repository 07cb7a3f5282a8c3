package dataset

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"bullion/internal/core"
	"bullion/internal/enc"
	"bullion/internal/storage"
)

// fileCounter wraps a storage.Backend and records, per file name,
// how often it was opened for reading and how many bytes were written to
// it.
type fileCounter struct {
	storage.Backend
	mu      sync.Mutex
	opens   map[string]int
	written map[string]int64
}

func newFileCounter(t *testing.T, dir string) *fileCounter {
	t.Helper()
	local, err := storage.NewLocal(dir)
	if err != nil {
		t.Fatal(err)
	}
	return &fileCounter{Backend: local, opens: map[string]int{}, written: map[string]int64{}}
}

func (c *fileCounter) ReadAt(name string) (storage.File, int64, error) {
	c.mu.Lock()
	c.opens[name]++
	c.mu.Unlock()
	return c.Backend.ReadAt(name)
}

func (c *fileCounter) Create(name string) (storage.File, error) {
	f, err := c.Backend.Create(name)
	if err != nil {
		return nil, err
	}
	return &countedFile{File: f, c: c, name: name}, nil
}

type countedFile struct {
	storage.File
	c    *fileCounter
	name string
}

func (f *countedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.c.mu.Lock()
	f.c.written[f.name] += int64(n)
	f.c.mu.Unlock()
	return n, err
}

// opened sums the read opens of every file whose name has prefix.
func (c *fileCounter) opened(prefix string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for name, k := range c.opens {
		if strings.HasPrefix(name, prefix) {
			n += k
		}
	}
	return n
}

// reset forgets every count so far.
func (c *fileCounter) reset() {
	c.mu.Lock()
	c.opens, c.written = map[string]int{}, map[string]int64{}
	c.mu.Unlock()
}

// headBytes sums the bytes written to manifest heads (their temporaries
// included: a head is written once, under its temporary name).
func (c *fileCounter) headBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for name, k := range c.written {
		if strings.HasPrefix(name, "manifest-") {
			n += k
		}
	}
	return n
}

// wideDataset creates, through backend b, a one-member dataset of cols
// int64 columns c00000… holding rows rows, written with plain encodings
// (the subject is metadata, not the cascade).
func wideDataset(t *testing.T, dir string, b storage.Backend, cols, rows int) *Dataset {
	t.Helper()
	fields := make([]core.Field, cols)
	data := make([]core.ColumnData, cols)
	for c := range fields {
		fields[c] = core.Field{Name: fmt.Sprintf("c%05d", c), Type: core.Type{Kind: core.Int64}}
		vals := make(core.Int64Data, rows)
		for r := range vals {
			vals[r] = int64(r + c)
		}
		data[c] = vals
	}
	schema, err := core.NewSchema(fields...)
	if err != nil {
		t.Fatal(err)
	}
	w := core.DefaultOptions()
	w.Compliance = core.Level1
	w.Enc = &enc.Options{MaxDepth: 0, SampleSize: 64, Allowed: map[enc.SchemeID]bool{enc.Plain: true}}
	d, err := Create(dir, schema, &Options{Backend: b, Writer: w})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	batch, err := core.NewBatch(schema, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Append(batch); err != nil {
		t.Fatal(err)
	}
	return d
}

// drainScan runs a scan to its end and returns the rows it emitted.
func drainScan(t *testing.T, d *Dataset, opts ScanOptions) (int, ScanStats) {
	t.Helper()
	sc, err := d.Scan(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	rows := 0
	for {
		b, err := sc.Next()
		if err == io.EOF {
			return rows, sc.Stats()
		}
		if err != nil {
			t.Fatal(err)
		}
		rows += b.NumRows()
	}
}

// TestWideOpenReadsNoSidecar: on a 10,000-column dataset, Open plus an
// unfiltered 10-column scan reads the head, the schema file and the
// member — and no statistics sidecar.
func TestWideOpenReadsNoSidecar(t *testing.T) {
	dir := t.TempDir()
	cb := newFileCounter(t, dir)
	wideDataset(t, dir, cb, 10000, 8)
	cb.reset()

	d, err := Open(dir, &Options{Backend: cb})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var cols []string
	for c := 9990; c < 10000; c++ {
		cols = append(cols, fmt.Sprintf("c%05d", c))
	}
	rows, _ := drainScan(t, d, ScanOptions{ScanOptions: core.ScanOptions{Columns: cols}})
	if rows != 8 {
		t.Fatalf("scan emitted %d rows, want 8", rows)
	}
	if n := cb.opened("stats-"); n != 0 {
		t.Fatalf("an unfiltered scan read statistics sidecars %d times", n)
	}
	if n := cb.opened("schema-"); n != 1 {
		t.Fatalf("schema file read %d times, want 1", n)
	}
	if n := cb.opened("part-"); n != 1 {
		t.Fatalf("member opened %d times, want 1", n)
	}
}

// TestHeadSizeIndependentOfColumns: the head a Delete or a Tag commits is
// the same size at 10 columns and at 10,000 — up to the digits of the
// member's byte count, the one field that grows with the file.
func TestHeadSizeIndependentOfColumns(t *testing.T) {
	heads := func(cols int) (del, tag int64, memberBytes int64) {
		dir := t.TempDir()
		cb := newFileCounter(t, dir)
		d := wideDataset(t, dir, cb, cols, 256)
		memberBytes = d.Manifest().Files[0].Bytes
		cb.reset()
		if err := d.Delete(spanRows(10, 20)); err != nil {
			t.Fatal(err)
		}
		del = cb.headBytes()
		cb.reset()
		if err := d.Tag("snap", 0); err != nil {
			t.Fatal(err)
		}
		return del, cb.headBytes(), memberBytes
	}
	narrowDel, narrowTag, narrowBytes := heads(10)
	wideDel, wideTag, wideBytes := heads(10000)
	digits := int64(len(strconv.FormatInt(wideBytes, 10)) - len(strconv.FormatInt(narrowBytes, 10)))
	if narrowDel == 0 || narrowTag == 0 {
		t.Fatal("no head written")
	}
	if wideDel-narrowDel != digits || wideTag-narrowTag != digits {
		t.Fatalf("heads grow with columns: delete %d -> %d bytes, tag %d -> %d bytes (member size adds %d digits)",
			narrowDel, wideDel, narrowTag, wideTag, digits)
	}
}

// TestFilteredScanReadsSidecarsOnce: a filtered scan reads each member's
// sidecar at most once per handle however often it runs, and the members
// it prunes are never opened.
func TestFilteredScanReadsSidecarsOnce(t *testing.T) {
	dir := t.TempDir()
	cb := newFileCounter(t, dir)
	d, err := Create(dir, testSchema(t), &Options{Backend: cb})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const files, rows = 6, 100
	for i := 0; i < files; i++ {
		if err := d.Append(keyBatch(t, d.Schema(), i*rows, rows)); err != nil {
			t.Fatal(err)
		}
	}
	cb.reset()
	lo, hi := int64(250), int64(260) // inside member 2 only
	for run := 0; run < 3; run++ {
		keys, st := scanKeys(t, d, ScanOptions{ScanOptions: core.ScanOptions{
			Filters: []core.ColumnFilter{{Column: "key", Min: &lo, Max: &hi}},
		}})
		if st.FilesPruned != files-1 || len(keys) == 0 {
			t.Fatalf("run %d: %d members pruned, %d keys; want %d pruned", run, st.FilesPruned, len(keys), files-1)
		}
	}
	for i, e := range d.Manifest().Files {
		if n := cb.opens[e.Stats]; n != 1 {
			t.Fatalf("member %d: sidecar %s read %d times over three scans, want 1", i, e.Stats, n)
		}
		want := 0
		if i == 2 {
			want = 1 // the survivor; its handle is memoized
		}
		if n := cb.opens[e.Name]; n != want {
			t.Fatalf("member %d (%s) opened %d times, want %d", i, e.Name, n, want)
		}
	}
}

// TestFsckChecksSidecars: Fsck fails a member whose sidecar is missing;
// a deep Fsck also fails one whose sidecar holds another member's zones.
func TestFsckChecksSidecars(t *testing.T) {
	d := newTestDataset(t, nil, 2, 100)
	files := d.Manifest().Files
	checkFsckClean(t, d.dir)

	a, b := filepath.Join(d.dir, files[0].Stats), filepath.Join(d.dir, files[1].Stats)
	other, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(a, other, 0o644); err != nil {
		t.Fatal(err)
	}
	if rep, err := Fsck(d.dir, nil, false); err != nil || !rep.OK() {
		t.Fatalf("shallow fsck of a well-formed sidecar: %v %+v", err, rep)
	}
	rep, err := Fsck(d.dir, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || len(rep.Members[0].Errors) == 0 || len(rep.Members[1].Errors) != 0 {
		t.Fatalf("deep fsck missed a sidecar swapped for another member's: %+v", rep.Members)
	}

	if err := os.Remove(a); err != nil {
		t.Fatal(err)
	}
	if rep, err := Fsck(d.dir, nil, false); err != nil || rep.OK() {
		t.Fatalf("fsck passed with a sidecar missing: %v %+v", err, rep)
	}
}

// TestVacuumRetainsSidecars: Vacuum keeps the schema file and sidecars of
// tagged and of pinned generations, and reclaims sidecars nothing
// references once the tag and the pin are gone.
func TestVacuumRetainsSidecars(t *testing.T) {
	d := newTestDataset(t, nil, 3, 100)
	tagged := d.Manifest()
	if err := d.Tag("before", 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(spanRows(0, 50)); err != nil {
		t.Fatal(err)
	}
	pinned, err := OpenAt(d.dir, strconv.FormatUint(d.Generation(), 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	pinnedFiles := manifestFiles(pinned.Manifest())
	if err := d.Delete(spanRows(100, 150)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Compact(0.9); err != nil { // rewrites members 0 and 1
		t.Fatal(err)
	}
	orphan := filepath.Join(d.dir, "stats-999999-000.bln")
	if err := os.WriteFile(orphan, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Vacuum(); err != nil {
		t.Fatal(err)
	}
	have := listNames(t, d)
	for _, name := range append(manifestFiles(tagged), pinnedFiles...) {
		if !have[name] {
			t.Fatalf("vacuum reclaimed %s of a tagged or pinned generation", name)
		}
	}
	if have["stats-999999-000.bln"] {
		t.Fatal("vacuum kept an unreferenced sidecar")
	}
	sidecars := 0
	for _, name := range manifestFiles(tagged) {
		if kindOf(name) == sidecarFile {
			sidecars++
		}
	}
	if sidecars != 1+3 { // the schema file and one sidecar per member
		t.Fatalf("test setup: the tagged generation names %d schema and sidecar files, want 4", sidecars)
	}

	pinned.Close()
	if err := d.Untag("before"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Vacuum(); err != nil {
		t.Fatal(err)
	}
	have = listNames(t, d)
	live := map[string]bool{}
	for _, name := range manifestFiles(d.Manifest()) {
		live[name] = true
	}
	for name := range have {
		if kindOf(name) == sidecarFile && !live[name] {
			t.Fatalf("vacuum kept %s, which no generation references any more", name)
		}
	}
	for name := range live {
		if !have[name] {
			t.Fatalf("vacuum reclaimed live file %s", name)
		}
	}
	checkFsckClean(t, d.dir)
}

// legacyFixture copies the committed version-1 or version-2 dataset
// under testdata into a temporary directory and returns it.
func legacyFixture(t *testing.T, version int) string {
	t.Helper()
	dir := t.TempDir()
	src := filepath.Join("testdata", fmt.Sprintf("manifest_v%d", version))
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLegacyManifestCompat opens the committed version-1 and version-2
// datasets under testdata: each serves its rows, filters prune members
// through the inline zones — a uid range on both, and on version 2, whose
// zones also carry float bounds and blooms, a val range and a tag
// membership set — and a Delete publishes a version-3 head (schema file
// and sidecars written) after which the rescan, the sidecar-pruned
// filtered scans, the rendered zones and a deep Fsck agree with the
// original ones.
func TestLegacyManifestCompat(t *testing.T) {
	for _, version := range []int{1, 2} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			dir := legacyFixture(t, version)
			d, err := Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			if v := d.Manifest().Version; v != version {
				t.Fatalf("testdata manifest version %d, want %d", v, version)
			}
			// Both datasets hold uids [0,300) in three members, rows 10-19
			// of the first deleted (footer bits in v1, a bitmap in v2); val
			// is uid/2 and tag one of t00-t06.
			uids := func(t *testing.T, d *Dataset, opts ScanOptions) ([]int64, ScanStats) {
				t.Helper()
				opts.Columns = []string{"uid"}
				sc, err := d.Scan(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer sc.Close()
				var out []int64
				for {
					b, err := sc.Next()
					if err == io.EOF {
						return out, sc.Stats()
					}
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, b.Columns[0].(core.Int64Data)...)
				}
			}
			lo, hi := int64(150), int64(160)
			flo, fhi := 60.0, 70.0
			type filterCase struct {
				name   string
				filter core.ColumnFilter
				pruned int
				want   []int64 // the one surviving member, whole, or nothing
			}
			filtered := []filterCase{
				{"uid", core.ColumnFilter{Column: "uid", Min: &lo, Max: &hi}, 2, wantKeys(100, 200)},
			}
			if version == 2 {
				filtered = append(filtered,
					filterCase{"val", core.ColumnFilter{Column: "val", FloatMin: &flo, FloatMax: &fhi}, 2, wantKeys(100, 200)},
					filterCase{"tag", core.ColumnFilter{Column: "tag", ValueIn: [][]byte{[]byte("absent")}}, 3, nil},
				)
			}
			checkFiltered := func(t *testing.T, h *Dataset, source string) {
				t.Helper()
				for _, fc := range filtered {
					got, st := uids(t, h, ScanOptions{ScanOptions: core.ScanOptions{
						Filters: []core.ColumnFilter{fc.filter},
					}})
					if st.FilesPruned != fc.pruned {
						t.Fatalf("%s filter: %s pruned %d members, want %d", fc.name, source, st.FilesPruned, fc.pruned)
					}
					checkKeys(t, got, fc.want)
				}
			}
			want := append(wantKeys(0, 10), wantKeys(20, 300)...)
			got, _ := uids(t, d, ScanOptions{})
			checkKeys(t, got, want)
			checkFiltered(t, d, "inline zones")
			checkFsckClean(t, dir)
			before, err := d.ManifestWithZones()
			if err != nil {
				t.Fatal(err)
			}

			if err := d.Delete(spanRows(290, 300)); err != nil {
				t.Fatal(err)
			}
			m := d.Manifest()
			if m.Version != ManifestVersion || len(m.Schema) != 0 {
				t.Fatalf("delete published version %d with %d inline fields", m.Version, len(m.Schema))
			}
			for _, e := range m.Files {
				if e.Stats == "" || len(e.Columns) != 0 {
					t.Fatalf("member %s: statistics %q, %d inline zones after the upgrade", e.Name, e.Stats, len(e.Columns))
				}
			}
			want = append(wantKeys(0, 10), wantKeys(20, 290)...)
			for _, h := range []*Dataset{d, reopen(t, dir)} {
				got, _ = uids(t, h, ScanOptions{})
				checkKeys(t, got, want)
				checkFiltered(t, h, "sidecar zones")
				after, err := h.ManifestWithZones()
				if err != nil {
					t.Fatal(err)
				}
				for i := range after.Files {
					if b, a := before.Files[i].Columns, after.Files[i].Columns; !reflect.DeepEqual(b, a) {
						t.Fatalf("member %d: zones before the upgrade %+v, after %+v", i, b, a)
					}
				}
			}
			rep, err := Fsck(dir, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() || rep.LiveRows != uint64(len(want)) {
				t.Fatalf("deep fsck after the upgrade: ok %v, %d live rows (want %d): %+v",
					rep.OK(), rep.LiveRows, len(want), rep)
			}
		})
	}
}

// TestFsckChecksLegacyInlineZones: a deep Fsck checks a version 1-2
// entry's inline zones — the statistics its scans prune with until the
// upgrade commit — against the member's footer. Both fixtures pass; a
// copy with one member's uid max lowered fails on that member only, and
// a shallow Fsck, which reads no footer statistics, still passes it.
func TestFsckChecksLegacyInlineZones(t *testing.T) {
	for _, version := range []int{1, 2} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			dir := legacyFixture(t, version)
			checkFsckClean(t, dir)
			editCurrentManifest(t, dir, func(m *Manifest) {
				zones := m.Files[1].Columns
				for i := range zones {
					if zones[i].Name == "uid" {
						zones[i].Max -= 50
						return
					}
				}
				t.Fatal("fixture member 1 has no inline uid zone")
			})
			if rep, err := Fsck(dir, nil, false); err != nil || !rep.OK() {
				t.Fatalf("shallow fsck of lowered inline zones: %v %+v", err, rep)
			}
			rep, err := Fsck(dir, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			for i, fm := range rep.Members {
				if bad := len(fm.Errors) > 0; bad != (i == 1) {
					t.Fatalf("deep fsck with member 1's uid max lowered: member %d errors %v", i, fm.Errors)
				}
			}
		})
	}
}

// reopen opens a fresh handle on dir, closed with the test.
func reopen(t *testing.T, dir string) *Dataset {
	t.Helper()
	d, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// FuzzManifestDecode feeds the same bytes to the three manifest decoders —
// head, schema file and statistics sidecar — and every accessor a reader
// calls on what they accept. None may panic, and none may allocate more
// than a fixed multiple of the input.
func FuzzManifestDecode(f *testing.F) {
	dir := f.TempDir()
	schema, err := core.NewSchema(
		core.Field{Name: "uid", Type: core.Type{Kind: core.Int64}},
		core.Field{Name: "val", Type: core.Type{Kind: core.Float64}},
		core.Field{Name: "tag", Type: core.Type{Kind: core.String}},
	)
	if err != nil {
		f.Fatal(err)
	}
	d, err := Create(dir, schema, nil)
	if err != nil {
		f.Fatal(err)
	}
	uid, val, tag := core.Int64Data{1, 2, 3}, core.Float64Data{0.5, 1, 1.5}, core.BytesData{[]byte("a"), []byte("b"), []byte("c")}
	batch, err := core.NewBatch(schema, []core.ColumnData{uid, val, tag})
	if err != nil {
		f.Fatal(err)
	}
	if err := d.Append(batch); err != nil {
		f.Fatal(err)
	}
	if err := d.Delete([]uint64{1}); err != nil {
		f.Fatal(err)
	}
	m := d.Manifest()
	for _, name := range []string{manifestName(m.Generation), schemaName(m.SchemaFP), m.Files[0].Stats} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	d.Close()
	if legacy, err := os.ReadFile(filepath.Join("testdata", "manifest_v2", "manifest-000005.json")); err == nil {
		f.Add(legacy)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)

		if m, err := parseManifest("manifest-000001.json", data); err == nil {
			_ = manifestFiles(m)
		}
		if ftr, err := core.ParseFooterBytes(data); err == nil {
			if sf, err := parseSchemaFile(data, ftr.Fingerprint()); err == nil {
				_, _ = sf.field("uid")
				_, _ = sf.field("missing")
				_ = sf.schema().Fingerprint()
			}
		}
		if st, err := parseStats("stats-000001-000.bln", data); err == nil {
			lo := int64(0)
			_ = st.Excludes(core.PrepareFileFilters([]core.ColumnFilter{
				{Column: "uid", Min: &lo},
				{Column: "tag", ValueIn: [][]byte{[]byte("t0001")}},
			}))
			_ = allZones(st.View())
		}

		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(data))+1<<16 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
	})
}
