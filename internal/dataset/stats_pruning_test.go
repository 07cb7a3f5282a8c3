package dataset

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"bullion/internal/core"
	"bullion/internal/storage"
)

// memberOpenCounter wraps a storage.Backend and counts ReadAt opens of
// member files (part-/ingest- names). Manifest and CURRENT reads — the
// commit protocol re-reads CURRENT for its generation CAS — are not
// member reopens and don't count.
type memberOpenCounter struct {
	storage.Backend
	mu    sync.Mutex
	opens int
}

func (c *memberOpenCounter) ReadAt(name string) (storage.File, int64, error) {
	if strings.HasPrefix(name, "part-") || strings.HasPrefix(name, "ingest-") {
		c.mu.Lock()
		c.opens++
		c.mu.Unlock()
	}
	return c.Backend.ReadAt(name)
}

func (c *memberOpenCounter) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.opens
}

// prunableDataset builds an 8-member dataset where member i holds float
// values in [i*100, i*100+100) and string tags "file-i-*" — every member
// is provably disjoint from the others in both the float and the string
// domain, so a selective filter should prune 7 of 8 files from the
// manifest alone.
func prunableDataset(t *testing.T, opts *Options) *Dataset {
	t.Helper()
	schema, err := core.NewSchema(
		core.Field{Name: "fval", Type: core.Type{Kind: core.Float64}},
		core.Field{Name: "tag", Type: core.Type{Kind: core.String}},
	)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Create(t.TempDir(), schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	const rows = 500
	for i := 0; i < 8; i++ {
		fv := make(core.Float64Data, rows)
		tg := make(core.BytesData, rows)
		for r := 0; r < rows; r++ {
			fv[r] = float64(i*100) + float64(r)/5
			tg[r] = []byte(fmt.Sprintf("file-%d-%d", i, r%50))
		}
		b, err := core.NewBatch(schema, []core.ColumnData{fv, tg})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestDatasetFloatAndBloomPruning is the acceptance pin for manifest-only
// pruning: a float-range filter and a string-membership filter each prune
// 7 of the 8 member files, and the pruned members are never opened.
func TestDatasetFloatAndBloomPruning(t *testing.T) {
	var mu sync.Mutex
	opened := map[string]bool{}
	d := prunableDataset(t, &Options{WrapReader: func(name string, r io.ReaderAt, size int64) io.ReaderAt {
		mu.Lock()
		opened[name] = true
		mu.Unlock()
		return r
	}})

	drain := func(opts ScanOptions) (int, ScanStats) {
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
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			rows += b.NumRows()
		}
		return rows, sc.Stats()
	}

	// Float range entirely inside member 5's [500, 600) value band.
	lo, hi := 510.0, 550.0
	rows, stats := drain(ScanOptions{ScanOptions: core.ScanOptions{
		Filters: []core.ColumnFilter{{Column: "fval", FloatMin: &lo, FloatMax: &hi}},
	}})
	if stats.FilesPruned != 7 || stats.FilesPlanned != 1 {
		t.Fatalf("float filter: %d pruned / %d planned, want 7/1", stats.FilesPruned, stats.FilesPlanned)
	}
	if rows == 0 || rows > 500 {
		t.Fatalf("float filter emitted %d rows", rows)
	}
	mu.Lock()
	if len(opened) != 1 {
		t.Fatalf("float filter opened %d member files (%v), want 1", len(opened), opened)
	}
	opened = map[string]bool{}
	mu.Unlock()

	// String membership hitting only member 3's tag universe.
	rows, stats = drain(ScanOptions{ScanOptions: core.ScanOptions{
		Filters: []core.ColumnFilter{{Column: "tag", ValueIn: [][]byte{[]byte("file-3-7")}}},
	}})
	if stats.FilesPruned != 7 || stats.FilesPlanned != 1 {
		t.Fatalf("bloom filter: %d pruned / %d planned, want 7/1", stats.FilesPruned, stats.FilesPlanned)
	}
	if rows == 0 || rows > 500 {
		t.Fatalf("bloom filter emitted %d rows", rows)
	}
	mu.Lock()
	if len(opened) != 1 {
		t.Fatalf("bloom filter opened %d member files (%v), want 1", len(opened), opened)
	}
	mu.Unlock()

	// A membership value present nowhere prunes everything.
	_, stats = drain(ScanOptions{ScanOptions: core.ScanOptions{
		Filters: []core.ColumnFilter{{Column: "tag", ValueIn: [][]byte{[]byte("absent-everywhere")}}},
	}})
	if stats.FilesPruned != 8 || stats.FilesPlanned != 0 {
		t.Fatalf("absent value: %d pruned / %d planned, want 8/0", stats.FilesPruned, stats.FilesPlanned)
	}
}

// TestShardedWriterNeverReopensShards pins the writer-side stats
// piggyback: between the first Write and the manifest commit, a shard
// file is opened exactly zero times — the manifest entries come from the
// writers' own WrittenStats.
func TestShardedWriterNeverReopensShards(t *testing.T) {
	dir := t.TempDir()
	local, err := storage.NewLocal(dir)
	if err != nil {
		t.Fatal(err)
	}
	counter := &memberOpenCounter{Backend: local}
	d, err := Create(dir, testSchema(t), &Options{Backend: counter})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	sw, err := d.ShardedWriter(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := sw.Write(keyBatch(t, d.Schema(), i*500, 500)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if opens := counter.count(); opens != 0 {
		t.Fatalf("commit opened member files %d times; the stats piggyback must lift entries from the writer", opens)
	}
	if d.NumRows() != 3000 {
		t.Fatalf("rows = %d", d.NumRows())
	}
	// The commit must have staged zones without any member having been
	// opened: int bounds for the key, float bounds for the value, a bloom
	// for the tag, each in the member's statistics sidecar.
	for _, m := range d.generationSnapshot().members {
		name := m.entry.Name
		st, err := m.statistics(d)
		if err != nil || st == nil {
			t.Fatalf("member %s: statistics %q: %v", name, m.entry.Stats, err)
		}
		zones := map[string]ColumnZone{}
		for _, z := range allZones(st.View()) {
			zones[z.Name] = z
		}
		if z, ok := zones["key"]; !ok || z.Kind != "int" {
			t.Fatalf("member %s: no int zone for key in %q", name, m.entry.Stats)
		}
		if z, ok := zones["val"]; !ok || z.Kind != "float" || z.FMin == nil || z.FMax == nil {
			t.Fatalf("member %s: no float zone for val", name)
		}
		if z, ok := zones["tag"]; !ok || len(z.Bloom) == 0 {
			t.Fatalf("member %s: no bloom for tag", name)
		}
	}
	if opens := counter.count(); opens != 0 {
		t.Fatalf("reading zones opened member files %d times", opens)
	}
	// Scanning afterwards (which does open members) still sees every row,
	// in round-robin shard order: shard i holds batches i and i+3.
	keys, _ := scanKeys(t, d, ScanOptions{})
	var want []int64
	for shard := 0; shard < 3; shard++ {
		want = append(want, wantKeys(int64(shard*500), int64(shard*500+500))...)
		want = append(want, wantKeys(int64(1500+shard*500), int64(1500+shard*500+500))...)
	}
	checkKeys(t, keys, want)
}

// TestWrittenStatsMatchReopen cross-checks the two sources of a member's
// entry and sidecar: the ones built from the writer's WrittenStats at
// commit must equal the ones derived by reopening the file — rows, bytes
// and fingerprint from its footer, and a sidecar byte-identical to what
// core.StatsFile derives from that footer (zones and blooms).
func TestWrittenStatsMatchReopen(t *testing.T) {
	d, err := Create(t.TempDir(), testSchema(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sw, err := d.ShardedWriter(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := sw.Write(keyBatch(t, d.Schema(), i*700, 700)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	for _, e := range d.Manifest().Files {
		if e.Stats != statsName(e.Name) {
			t.Fatalf("member %s names statistics %q", e.Name, e.Stats)
		}
		data, err := os.ReadFile(filepath.Join(d.dir, e.Name))
		if err != nil {
			t.Fatal(err)
		}
		ftr, err := core.ParseFooterBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		f := core.OpenWithFooter(nil, ftr)
		reopened := FileEntry{Name: e.Name, Rows: f.NumRows(), LiveRows: f.NumLiveRows(),
			Bytes: int64(len(data)), SchemaFP: ftr.Fingerprint(), Stats: statsName(e.Name)}
		if !reflect.DeepEqual(e, reopened) {
			t.Fatalf("member %s: writer-lifted entry differs from reopened entry\nwriter:   %+v\nreopened: %+v",
				e.Name, e, reopened)
		}
		sidecar, err := os.ReadFile(filepath.Join(d.dir, e.Stats))
		if err != nil {
			t.Fatal(err)
		}
		derived, err := core.StatsFile(ftr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sidecar, derived) {
			t.Fatalf("member %s: sidecar written from the writer's footer differs from the one its reopened footer yields", e.Name)
		}
		st, err := parseStats(e.Stats, sidecar)
		if err != nil {
			t.Fatal(err)
		}
		if zones := allZones(st.View()); len(zones) != 3 || zones[0].Kind != "int" ||
			zones[1].Kind != "float" || len(zones[2].Bloom) == 0 {
			t.Fatalf("member %s: sidecar zones %+v, want key, val and a tag bloom", e.Name, zones)
		}
		if !strings.HasPrefix(e.Name, "part-") {
			t.Fatalf("unexpected member name %s", e.Name)
		}
	}
}
