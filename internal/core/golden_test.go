package core

import (
	"bytes"
	"flag"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bullion/internal/enc"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.bullion")

const goldenPath = "testdata/golden.bullion"

// goldenTable builds a deterministic multi-type table: the writer must
// reproduce testdata/golden.bullion byte-for-byte from this data. Any
// intentional format change requires regenerating the file with
//
//	go test ./internal/core -run TestGoldenFile -update
func goldenTable(t *testing.T) (*Schema, *Batch, *Options) {
	t.Helper()
	schema, err := NewSchema(
		Field{Name: "uid", Type: Type{Kind: Int64}},
		Field{Name: "clicks", Type: Type{Kind: Int64}, Nullable: true},
		Field{Name: "score", Type: Type{Kind: Float64}},
		Field{Name: "embed", Type: Type{Kind: Float32}},
		Field{Name: "flag", Type: Type{Kind: Bool}},
		Field{Name: "tag", Type: Type{Kind: String}},
		Field{Name: "seq", Type: Type{Kind: List, Elem: Int64}},
		Field{Name: "clk_seq_cids", Type: Type{Kind: List, Elem: Int64}, Sparse: true},
		Field{Name: "nested", Type: Type{Kind: ListList, Elem: Int64}},
	)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	rng := rand.New(rand.NewSource(20250728))
	uid := make(Int64Data, n)
	clicks := NullableInt64Data{Values: make([]int64, n), Valid: make([]bool, n)}
	score := make(Float64Data, n)
	embed := make(Float32Data, n)
	flagc := make(BoolData, n)
	tag := make(BytesData, n)
	seq := make(ListInt64Data, n)
	clk := make(ListInt64Data, n)
	nested := make(ListListInt64Data, n)
	window := make([]int64, 24)
	for i := range window {
		window[i] = rng.Int63n(1 << 28)
	}
	for i := 0; i < n; i++ {
		uid[i] = int64(i / 8)
		clicks.Valid[i] = i%5 != 0
		if clicks.Valid[i] {
			clicks.Values[i] = rng.Int63n(1000)
		}
		score[i] = float64(i) / 7
		embed[i] = float32(i%97) * 0.25
		flagc[i] = i%4 == 0
		tag[i] = []byte([]string{"news", "video", "ads", "social"}[i%4])
		seq[i] = []int64{int64(i), int64(i * 2), int64(i % 13)}
		if rng.Intn(3) == 0 {
			window = append([]int64{rng.Int63n(1 << 28)}, window[:len(window)-1]...)
		}
		clk[i] = append([]int64{}, window...)
		nested[i] = [][]int64{{int64(i % 7)}, {int64(i), int64(i + 1)}}
	}
	batch, err := NewBatch(schema, []ColumnData{
		uid, clicks, score, embed, flagc, tag, seq, clk, nested,
	})
	if err != nil {
		t.Fatal(err)
	}
	return schema, batch, &Options{RowsPerPage: 256, GroupRows: 1000, Compliance: Level2}
}

// marshalGolden writes the golden table with the given encode-worker
// count (0 = writer default, GOMAXPROCS).
func marshalGolden(t *testing.T, workers int) []byte {
	t.Helper()
	schema, batch, opts := goldenTable(t)
	opts = opts.clone()
	opts.EncodeWorkers = workers
	var buf bytes.Buffer
	w, err := NewWriter(&buf, schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(batch); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenFile pins the on-disk format: the writer must regenerate the
// committed golden file byte-for-byte — sequentially AND through the
// parallel ingest pipeline at 8 encode workers — and reading it back, via
// Project and via the streaming Scanner, must reproduce the source table.
// The committed file predates the pipelined writer and the selector
// cache, so this test is also the proof that neither changed the format.
func TestGoldenFile(t *testing.T) {
	got := marshalGolden(t, 0)
	if again := marshalGolden(t, 0); !bytes.Equal(got, again) {
		t.Fatal("writer is nondeterministic: two runs produced different bytes")
	}
	if w1 := marshalGolden(t, 1); !bytes.Equal(got, w1) {
		t.Fatal("EncodeWorkers=1 output differs from the default writer")
	}
	if w8 := marshalGolden(t, 8); !bytes.Equal(got, w8) {
		t.Fatal("EncodeWorkers=8 output differs from the default writer")
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bytes to %s", len(got), goldenPath)
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("golden file drift: generated %d bytes != committed %d bytes; "+
			"the on-disk format changed (run with -update if intentional)", len(got), len(want))
	}

	// Re-open the committed bytes and verify the projected batches.
	f, err := Open(bytes.NewReader(want), int64(len(want)))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
	schema, batch, _ := goldenTable(t)
	names := make([]string, len(schema.Fields))
	for i, fd := range schema.Fields {
		names[i] = fd.Name
	}
	proj, err := f.Project(names...)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range batch.Columns {
		compareGoldenColumn(t, names[i], proj.Columns[i], want)
	}

	// The streaming scanner must produce the identical batches.
	sc, err := f.Scan(ScanOptions{Columns: names, Workers: 4, BatchRows: 700})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var scanned []ColumnData
	for {
		b, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if scanned == nil {
			scanned = make([]ColumnData, len(b.Columns))
		}
		for i, c := range b.Columns {
			scanned[i] = appendColumn(scanned[i], c)
		}
	}
	for i := range proj.Columns {
		if !reflect.DeepEqual(scanned[i], proj.Columns[i]) {
			t.Errorf("scanner column %q differs from Project", names[i])
		}
	}
}

const goldenDDPath = "testdata/golden_dd.bullion"

// goldenDDTable builds the delta-of-delta golden: a jittered millisecond
// timestamp column and a constant-stride event id — the distributions the
// DeltaDelta scheme exists for — plus a drifting float gauge so the file
// also covers the rewritten Gorilla/Chimp decode path. Pinned separately
// from golden.bullion because that file predates the scheme and must stay
// byte-identical forever.
func goldenDDTable(t *testing.T) (*Schema, *Batch, *Options) {
	t.Helper()
	schema, err := NewSchema(
		Field{Name: "ts", Type: Type{Kind: Int64}},
		Field{Name: "event_id", Type: Type{Kind: Int64}},
		Field{Name: "gauge", Type: Type{Kind: Float64}},
	)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	rng := rand.New(rand.NewSource(20250808))
	ts := make(Int64Data, n)
	eventID := make(Int64Data, n)
	gauge := make(Float64Data, n)
	// The arrival cadence drifts as a bounded random walk: first-order
	// deltas spread over thousands of microseconds (wide for Delta's
	// child) while second-order diffs stay within ±127 (8 bits for
	// DeltaDelta's child) — the distribution the scheme exists for.
	cur := int64(1_722_000_000_000_000)
	delta := int64(5000)
	walk := 250.0
	for i := 0; i < n; i++ {
		delta += rng.Int63n(255) - 127
		if delta < 100 {
			delta = 100
		}
		cur += delta
		ts[i] = cur
		eventID[i] = 7_000_000 + int64(i)*3
		walk += rng.NormFloat64() * 0.25
		gauge[i] = walk
	}
	batch, err := NewBatch(schema, []ColumnData{ts, eventID, gauge})
	if err != nil {
		t.Fatal(err)
	}
	// Level1: Level2's in-place masking restricts the cascade to
	// point-addressable schemes, which rules delta chains out by design.
	return schema, batch, &Options{RowsPerPage: 512, GroupRows: 2000, Compliance: Level1}
}

// TestGoldenDeltaDeltaFile pins the DeltaDelta wire format: the writer
// must reproduce testdata/golden_dd.bullion byte-for-byte, the selector
// must actually pick DeltaDelta for the timestamp column (otherwise the
// golden would silently pin the wrong scheme), and scanning the committed
// bytes must reproduce the source table exactly.
func TestGoldenDeltaDeltaFile(t *testing.T) {
	schema, batch, opts := goldenDDTable(t)
	marshal := func() []byte {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, schema, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(batch); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	got := marshal()
	if again := marshal(); !bytes.Equal(got, again) {
		t.Fatal("writer is nondeterministic: two runs produced different bytes")
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenDDPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenDDPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bytes to %s", len(got), goldenDDPath)
	}
	want, err := os.ReadFile(goldenDDPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("golden drift: generated %d bytes != committed %d bytes; "+
			"the DeltaDelta wire format changed (run with -update if intentional)", len(got), len(want))
	}

	f, err := Open(bytes.NewReader(want), int64(len(want)))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
	for _, cs := range f.Stats().Columns {
		if cs.Name != "ts" {
			continue
		}
		if cs.Encodings[enc.DeltaDelta] == 0 {
			t.Fatalf("timestamp column encoded as %v, not DeltaDelta", cs.Encodings)
		}
	}
	proj, err := f.Project("ts", "event_id", "gauge")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range batch.Columns {
		compareGoldenColumn(t, schema.Fields[i].Name, proj.Columns[i], want)
	}
	sc, err := f.Scan(ScanOptions{Workers: 2, BatchRows: 700})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var scanned []ColumnData
	for {
		b, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if scanned == nil {
			scanned = make([]ColumnData, len(b.Columns))
		}
		for i, c := range b.Columns {
			scanned[i] = appendColumn(scanned[i], c)
		}
	}
	for i := range proj.Columns {
		if !reflect.DeepEqual(scanned[i], proj.Columns[i]) {
			t.Errorf("scanner column %q differs from Project", schema.Fields[i].Name)
		}
	}
}

// TestGoldenV2BackwardCompat pins reading of pre-statistics files:
// testdata/golden_v2.bullion is the identical table written when the
// footer was at version 2 (int zone maps only, no column stats, no
// blooms). It must still open, verify, and scan to the exact source data;
// its float and string columns must report no zone maps (HasMinMax and
// HasFloatMinMax false, Bloom nil); float/string filters must run without
// pruning anything; and in-place deletion must still round-trip the v2
// footer at its original length.
func TestGoldenV2BackwardCompat(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_v2.bullion")
	if err != nil {
		t.Fatal(err)
	}
	f, err := Open(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if got := f.View().Version(); got != 2 {
		t.Fatalf("pinned v2 file reports footer version %d", got)
	}
	if err := f.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}

	schema, batch, _ := goldenTable(t)
	names := make([]string, len(schema.Fields))
	for i, fd := range schema.Fields {
		names[i] = fd.Name
	}
	proj, err := f.Project(names...)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range batch.Columns {
		compareGoldenColumn(t, names[i], proj.Columns[i], want)
	}

	// Statistics the v2 format predates read as absent.
	for _, cs := range f.Stats().Columns {
		switch cs.Name {
		case "score", "embed":
			if cs.HasMinMax || cs.HasFloatMinMax {
				t.Errorf("v2 float column %q reports zone maps: %+v", cs.Name, cs)
			}
		case "tag":
			if cs.HasMinMax || cs.HasFloatMinMax || cs.Bloom != nil {
				t.Errorf("v2 string column %q reports statistics: %+v", cs.Name, cs)
			}
		case "uid":
			if !cs.HasMinMax {
				t.Errorf("v2 int column %q lost its zone map", cs.Name)
			}
		}
	}

	// Float and string filters on a v2 file must be accepted and must not
	// prune a single batch — there are no statistics to prune with.
	flo, fhi := 1e9, 2e9
	sc, err := f.Scan(ScanOptions{
		Columns: []string{"uid"},
		Filters: []ColumnFilter{
			{Column: "score", FloatMin: &flo, FloatMax: &fhi},
			{Column: "tag", ValueIn: [][]byte{[]byte("no-such-tag")}},
		},
	})
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
	if rows != batch.NumRows() {
		t.Fatalf("v2 scan with unprunable filters returned %d rows, want %d", rows, batch.NumRows())
	}
	if st := sc.Stats(); st.BatchesSkipped != 0 {
		t.Fatalf("v2 file pruned %d batches without statistics", st.BatchesSkipped)
	}

	// In-place deletion rewrites the footer at its original version and
	// length (rewriteFooter enforces the length; this is the regression
	// guard for Materialize preserving Version).
	mem := &memFile{data: append([]byte(nil), raw...)}
	f2, err := Open(mem, int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.DeleteRows(mem, []uint64{1, 2, 3}); err != nil {
		t.Fatalf("deleting from v2 file: %v", err)
	}
	if got := f2.NumLiveRows(); got != uint64(batch.NumRows()-3) {
		t.Fatalf("v2 live rows = %d after delete", got)
	}
	if got := f2.View().Version(); got != 2 {
		t.Fatalf("delete upgraded the footer to version %d", got)
	}
}

// compareGoldenColumn compares a decoded column to the source data.
// Nullable columns compare mask-aware: values under null slots are
// unspecified on disk.
func compareGoldenColumn(t *testing.T, name string, got, want ColumnData) {
	t.Helper()
	if g, ok := got.(NullableInt64Data); ok {
		w := want.(NullableInt64Data)
		if !reflect.DeepEqual(g.Valid, w.Valid) {
			t.Errorf("column %q: validity mask differs", name)
			return
		}
		for i, v := range w.Valid {
			if v && g.Values[i] != w.Values[i] {
				t.Errorf("column %q: row %d = %d, want %d", name, i, g.Values[i], w.Values[i])
				return
			}
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("column %q: decoded data differs from source", name)
	}
}
