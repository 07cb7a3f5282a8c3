package bullion

// End-to-end integration: the paper's headline workflow on a (scaled)
// Table 1 ads table through the public API — write, 10% feature
// projection, a streaming scan of the hot set, GDPR user erasure, integrity
// verification, and schema evolution, all against one file on disk.

import (
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bullion/internal/core"
	"bullion/internal/workload"
)

func TestAdsTableEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("writes a ~180-column table")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "ads.bln")

	// 1. A 1/100-scale Table 1 schema (~180 leaf columns) with realistic
	//    content, user-sorted.
	schema, err := workload.AdsSchema(100, true)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 2000
	rng := rand.New(rand.NewSource(77))
	cols := workload.AdsColumns(rng, schema, rows)
	batch, err := core.NewBatch(schema, cols)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.GroupRows = 512
	w, err := Create(path, schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(batch); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ads table: %d rows x %d columns, %d bytes", rows, len(schema.Fields), st.Size())

	f, err := OpenPath(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.NumRows() != rows || f.NumColumns() != len(schema.Fields) {
		t.Fatalf("geometry: %d rows, %d cols", f.NumRows(), f.NumColumns())
	}

	// 2. A training job projects ~10% of features (the paper's access
	//    pattern).
	var hot []string
	for i, field := range schema.Fields {
		if i%10 == 0 {
			hot = append(hot, field.Name)
		}
	}
	proj, err := f.Project(hot...)
	if err != nil {
		t.Fatal(err)
	}
	if proj.NumRows() != rows || len(proj.Columns) != len(hot) {
		t.Fatalf("projection: %d rows x %d cols", proj.NumRows(), len(proj.Columns))
	}

	// 3. The same hot set through a streaming scan must agree.
	sc, err := f.Scan(ScanOptions{Columns: hot, BatchRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	row := 0
	for {
		b, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for c := range hot {
			want, ok := proj.Columns[c].(ListInt64Data)
			if !ok {
				continue
			}
			for r, got := range b.Columns[c].(ListInt64Data) {
				if !reflect.DeepEqual(got, want[row+r]) {
					t.Fatalf("scan disagrees with projection at %s row %d", hot[c], row+r)
				}
			}
		}
		row += b.NumRows()
	}
	if row != rows {
		t.Fatalf("scan emitted %d rows, want %d", row, rows)
	}

	// 4. GDPR: user 3 (rows 24..31, uid = i/8) requests erasure.
	var del []uint64
	for r := uint64(24); r < 32; r++ {
		del = append(del, r)
	}
	if err := f.DeleteRows(del); err != nil {
		t.Fatal(err)
	}
	if got := f.NumLiveRows(); got != rows-8 {
		t.Fatalf("live rows = %d", got)
	}
	uids, err := f.ReadColumn("uid")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range uids.(Int64Data) {
		if v == 3 {
			t.Fatal("erased user still visible")
		}
	}
	if err := f.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}

	// 5. Schema evolution: next month's training config includes a feature
	//    this file predates.
	evolved, err := f.ProjectEvolved([]Field{
		{Name: "uid", Type: Type{Kind: Int64}},
		{Name: "feat_added_next_month", Type: Type{Kind: List, Elem: Int64}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if evolved.NumRows() != rows-8 {
		t.Fatalf("evolved rows = %d", evolved.NumRows())
	}
	if got := evolved.Columns[1].(ListInt64Data); len(got[0]) != 0 {
		t.Fatal("future feature should default to empty lists")
	}

	// 6. Reopen from disk: everything persisted.
	f2, err := OpenPath(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if f2.NumLiveRows() != rows-8 {
		t.Fatalf("reopened live rows = %d", f2.NumLiveRows())
	}
	if err := f2.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}

// TestSparseColumnsSurviveAdsPipeline verifies every sparse column in the
// scaled ads schema round-trips through the full pipeline.
func TestSparseColumnsSurviveAdsPipeline(t *testing.T) {
	schema, err := workload.AdsSchema(400, true)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 600
	rng := rand.New(rand.NewSource(78))
	cols := workload.AdsColumns(rng, schema, rows)
	batch, err := core.NewBatch(schema, cols)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sparse.bln")
	w, err := Create(path, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(batch); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := OpenPath(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	checked := 0
	for ci, field := range schema.Fields {
		if !field.Sparse {
			continue
		}
		data, err := f.ReadColumn(field.Name)
		if err != nil {
			t.Fatalf("%s: %v", field.Name, err)
		}
		got := data.(ListInt64Data)
		want := cols[ci].(ListInt64Data)
		for r := range want {
			if len(got[r]) != len(want[r]) {
				t.Fatalf("%s row %d: len %d, want %d", field.Name, r, len(got[r]), len(want[r]))
			}
			for k := range want[r] {
				if got[r][k] != want[r][k] {
					t.Fatalf("%s row %d elem %d mismatch", field.Name, r, k)
				}
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no sparse columns in scaled schema")
	}
	t.Logf("verified %d sparse columns end to end", checked)
}
