package core

import (
	"fmt"
	"math/rand"
	"testing"

	"bullion/internal/iostats"
)

// wideFixture writes a 40-column file and returns it with I/O counters.
func wideFixture(t *testing.T, hot []string) (*File, *iostats.Counters, map[string]Int64Data) {
	t.Helper()
	const nCols = 40
	const nRows = 4000
	fields := make([]Field, nCols)
	for i := range fields {
		fields[i] = Field{Name: fmt.Sprintf("feat_%02d", i), Type: Type{Kind: Int64}}
	}
	schema, err := NewSchema(fields...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	cols := make([]ColumnData, nCols)
	want := map[string]Int64Data{}
	for i := range cols {
		vs := make(Int64Data, nRows)
		for r := range vs {
			vs[r] = rng.Int63n(1 << 30)
		}
		cols[i] = vs
		want[fields[i].Name] = vs
	}
	if len(hot) > 0 {
		reordered, perm, err := ReorderFields(schema, hot)
		if err != nil {
			t.Fatal(err)
		}
		schema = reordered
		cols = ReorderBatchColumns(cols, perm)
	}
	batch, err := NewBatch(schema, cols)
	if err != nil {
		t.Fatal(err)
	}
	mf := &memFile{}
	opts := DefaultOptions()
	opts.GroupRows = 2000
	w, err := NewWriter(mf, schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(batch); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var c iostats.Counters
	c.Reset()
	f, err := Open(&iostats.ReaderAt{R: mf, C: &c}, mf.Size())
	if err != nil {
		t.Fatal(err)
	}
	return f, &c, want
}

func TestReorderFields(t *testing.T) {
	schema, _ := NewSchema(
		Field{Name: "a", Type: Type{Kind: Int64}},
		Field{Name: "b", Type: Type{Kind: Int64}},
		Field{Name: "c", Type: Type{Kind: Int64}},
	)
	re, perm, err := ReorderFields(schema, []string{"c", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if re.Fields[0].Name != "c" || re.Fields[1].Name != "a" || re.Fields[2].Name != "b" {
		t.Fatalf("order: %v %v %v", re.Fields[0].Name, re.Fields[1].Name, re.Fields[2].Name)
	}
	if perm[0] != 2 || perm[1] != 0 || perm[2] != 1 {
		t.Fatalf("perm: %v", perm)
	}
	cols := ReorderBatchColumns([]ColumnData{Int64Data{1}, Int64Data{2}, Int64Data{3}}, perm)
	if cols[0].(Int64Data)[0] != 3 || cols[1].(Int64Data)[0] != 1 {
		t.Fatal("batch reorder wrong")
	}
	if _, _, err := ReorderFields(schema, []string{"nope"}); err == nil {
		t.Fatal("unknown hot column accepted")
	}
	if _, _, err := ReorderFields(schema, []string{"a", "a"}); err == nil {
		t.Fatal("duplicate hot column accepted")
	}
}

// One projection of N adjacent columns must coalesce into fewer physical
// reads than N single-column projections of the same columns, for the
// same bytes.
func TestCoalescedFewerReads(t *testing.T) {
	hot := []string{"feat_10", "feat_20", "feat_30", "feat_35"}
	f, c, want := wideFixture(t, hot)

	before := c.Snapshot()
	for _, name := range hot {
		if _, err := f.Project(name); err != nil {
			t.Fatal(err)
		}
	}
	perColumn := c.Snapshot().Sub(before)

	before = c.Snapshot()
	batch, err := f.Project(hot...)
	if err != nil {
		t.Fatal(err)
	}
	coalesced := c.Snapshot().Sub(before)
	for i, name := range hot {
		assertColumnEqual(t, name, want[name], batch.Columns[i])
	}

	// Hot columns are physically adjacent (reordered to the front), so the
	// 4 chunks per group collapse to 1 read per group: 2 groups -> 2 reads.
	if coalesced.ReadOps >= perColumn.ReadOps {
		t.Fatalf("coalesced %d ops >= per-column %d", coalesced.ReadOps, perColumn.ReadOps)
	}
	if coalesced.ReadOps != 2 {
		t.Fatalf("coalesced ops = %d, want 2 (1 per group)", coalesced.ReadOps)
	}
	if coalesced.ReadBytes != perColumn.ReadBytes {
		t.Fatalf("coalesced bytes %d != per-column %d (must read the same chunks)",
			coalesced.ReadBytes, perColumn.ReadBytes)
	}
}

// Without reordering, a scattered hot set cannot fully coalesce.
func TestScatteredHotSetReadsMore(t *testing.T) {
	hot := []string{"feat_10", "feat_20", "feat_30", "feat_35"}
	fScattered, cs, _ := wideFixture(t, nil)
	fOrdered, co, _ := wideFixture(t, hot)

	before := cs.Snapshot()
	if _, err := fScattered.Project(hot...); err != nil {
		t.Fatal(err)
	}
	scattered := cs.Snapshot().Sub(before)

	before = co.Snapshot()
	if _, err := fOrdered.Project(hot...); err != nil {
		t.Fatal(err)
	}
	ordered := co.Snapshot().Sub(before)

	if ordered.ReadOps >= scattered.ReadOps {
		t.Fatalf("reordered layout %d ops >= scattered %d", ordered.ReadOps, scattered.ReadOps)
	}
	t.Logf("column reordering: %d reads (hot-first layout) vs %d (scattered)",
		ordered.ReadOps, scattered.ReadOps)
}
