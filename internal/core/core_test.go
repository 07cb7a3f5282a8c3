package core

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"bullion/internal/quant"
)

// memFile is an in-memory ReaderAt/WriterAt/Writer for tests.
type memFile struct{ data []byte }

func (m *memFile) Write(p []byte) (int, error) {
	m.data = append(m.data, p...)
	return len(p), nil
}

func (m *memFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (m *memFile) WriteAt(p []byte, off int64) (int, error) {
	if int(off)+len(p) > len(m.data) {
		return 0, fmt.Errorf("memFile: WriteAt beyond end")
	}
	return copy(m.data[off:], p), nil
}

func (m *memFile) Size() int64 { return int64(len(m.data)) }

// testSchema builds a schema exercising every supported type.
func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Field{Name: "uid", Type: Type{Kind: Int64}},
		Field{Name: "clicks", Type: Type{Kind: Int64}, Nullable: true},
		Field{Name: "score", Type: Type{Kind: Float64}},
		Field{Name: "embed_f32", Type: Type{Kind: Float32, Quant: quant.FP32}},
		Field{Name: "flag", Type: Type{Kind: Bool}},
		Field{Name: "tag", Type: Type{Kind: String}},
		Field{Name: "seq", Type: Type{Kind: List, Elem: Int64}},
		Field{Name: "clk_seq_cids", Type: Type{Kind: List, Elem: Int64}, Sparse: true},
		Field{Name: "emb", Type: Type{Kind: List, Elem: Float32}},
		Field{Name: "weights", Type: Type{Kind: List, Elem: Float64}},
		Field{Name: "frames", Type: Type{Kind: List, Elem: Binary}},
		Field{Name: "nested", Type: Type{Kind: ListList, Elem: Int64}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// testBatch generates n rows for testSchema.
func testBatch(t *testing.T, schema *Schema, rng *rand.Rand, n int) *Batch {
	t.Helper()
	uid := make(Int64Data, n)
	clicks := NullableInt64Data{Values: make([]int64, n), Valid: make([]bool, n)}
	score := make(Float64Data, n)
	embF32 := make(Float32Data, n)
	flag := make(BoolData, n)
	tag := make(BytesData, n)
	seq := make(ListInt64Data, n)
	clk := make(ListInt64Data, n)
	emb := make(ListFloat32Data, n)
	weights := make(ListFloat64Data, n)
	frames := make(ListBytesData, n)
	nested := make(ListListInt64Data, n)

	window := make([]int64, 16)
	for i := range window {
		window[i] = rng.Int63n(1 << 30)
	}
	for i := 0; i < n; i++ {
		uid[i] = int64(i / 4)
		clicks.Valid[i] = i%7 != 0
		if clicks.Valid[i] {
			clicks.Values[i] = rng.Int63n(100)
		}
		score[i] = rng.Float64()
		embF32[i] = float32(rng.NormFloat64())
		flag[i] = i%3 == 0
		tag[i] = []byte(fmt.Sprintf("tag-%d", i%5))
		seq[i] = []int64{int64(i), int64(i + 1), int64(i + 2)}
		// Sliding window for the sparse column.
		if rng.Intn(3) == 0 {
			next := append([]int64{rng.Int63n(1 << 30)}, window[:len(window)-1]...)
			window = next
		}
		clk[i] = append([]int64{}, window...)
		emb[i] = []float32{float32(i), float32(i) / 2}
		weights[i] = []float64{float64(i) * 1.5}
		frames[i] = [][]byte{[]byte("frame0"), []byte("frame1")}
		nested[i] = [][]int64{{int64(i)}, {int64(i), int64(i + 1)}}
	}
	b, err := NewBatch(schema, []ColumnData{
		uid, clicks, score, embF32, flag, tag, seq, clk, emb, weights, frames, nested,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// writeTestFile writes rows and returns the backing memFile and File.
func writeTestFile(t *testing.T, schema *Schema, batch *Batch, opts *Options) (*memFile, *File) {
	t.Helper()
	mf := &memFile{}
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
	f, err := Open(mf, mf.Size())
	if err != nil {
		t.Fatal(err)
	}
	return mf, f
}

func TestRoundTripAllTypes(t *testing.T) {
	schema := testSchema(t)
	rng := rand.New(rand.NewSource(1))
	const n = 3000
	batch := testBatch(t, schema, rng, n)

	opts := DefaultOptions()
	opts.RowsPerPage = 256
	opts.GroupRows = 1000
	_, f := writeTestFile(t, schema, batch, opts)

	if f.NumRows() != n {
		t.Fatalf("NumRows = %d, want %d", f.NumRows(), n)
	}
	if f.View().NumGroups() != 3 {
		t.Fatalf("groups = %d, want 3", f.View().NumGroups())
	}
	got := f.Schema()
	for i, field := range schema.Fields {
		if got.Fields[i].Name != field.Name || got.Fields[i].Type != field.Type ||
			got.Fields[i].Sparse != field.Sparse || got.Fields[i].Nullable != field.Nullable {
			t.Fatalf("field %d: %+v != %+v", i, got.Fields[i], field)
		}
	}

	for ci, field := range schema.Fields {
		data, err := f.ReadColumnByIndex(ci)
		if err != nil {
			t.Fatalf("column %q: %v", field.Name, err)
		}
		if data.Len() != n {
			t.Fatalf("column %q: %d rows, want %d", field.Name, data.Len(), n)
		}
		assertColumnEqual(t, field.Name, batch.Columns[ci], data)
	}
	if err := f.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}

// assertColumnsEqual compares a read column set to its ground truth:
// same column count, same row counts, same values.
func assertColumnsEqual(t *testing.T, schema *Schema, want, got []ColumnData) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("read %d columns, want %d", len(got), len(want))
	}
	for i, f := range schema.Fields {
		if got[i].Len() != want[i].Len() {
			t.Fatalf("column %q: %d rows, want %d", f.Name, got[i].Len(), want[i].Len())
		}
		assertColumnEqual(t, f.Name, want[i], got[i])
	}
}

func assertColumnEqual(t *testing.T, name string, want, got ColumnData) {
	t.Helper()
	switch w := want.(type) {
	case Int64Data:
		g := got.(Int64Data)
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("%s[%d] = %d, want %d", name, i, g[i], w[i])
			}
		}
	case NullableInt64Data:
		g := got.(NullableInt64Data)
		for i := range w.Values {
			if w.Valid[i] != g.Valid[i] {
				t.Fatalf("%s[%d] validity mismatch", name, i)
			}
			if w.Valid[i] && w.Values[i] != g.Values[i] {
				t.Fatalf("%s[%d] = %d, want %d", name, i, g.Values[i], w.Values[i])
			}
		}
	case Float64Data:
		g := got.(Float64Data)
		for i := range w {
			if math.Float64bits(w[i]) != math.Float64bits(g[i]) {
				t.Fatalf("%s[%d] = %v, want %v", name, i, g[i], w[i])
			}
		}
	case Float32Data:
		g := got.(Float32Data)
		for i := range w {
			if math.Float32bits(w[i]) != math.Float32bits(g[i]) {
				t.Fatalf("%s[%d] = %v, want %v", name, i, g[i], w[i])
			}
		}
	case BoolData:
		g := got.(BoolData)
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("%s[%d] = %v, want %v", name, i, g[i], w[i])
			}
		}
	case BytesData:
		g := got.(BytesData)
		for i := range w {
			if !bytes.Equal(w[i], g[i]) {
				t.Fatalf("%s[%d] = %q, want %q", name, i, g[i], w[i])
			}
		}
	case ListInt64Data:
		g := got.(ListInt64Data)
		for i := range w {
			if len(w[i]) != len(g[i]) {
				t.Fatalf("%s[%d] len %d, want %d", name, i, len(g[i]), len(w[i]))
			}
			for j := range w[i] {
				if w[i][j] != g[i][j] {
					t.Fatalf("%s[%d][%d] = %d, want %d", name, i, j, g[i][j], w[i][j])
				}
			}
		}
	case ListFloat32Data:
		g := got.(ListFloat32Data)
		for i := range w {
			for j := range w[i] {
				if w[i][j] != g[i][j] {
					t.Fatalf("%s[%d][%d] = %v, want %v", name, i, j, g[i][j], w[i][j])
				}
			}
		}
	case ListFloat64Data:
		g := got.(ListFloat64Data)
		for i := range w {
			for j := range w[i] {
				if w[i][j] != g[i][j] {
					t.Fatalf("%s[%d][%d] = %v, want %v", name, i, j, g[i][j], w[i][j])
				}
			}
		}
	case ListBytesData:
		g := got.(ListBytesData)
		for i := range w {
			for j := range w[i] {
				if !bytes.Equal(w[i][j], g[i][j]) {
					t.Fatalf("%s[%d][%d] mismatch", name, i, j)
				}
			}
		}
	case ListListInt64Data:
		g := got.(ListListInt64Data)
		for i := range w {
			if len(w[i]) != len(g[i]) {
				t.Fatalf("%s[%d] outer len %d, want %d", name, i, len(g[i]), len(w[i]))
			}
			for j := range w[i] {
				for k := range w[i][j] {
					if w[i][j][k] != g[i][j][k] {
						t.Fatalf("%s[%d][%d][%d] mismatch", name, i, j, k)
					}
				}
			}
		}
	default:
		t.Fatalf("unhandled type %T", want)
	}
}

func TestProjection(t *testing.T) {
	schema := testSchema(t)
	rng := rand.New(rand.NewSource(2))
	batch := testBatch(t, schema, rng, 500)
	_, f := writeTestFile(t, schema, batch, nil)

	proj, err := f.Project("score", "uid")
	if err != nil {
		t.Fatal(err)
	}
	if len(proj.Columns) != 2 {
		t.Fatalf("projected %d columns", len(proj.Columns))
	}
	if proj.Schema.Fields[0].Name != "score" || proj.Schema.Fields[1].Name != "uid" {
		t.Fatal("projection order not preserved")
	}
	assertColumnEqual(t, "score", batch.Columns[2], proj.Columns[0])
	assertColumnEqual(t, "uid", batch.Columns[0], proj.Columns[1])

	if _, err := f.Project("nope"); err == nil {
		t.Fatal("projecting a missing column succeeded")
	}
}

func TestQuantizedColumnLossy(t *testing.T) {
	schema, err := NewSchema(
		Field{Name: "e16", Type: Type{Kind: Float32, Quant: quant.FP16}},
		Field{Name: "e8", Type: Type{Kind: Float32, Quant: quant.FP8E4M3}},
	)
	if err != nil {
		t.Fatal(err)
	}
	n := 1000
	rng := rand.New(rand.NewSource(3))
	vs := make(Float32Data, n)
	for i := range vs {
		// Normalized-embedding magnitudes, kept inside FP8-E4M3's normal
		// range (its relative-error bound does not cover subnormals).
		mag := 0.0625 + rng.Float64()*0.9
		if rng.Intn(2) == 0 {
			mag = -mag
		}
		vs[i] = float32(mag)
	}
	batch, err := NewBatch(schema, []ColumnData{vs, vs})
	if err != nil {
		t.Fatal(err)
	}
	_, f := writeTestFile(t, schema, batch, nil)

	check := func(name string, maxRel float64) {
		data, err := f.ReadColumn(name)
		if err != nil {
			t.Fatal(err)
		}
		got := data.(Float32Data)
		for i := range vs {
			if vs[i] == 0 {
				continue
			}
			rel := math.Abs(float64(got[i]-vs[i])) / math.Abs(float64(vs[i]))
			if rel > maxRel {
				t.Fatalf("%s[%d]: rel error %v > %v", name, i, rel, maxRel)
			}
		}
	}
	check("e16", float64(quant.FP16.MaxRelError())*1.001)
	check("e8", float64(quant.FP8E4M3.MaxRelError())*1.001)
}

func TestQualitySorting(t *testing.T) {
	schema, err := NewSchema(
		Field{Name: "id", Type: Type{Kind: Int64}},
		Field{Name: "quality", Type: Type{Kind: Float64}},
	)
	if err != nil {
		t.Fatal(err)
	}
	n := 2000
	rng := rand.New(rand.NewSource(4))
	ids := make(Int64Data, n)
	quality := make(Float64Data, n)
	for i := range ids {
		ids[i] = int64(i)
		quality[i] = rng.Float64()
	}
	batch, _ := NewBatch(schema, []ColumnData{ids, quality})

	opts := DefaultOptions()
	opts.QualityColumn = "quality"
	opts.GroupRows = 1000
	_, f := writeTestFile(t, schema, batch, opts)

	q, err := f.ReadColumn("quality")
	if err != nil {
		t.Fatal(err)
	}
	qd := q.(Float64Data)
	// Descending within each group.
	for _, lo := range []int{0, 1000} {
		for i := lo + 1; i < lo+1000; i++ {
			if qd[i] > qd[i-1] {
				t.Fatalf("quality not descending at row %d: %v > %v", i, qd[i], qd[i-1])
			}
		}
	}
	// id column permuted consistently: the id at each row must have the
	// matching original quality.
	idData, _ := f.ReadColumn("id")
	idd := idData.(Int64Data)
	for i := range qd {
		if quality[idd[i]] != qd[i] {
			t.Fatalf("row %d: id %d has quality %v, stored %v", i, idd[i], quality[idd[i]], qd[i])
		}
	}
}

func TestQualityColumnValidation(t *testing.T) {
	schema, _ := NewSchema(Field{Name: "id", Type: Type{Kind: Int64}})
	opts := DefaultOptions()
	opts.QualityColumn = "missing"
	if _, err := NewWriter(&memFile{}, schema, opts); err == nil {
		t.Fatal("missing quality column accepted")
	}
	opts.QualityColumn = "id"
	if _, err := NewWriter(&memFile{}, schema, opts); err == nil {
		t.Fatal("non-float64 quality column accepted")
	}
}

func TestOpenRejectsCorrupt(t *testing.T) {
	schema := testSchema(t)
	rng := rand.New(rand.NewSource(5))
	batch := testBatch(t, schema, rng, 100)
	mf, _ := writeTestFile(t, schema, batch, nil)

	if _, err := Open(&memFile{data: mf.data[:4]}, 4); err == nil {
		t.Fatal("tiny file opened")
	}
	bad := append([]byte{}, mf.data...)
	copy(bad[len(bad)-4:], "XXXX")
	if _, err := Open(&memFile{data: bad}, int64(len(bad))); err == nil {
		t.Fatal("bad magic opened")
	}
	truncated := mf.data[:len(mf.data)/2]
	if _, err := Open(&memFile{data: truncated}, int64(len(truncated))); err == nil {
		t.Fatal("truncated file opened")
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	schema := testSchema(t)
	rng := rand.New(rand.NewSource(6))
	batch := testBatch(t, schema, rng, 500)
	mf, f := writeTestFile(t, schema, batch, nil)

	if err := f.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
	// Flip a data byte (first page starts at offset 0).
	mf.data[3] ^= 0x40
	if err := f.VerifyChecksums(); err == nil {
		t.Fatal("corruption not detected")
	}
}

func TestMultipleBatchesAndGroups(t *testing.T) {
	schema, _ := NewSchema(Field{Name: "v", Type: Type{Kind: Int64}})
	mf := &memFile{}
	opts := DefaultOptions()
	opts.GroupRows = 100
	opts.RowsPerPage = 32
	w, err := NewWriter(mf, schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for b := 0; b < 7; b++ {
		n := 37
		vs := make(Int64Data, n)
		for i := range vs {
			vs[i] = int64(b*1000 + i)
			want = append(want, vs[i])
		}
		batch, _ := NewBatch(schema, []ColumnData{vs})
		if err := w.Write(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := Open(mf, mf.Size())
	if err != nil {
		t.Fatal(err)
	}
	if f.NumRows() != uint64(len(want)) {
		t.Fatalf("NumRows = %d, want %d", f.NumRows(), len(want))
	}
	got, err := f.ReadColumn("v")
	if err != nil {
		t.Fatal(err)
	}
	g := got.(Int64Data)
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("row %d = %d, want %d", i, g[i], want[i])
		}
	}
}

func TestEmptyFile(t *testing.T) {
	schema, _ := NewSchema(Field{Name: "v", Type: Type{Kind: Int64}})
	mf := &memFile{}
	w, _ := NewWriter(mf, schema, nil)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := Open(mf, mf.Size())
	if err != nil {
		t.Fatal(err)
	}
	if f.NumRows() != 0 {
		t.Fatalf("NumRows = %d", f.NumRows())
	}
	data, err := f.ReadColumn("v")
	if err != nil {
		t.Fatal(err)
	}
	if data.Len() != 0 {
		t.Fatalf("rows = %d", data.Len())
	}
}

func TestSchemaValidation(t *testing.T) {
	cases := []Field{
		{Name: "", Type: Type{Kind: Int64}},
		{Name: "x", Type: Type{Kind: footer0()}},
		{Name: "x", Type: Type{Kind: Int64, Elem: Int64}},
		{Name: "x", Type: Type{Kind: List, Elem: Bool}},
		{Name: "x", Type: Type{Kind: Float64}, Sparse: true},
		{Name: "x", Type: Type{Kind: Float64}, Nullable: true},
		{Name: "x", Type: Type{Kind: ListList, Elem: Float32}},
	}
	for i, f := range cases {
		if _, err := NewSchema(f); err == nil {
			t.Errorf("case %d (%+v): accepted", i, f)
		}
	}
	if _, err := NewSchema(
		Field{Name: "a", Type: Type{Kind: Int64}},
		Field{Name: "a", Type: Type{Kind: Int64}},
	); err == nil {
		t.Error("duplicate names accepted")
	}
}

func footer0() Kind { return Kind(0) }

func TestBatchValidation(t *testing.T) {
	schema, _ := NewSchema(
		Field{Name: "a", Type: Type{Kind: Int64}},
		Field{Name: "b", Type: Type{Kind: Float64}},
	)
	if _, err := NewBatch(schema, []ColumnData{Int64Data{1}}); err == nil {
		t.Error("column count mismatch accepted")
	}
	if _, err := NewBatch(schema, []ColumnData{Int64Data{1}, Float64Data{1, 2}}); err == nil {
		t.Error("row count mismatch accepted")
	}
	if _, err := NewBatch(schema, []ColumnData{Float64Data{1}, Float64Data{1}}); err == nil {
		t.Error("type mismatch accepted")
	}
}

// TestSignedZeroFloatPage: +0.0 and -0.0 compare equal under ==, but the
// constant float scheme stores one bit pattern. A page of zeros with one
// -0.0 must still write, with and without selector caches, and read back
// with every sign intact.
func TestSignedZeroFloatPage(t *testing.T) {
	schema, err := NewSchema(Field{Name: "a", Type: Type{Kind: Float64}})
	if err != nil {
		t.Fatal(err)
	}
	vs := make(Float64Data, 1000)
	vs[500] = math.Copysign(0, -1)
	batch, err := NewBatch(schema, []ColumnData{vs})
	if err != nil {
		t.Fatal(err)
	}
	for _, drift := range []float64{0, -1} { // -1 installs no selector caches
		opts := DefaultOptions()
		e := *opts.Enc
		e.ResampleDrift = drift
		opts.Enc = &e
		_, f := writeTestFile(t, schema, batch, opts)
		data, err := f.ReadColumn("a")
		if err != nil {
			t.Fatal(err)
		}
		got := data.(Float64Data)
		for i := range vs {
			if math.Float64bits(got[i]) != math.Float64bits(vs[i]) {
				t.Fatalf("drift %v: row %d = %v, want %v", drift, i, got[i], vs[i])
			}
		}
	}
}
