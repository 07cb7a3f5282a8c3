package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"bullion/internal/enc"
	"bullion/internal/footer"
	"bullion/internal/quant"
	"bullion/internal/sparse"
)

// FuzzWriterRoundTrip drives the pipelined writer across odd
// GroupRows/RowsPerPage boundaries (1 row, group-1, group, group+1, …)
// and asserts that a streaming Scan reproduces the input exactly. The
// corpus pins the boundary cases; the fuzzer then explores the rest of
// the (rows, groupRows, rowsPerPage, workers, seed, windows, level1)
// space. The schema holds one column of every ColumnData type, an
// FP16-quantized float32 column among them. The windows bytes shape a
// sparse column (slidingWindows), whose value streams go through its
// selector cache. Each input is written twice, with no Sparse options and
// with sparse.DefaultOptions(), at Level 1 or Level 2 as level1 says:
// the two files must be byte-identical, since a sparse page's value
// stream encodes with Enc either way.
func FuzzWriterRoundTrip(f *testing.F) {
	const g = 64 // baseline group size for the seeded boundaries
	grow := []byte{1, 5, 9, 13, 17, 21, 25, 29, 33, 37, 41, 45, 3, 0, 0, 7}
	f.Add(uint16(1), uint16(g), uint16(16), uint8(1), int64(1), grow, false)
	f.Add(uint16(g-1), uint16(g), uint16(16), uint8(4), int64(2), grow, true)
	f.Add(uint16(g), uint16(g), uint16(16), uint8(8), int64(3), []byte{}, false)
	f.Add(uint16(g+1), uint16(g), uint16(16), uint8(2), int64(4), []byte{3, 2, 1}, true)
	f.Add(uint16(3*g+7), uint16(g), uint16(17), uint8(3), int64(5), grow, false)
	f.Add(uint16(3*g+7), uint16(g), uint16(17), uint8(3), int64(5), grow, true)
	f.Add(uint16(200), uint16(1), uint16(1), uint8(4), int64(6), grow, false)                       // 1-row groups
	f.Add(uint16(97), uint16(13), uint16(5), uint8(0), int64(7), []byte{255, 0, 127, 128, 2}, true) // nothing aligns

	f.Fuzz(func(t *testing.T, rows, groupRows, rowsPerPage uint16, workers uint8, seed int64, windows []byte, level1 bool) {
		nRows := int(rows)%2048 + 1
		gr := int(groupRows)%512 + 1
		rpp := int(rowsPerPage)%512 + 1

		schema, err := NewSchema(
			Field{Name: "id", Type: Type{Kind: Int64}},
			Field{Name: "val", Type: Type{Kind: Int64}, Nullable: true},
			Field{Name: "score", Type: Type{Kind: Float64}},
			Field{Name: "tag", Type: Type{Kind: String}},
			Field{Name: "seq", Type: Type{Kind: List, Elem: Int64}},
			Field{Name: "win", Type: Type{Kind: List, Elem: Int64}, Sparse: true},
			Field{Name: "half", Type: Type{Kind: Float32, Quant: quant.FP16}},
			Field{Name: "flag", Type: Type{Kind: Bool}},
			Field{Name: "emb", Type: Type{Kind: List, Elem: Float32}},
			Field{Name: "wts", Type: Type{Kind: List, Elem: Float64}},
			Field{Name: "kws", Type: Type{Kind: List, Elem: Binary}},
			Field{Name: "nest", Type: Type{Kind: ListList, Elem: Int64}},
		)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		id := make(Int64Data, nRows)
		val := NullableInt64Data{Values: make([]int64, nRows), Valid: make([]bool, nRows)}
		score := make(Float64Data, nRows)
		tag := make(BytesData, nRows)
		seq := make(ListInt64Data, nRows)
		half := make(Float32Data, nRows)
		flag := make(BoolData, nRows)
		emb := make(ListFloat32Data, nRows)
		wts := make(ListFloat64Data, nRows)
		kws := make(ListBytesData, nRows)
		nest := make(ListListInt64Data, nRows)
		for i := 0; i < nRows; i++ {
			id[i] = rng.Int63n(1 << 20)
			val.Valid[i] = rng.Intn(4) != 0
			if val.Valid[i] {
				val.Values[i] = rng.Int63n(1000)
			}
			score[i] = float64(rng.Intn(5000)) / 16
			tag[i] = []byte([]string{"a", "bb", "ccc", ""}[rng.Intn(4)])
			lst := make([]int64, rng.Intn(4))
			for j := range lst {
				lst[j] = rng.Int63n(256)
			}
			seq[i] = lst
			half[i] = float32(rng.Intn(2048)-1024) / 8 // exact in FP16
			flag[i] = rng.Intn(3) == 0
			emb[i] = make([]float32, rng.Intn(4))
			for j := range emb[i] {
				emb[i][j] = rng.Float32()
			}
			wts[i] = make([]float64, rng.Intn(4))
			for j := range wts[i] {
				wts[i][j] = rng.NormFloat64()
			}
			kws[i] = make([][]byte, rng.Intn(4))
			for j := range kws[i] {
				kws[i][j] = []byte([]string{"x", "yy", ""}[rng.Intn(3)])
			}
			nest[i] = make([][]int64, rng.Intn(3))
			for j := range nest[i] {
				nest[i][j] = make([]int64, rng.Intn(3))
				for k := range nest[i][j] {
					nest[i][j][k] = rng.Int63n(100)
				}
			}
		}
		win := slidingWindows(windows, nRows)
		want := []ColumnData{id, val, score, tag, seq, win, half, flag, emb, wts, kws, nest}
		batch, err := NewBatch(schema, want)
		if err != nil {
			t.Fatal(err)
		}

		level := Level2
		if level1 {
			level = Level1
		}
		write := func(so *sparse.Options) []byte {
			var buf bytes.Buffer
			w, err := NewWriter(&buf, schema, &Options{
				RowsPerPage:   rpp,
				GroupRows:     gr,
				Compliance:    level,
				EncodeWorkers: int(workers) % 9, // 0 = GOMAXPROCS
				Sparse:        so,
			})
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
		out := write(sparse.DefaultOptions())
		if bare := write(nil); !bytes.Equal(bare, out) {
			t.Fatalf("Level %d: Sparse nil and sparse.DefaultOptions() wrote different files (%d vs %d bytes)", level, len(bare), len(out))
		}

		file, err := Open(bytes.NewReader(out), int64(len(out)))
		if err != nil {
			t.Fatal(err)
		}
		if file.NumRows() != uint64(nRows) {
			t.Fatalf("file has %d rows, want %d", file.NumRows(), nRows)
		}
		sc, err := file.Scan(ScanOptions{
			BatchRows: rpp + 1, // deliberately misaligned with pages
			Workers:   2,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		var got []ColumnData
		for {
			b, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if got == nil {
				got = make([]ColumnData, len(b.Columns))
			}
			for i, c := range b.Columns {
				got[i] = appendColumn(got[i], c)
			}
		}
		for i := range want {
			compareFuzzColumn(t, schema.Fields[i].Name, got[i], want[i])
		}
	})
}

// slidingWindows builds an n-row sparse column from the fuzz bytes, read
// cyclically, one byte per row: bit 0 pushes a new head value derived
// from the byte and the row, bit 1 drops the oldest value, so rows share
// long runs with their predecessor, slide, shrink to empty and restart.
// Windows are capped at 64 values.
func slidingWindows(data []byte, n int) ListInt64Data {
	col := make(ListInt64Data, n)
	var window []int64
	for i := range col {
		var b byte
		if len(data) > 0 {
			b = data[i%len(data)]
		}
		if b&1 != 0 {
			window = append([]int64{int64(int8(b))*1_000_003 + int64(i)}, window...)
		}
		if b&2 != 0 && len(window) > 0 {
			window = window[:len(window)-1]
		}
		window = window[:min(len(window), 64)]
		col[i] = append([]int64{}, window...)
	}
	return col
}

// FuzzFooterDecode feeds arbitrary bytes — seeded with real v2 and v3
// footers, including one carrying blooms and float stats — to the footer
// decoder and exercises every accessor on whatever opens. Truncated and
// bit-flipped statistics sections must produce errors or conservative
// "no statistics" answers, never a panic: the scanner trusts these
// accessors on files read from disk.
func FuzzFooterDecode(f *testing.F) {
	// Seed: a real v3 footer with float stats and blooms.
	schema, err := NewSchema(
		Field{Name: "a", Type: Type{Kind: Int64}},
		Field{Name: "f", Type: Type{Kind: Float64}},
		Field{Name: "s", Type: Type{Kind: String}},
	)
	if err != nil {
		f.Fatal(err)
	}
	n := 300
	a := make(Int64Data, n)
	fl := make(Float64Data, n)
	s := make(BytesData, n)
	for i := 0; i < n; i++ {
		a[i] = int64(i)
		fl[i] = float64(i) / 3
		s[i] = []byte([]string{"x", "yy", "zzz"}[i%3])
	}
	batch, _ := NewBatch(schema, []ColumnData{a, fl, s})
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, schema, &Options{RowsPerPage: 64, GroupRows: 128, Compliance: Level1})
	if err := w.Write(batch); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	raw := buf.Bytes()
	fLen := int(binary.LittleEndian.Uint32(raw[len(raw)-8:]))
	ftrV3 := raw[len(raw)-8-fLen : len(raw)-8]
	f.Add(append([]byte(nil), ftrV3...))
	f.Add(append([]byte(nil), ftrV3[:len(ftrV3)/2]...)) // truncated mid-sections

	// Seed: a pinned v2 footer (no stats sections beyond page_stats).
	if v2raw, err := os.ReadFile("testdata/golden_v2.bullion"); err == nil {
		v2len := int(binary.LittleEndian.Uint32(v2raw[len(v2raw)-8:]))
		f.Add(append([]byte(nil), v2raw[len(v2raw)-8-v2len:len(v2raw)-8]...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := footer.OpenView(data)
		if err != nil {
			return
		}
		_ = v.Version()
		_ = v.NumRows()
		_ = v.HasPageStats()
		_ = v.HasColumnStats()
		_, _ = v.LookupColumn("a")
		_, _ = v.LookupColumn("missing")
		nCols := v.NumColumns()
		if nCols > 1<<12 {
			nCols = 1 << 12
		}
		for c := 0; c < nCols; c++ {
			_ = v.ColumnName(c)
			_ = v.ColumnType(c)
			_, _ = v.ColumnStat(c)
			if b := v.ColumnBloom(c); b != nil {
				if fl, err := enc.OpenBloom(b); err == nil {
					_ = fl.Contains([]byte("x"))
				}
			}
		}
		nPages := v.NumPages()
		if nPages > 1<<12 {
			nPages = 1 << 12
		}
		for p := 0; p < nPages; p++ {
			_, _ = v.PageStat(p)
			if b := v.PageBloom(p); b != nil {
				if fl, err := enc.OpenBloom(b); err == nil {
					_ = fl.ContainsHash(42)
				}
			}
		}
		// Materialize/Marshal over an accepted view must not panic either
		// (the in-place deletion path runs it on files read from disk).
		if m, err := v.Materialize(); err == nil {
			_, _ = m.Marshal()
		}
	})
}

// compareFuzzColumn mirrors compareGoldenColumn: nullable columns compare
// mask-aware (values under null slots are unspecified on disk), and a
// nil scanned column is only legal for zero expected rows.
func compareFuzzColumn(t *testing.T, name string, got, want ColumnData) {
	t.Helper()
	if got == nil {
		if want.Len() != 0 {
			t.Fatalf("column %q: scan returned nothing for %d rows", name, want.Len())
		}
		return
	}
	if g, ok := got.(NullableInt64Data); ok {
		w := want.(NullableInt64Data)
		if !reflect.DeepEqual(g.Valid, w.Valid) {
			t.Fatalf("column %q: validity mask differs", name)
		}
		for i, v := range w.Valid {
			if v && g.Values[i] != w.Values[i] {
				t.Fatalf("column %q: row %d = %d, want %d", name, i, g.Values[i], w.Values[i])
			}
		}
		return
	}
	if reflect.TypeOf(got) != reflect.TypeOf(want) || !equivalent(reflect.ValueOf(got), reflect.ValueOf(want)) {
		t.Fatalf("column %q: scanned data differs from source", name)
	}
}

// equivalent is reflect.DeepEqual, except that a nil and an empty slice
// are equal at any depth: a scan may return either for an empty list.
func equivalent(a, b reflect.Value) bool {
	if a.Len() == 0 && b.Len() == 0 {
		return true
	}
	if a.Type().Elem().Kind() != reflect.Slice {
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if !equivalent(a.Index(i), b.Index(i)) {
			return false
		}
	}
	return true
}
