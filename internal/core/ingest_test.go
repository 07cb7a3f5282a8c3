package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"bullion/internal/enc"
)

// failAfterWriter fails with errInjected once limit bytes have been
// accepted — an io.Writer dying mid-group.
type failAfterWriter struct {
	buf     bytes.Buffer
	limit   int
	written int
}

var errInjected = errors.New("injected write failure")

func (f *failAfterWriter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.limit {
		room := f.limit - f.written
		if room > 0 {
			f.buf.Write(p[:room])
			f.written += room
		}
		return room, errInjected
	}
	f.buf.Write(p)
	f.written += len(p)
	return len(p), nil
}

// TestWriterStickyWriteError: a write failure mid-group must poison every
// subsequent Write and Close with the original error, and no footer may
// reach the output.
func TestWriterStickyWriteError(t *testing.T) {
	schema, batch, opts := goldenTable(t)
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			o := opts.clone()
			o.EncodeWorkers = workers
			// Fail inside the second row group's pages (groups are 1000
			// rows; the first group of the golden table is ~30KB).
			fw := &failAfterWriter{limit: 40000}
			w, err := NewWriter(fw, schema, o)
			if err != nil {
				t.Fatal(err)
			}
			first := w.Write(batch)
			if first == nil {
				first = w.Close()
			}
			if !errors.Is(first, errInjected) {
				t.Fatalf("got %v, want injected failure", first)
			}
			// Sticky: both entry points keep returning the original error.
			if err := w.Write(batch); !errors.Is(err, errInjected) {
				t.Fatalf("Write after failure = %v", err)
			}
			if err := w.Close(); !errors.Is(err, errInjected) {
				t.Fatalf("Close after failure = %v", err)
			}
			// No partial footer: the truncated bytes must not open.
			data := fw.buf.Bytes()
			if _, err := Open(bytes.NewReader(data), int64(len(data))); err == nil {
				t.Fatal("truncated file opened as a complete Bullion file")
			}
		})
	}
}

// TestWriterErrorAtFooter: a failure injected in the footer region still
// yields a sticky error and an unopenable file.
func TestWriterErrorAtFooter(t *testing.T) {
	schema, batch, opts := goldenTable(t)
	// Measure the data region of a successful file, then fail ~100 bytes
	// into the footer.
	dataLen := 0
	{
		var buf bytes.Buffer
		cw, err := NewWriter(&buf, schema, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := cw.Write(batch); err != nil {
			t.Fatal(err)
		}
		if err := cw.Close(); err != nil {
			t.Fatal(err)
		}
		dataLen = int(cw.offset)
	}
	fw := &failAfterWriter{limit: dataLen + 100}
	cw, err := NewWriter(fw, schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Write(batch); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); !errors.Is(err, errInjected) {
		t.Fatalf("Close = %v, want injected failure", err)
	}
	if err := cw.Close(); !errors.Is(err, errInjected) {
		t.Fatalf("second Close = %v, want sticky injected failure", err)
	}
	data := fw.buf.Bytes()
	if _, err := Open(bytes.NewReader(data), int64(len(data))); err == nil {
		t.Fatal("file with truncated footer opened successfully")
	}
}

// TestParallelWriterDeterminism: the pipelined writer must emit
// byte-identical files at every worker count and in-flight bound. Besides
// the golden table it writes a column the selector stores as Huffman in a
// Level-1 file (Level 2 excludes Huffman), whose code lengths hinge on how
// frequency ties are broken.
func TestParallelWriterDeterminism(t *testing.T) {
	schema, batch, opts := goldenTable(t)
	schema, batch = withHuffmanColumn(t, schema, batch)
	for _, level := range []Level{Level2, Level1} {
		write := func(workers, inflight int) []byte {
			o := opts.clone()
			o.Compliance = level
			o.EncodeWorkers = workers
			o.MaxInflightGroups = inflight
			var buf bytes.Buffer
			w, err := NewWriter(&buf, schema, o)
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
		base := write(1, 1)
		if level == Level1 {
			f, err := Open(bytes.NewReader(base), int64(len(base)))
			if err != nil {
				t.Fatal(err)
			}
			if cols := f.Stats().Columns; cols[len(cols)-1].Encodings[enc.Huffman] == 0 {
				t.Fatalf("no page of the skewed column is Huffman: %v", cols[len(cols)-1].Encodings)
			}
		}
		for _, cfg := range [][2]int{{2, 2}, {4, 3}, {8, 0}, {0, 0}} {
			if got := write(cfg[0], cfg[1]); !bytes.Equal(got, base) {
				t.Fatalf("Level%d EncodeWorkers=%d MaxInflightGroups=%d produced different bytes (%d vs %d)",
					level, cfg[0], cfg[1], len(got), len(base))
			}
		}
	}
}

// withHuffmanColumn appends a column of one dominant value (65%) and seven
// rare wide values drawn with equal probability: Huffman beats Dictionary
// (whose codes pay for the mask entry) and fixed-width packing, and the
// rare values' frequencies tie often.
func withHuffmanColumn(t *testing.T, schema *Schema, batch *Batch) (*Schema, *Batch) {
	t.Helper()
	rng := rand.New(rand.NewSource(24))
	var syms [8]int64
	for i := range syms {
		syms[i] = rng.Int63n(1 << 40)
	}
	n := batch.Columns[0].Len()
	col := make(Int64Data, n)
	for i := range col {
		if u := rng.Intn(20); u < 13 {
			col[i] = syms[0]
		} else {
			col[i] = syms[1+u-13]
		}
	}
	fields := append(append([]Field{}, schema.Fields...), Field{Name: "bucket", Type: Type{Kind: Int64}})
	s, err := NewSchema(fields...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatch(s, append(append([]ColumnData{}, batch.Columns...), col))
	if err != nil {
		t.Fatal(err)
	}
	return s, b
}

// TestSelectorCacheAmortizesAcrossGroups: on a multi-group file the
// cascade must mostly reuse cached decisions, and disabling the cache
// (negative ResampleDrift) must still produce a readable file.
func TestSelectorCacheAmortizesAcrossGroups(t *testing.T) {
	schema, batch, opts := goldenTable(t)
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
	hits, resamples := w.SelectorStats()
	if resamples == 0 || hits == 0 {
		t.Fatalf("selector stats: %d hits, %d resamples", hits, resamples)
	}
	if hits < resamples {
		t.Fatalf("cache barely amortizes: %d hits vs %d resamples", hits, resamples)
	}

	// Cache disabled: per-page selection, still a valid file.
	off := opts.clone()
	off.Enc = enc.DefaultOptions()
	off.Enc.ResampleDrift = -1
	var buf2 bytes.Buffer
	w2, err := NewWriter(&buf2, schema, off)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Write(batch); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if h, r := w2.SelectorStats(); h != 0 || r != 0 {
		t.Fatalf("disabled cache reported stats %d/%d", h, r)
	}
	f, err := Open(bytes.NewReader(buf2.Bytes()), int64(buf2.Len()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadColumn("uid")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, batch.Columns[0]) {
		t.Fatal("uncached file decodes differently")
	}
}

// sparseTable is a sparse-only table: three sliding-window sequence
// columns (§2.2) of different window lengths and churn, at 128-row pages
// and 512-row groups, so each column spans sixteen pages in four groups.
func sparseTable(t *testing.T) (*Schema, *Batch) {
	t.Helper()
	const n = 2048
	rng := rand.New(rand.NewSource(35))
	var fields []Field
	var cols []ColumnData
	for c, width := range []int{12, 24, 48} {
		fields = append(fields, Field{Name: fmt.Sprintf("seq%d", c), Type: Type{Kind: List, Elem: Int64}, Sparse: true})
		window := make([]int64, width)
		for i := range window {
			window[i] = rng.Int63n(1 << 28)
		}
		col := make(ListInt64Data, n)
		for i := range col {
			if rng.Intn(c+2) == 0 {
				window = append([]int64{rng.Int63n(1 << 28)}, window[:width-1]...)
			}
			col[i] = append([]int64{}, window...)
		}
		cols = append(cols, col)
	}
	schema, err := NewSchema(fields...)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := NewBatch(schema, cols)
	if err != nil {
		t.Fatal(err)
	}
	return schema, batch
}

// TestSparseStreamsUseSelectorCache: a sparse page's value stream goes
// through its column's selector cache, on a copy of Enc. The cache must
// mostly reuse decisions, the bytes must not depend on the worker count,
// the caller's options must stay untouched, a Level-2 file written on the
// cached path must erase rows in place, and a negative Enc.ResampleDrift
// must disable the cache and still write a readable file. A Sparse.Enc
// other than Enc itself is refused.
func TestSparseStreamsUseSelectorCache(t *testing.T) {
	schema, batch := sparseTable(t)
	write := func(opts *Options) ([]byte, *Writer) {
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
		return buf.Bytes(), w
	}
	opts := DefaultOptions()
	opts.RowsPerPage, opts.GroupRows = 128, 512
	var base []byte
	for _, workers := range []int{1, 4, 8} {
		opts.EncodeWorkers = workers
		out, w := write(opts)
		hits, resamples := w.SelectorStats()
		if resamples == 0 || hits < 2*resamples {
			t.Fatalf("EncodeWorkers=%d: sparse streams barely reuse decisions: %d hits, %d resamples", workers, hits, resamples)
		}
		if base == nil {
			base = out
		} else if !bytes.Equal(out, base) {
			t.Fatalf("EncodeWorkers=%d produced different bytes (%d vs %d)", workers, len(out), len(base))
		}
	}
	if opts.Enc.Cache != nil || opts.Sparse.Enc != nil {
		t.Fatal("the writer installed a selector cache or a Sparse.Enc in the caller's options")
	}

	readBack := func(out []byte) {
		t.Helper()
		f, err := Open(bytes.NewReader(out), int64(len(out)))
		if err != nil {
			t.Fatal(err)
		}
		for i, field := range schema.Fields {
			got, err := f.ReadColumn(field.Name)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, batch.Columns[i]) {
				t.Fatalf("column %s decodes differently", field.Name)
			}
		}
	}

	// Level 2: every ninth row is erased in place and the live rows read
	// back unchanged.
	l2 := DefaultOptions()
	l2.RowsPerPage, l2.GroupRows, l2.Compliance = 128, 512, Level2
	out, w := write(l2)
	if _, r := w.SelectorStats(); r == 0 {
		t.Fatal("Level-2 sparse columns got no selector cache")
	}
	mf := &memFile{data: out}
	f, err := Open(mf, mf.Size())
	if err != nil {
		t.Fatal(err)
	}
	var del []uint64
	for r := uint64(4); r < uint64(batch.NumRows()); r += 9 {
		del = append(del, r)
	}
	if err := f.DeleteRows(mf, del); err != nil {
		t.Fatal(err)
	}
	if err := f.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
	for i, field := range schema.Fields {
		got, err := f.ReadColumn(field.Name)
		if err != nil {
			t.Fatal(err)
		}
		var want ListInt64Data
		for r, v := range batch.Columns[i].(ListInt64Data) {
			if r%9 != 4 {
				want = append(want, v)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("column %s reads back differently after erasure", field.Name)
		}
	}

	off := DefaultOptions()
	off.RowsPerPage, off.GroupRows = 128, 512
	off.Enc.ResampleDrift = -1
	out, w = write(off)
	if h, r := w.SelectorStats(); h != 0 || r != 0 {
		t.Fatalf("disabled cache reported stats %d/%d", h, r)
	}
	readBack(out)

	// A Sparse.Enc that is not Enc would be silently ignored: refused.
	split := DefaultOptions()
	split.Sparse.Enc = enc.DefaultOptions()
	if _, err := NewWriter(&bytes.Buffer{}, schema, split); err == nil || !strings.Contains(err.Error(), "Sparse.Enc") {
		t.Fatalf("a Sparse.Enc other than Enc was not refused: %v", err)
	}
	split.Sparse.Enc = split.Enc
	if _, err := NewWriter(&bytes.Buffer{}, schema, split); err != nil {
		t.Fatalf("Sparse.Enc set to Enc itself was refused: %v", err)
	}
}

// TestWriterRecycledBatchBuffer: Write copies the batch's top-level
// column slices, so a caller may refill the same buffers for the next
// batch even while earlier groups are still encoding asynchronously.
func TestWriterRecycledBatchBuffer(t *testing.T) {
	schema, err := NewSchema(Field{Name: "v", Type: Type{Kind: Int64}})
	if err != nil {
		t.Fatal(err)
	}
	const batchRows, nBatches = 512, 16
	buf := make(Int64Data, batchRows) // recycled across every Write
	batch, err := NewBatch(schema, []ColumnData{buf})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	w, err := NewWriter(&out, schema, &Options{
		RowsPerPage:   128,
		GroupRows:     512, // every batch cuts (and dispatches) a group
		Compliance:    Level1,
		EncodeWorkers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for bi := 0; bi < nBatches; bi++ {
		for r := range buf {
			buf[r] = int64(bi*batchRows + r)
		}
		if err := w.Write(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := Open(bytes.NewReader(out.Bytes()), int64(out.Len()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadColumn("v")
	if err != nil {
		t.Fatal(err)
	}
	vals := got.(Int64Data)
	for i, v := range vals {
		if v != int64(i) {
			t.Fatalf("row %d = %d, want %d: writer aliased the recycled batch buffer", i, v, i)
		}
	}
}

// TestWriterRejectsForeignSchemaTypes: a batch from a different schema
// with the same column count but mismatched types must be rejected, not
// panic in appendColumn.
func TestWriterRejectsForeignSchemaTypes(t *testing.T) {
	intSchema, err := NewSchema(Field{Name: "a", Type: Type{Kind: Int64}})
	if err != nil {
		t.Fatal(err)
	}
	floatSchema, err := NewSchema(Field{Name: "a", Type: Type{Kind: Float64}})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := NewBatch(floatSchema, []ColumnData{Float64Data{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	w, err := NewWriter(&out, intSchema, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(batch); err == nil {
		t.Fatal("writer accepted a type-mismatched batch")
	}
}

// TestWriterBoundedInflight: MaxInflightGroups=1 forces full pipeline
// drain between groups and must still complete and verify.
func TestWriterBoundedInflight(t *testing.T) {
	schema, batch, opts := goldenTable(t)
	o := opts.clone()
	o.EncodeWorkers = 4
	o.MaxInflightGroups = 1
	var buf bytes.Buffer
	w, err := NewWriter(&buf, schema, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(batch); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := Open(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
	if f.NumRows() != uint64(batch.NumRows()) {
		t.Fatalf("rows = %d, want %d", f.NumRows(), batch.NumRows())
	}
}
