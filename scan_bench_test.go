package bullion

// BenchmarkScanCoalesced1 backs ci.yml's 600 allocs/op ceiling on the
// steady-state coalesced scan, and b.Fatals on a short scan. It is the
// §2.5 pairing: 16 hot features scattered across a 64-column table are
// reordered to the front at write time (ReorderFields), so a hot-set
// projection touches 16 physically adjacent chunks per row group; the
// scan reads each group's hot set in one I/O and decodes into recycled
// batch storage. The end-to-end scan numbers are ads_scan_cold in
// bench/README.md.

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
)

const (
	wideBenchCols  = 64
	wideBenchRows  = 32768
	wideBenchGroup = 8192 // 4 row groups
)

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// memFile is a Bullion file held in memory: writers append, readers
// ReadAt.
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

func (m *memFile) Size() int64 { return int64(len(m.data)) }

// writeMemFile writes batch as one in-memory file.
func writeMemFile(schema *Schema, batch *Batch, opts *Options) *memFile {
	mf := &memFile{}
	w, err := NewWriter(mf, schema, opts)
	must(err)
	must(w.Write(batch))
	must(w.Close())
	return mf
}

// widetable returns the 64-column int64 table the scan and ingest
// benchmarks share: feat_000 … feat_063, values uniform in [0, 2^20)
// drawn column by column from seed.
func widetable(seed int64) ([]Field, []ColumnData) {
	rng := rand.New(rand.NewSource(seed))
	fields := make([]Field, wideBenchCols)
	cols := make([]ColumnData, wideBenchCols)
	for c := range cols {
		fields[c] = Field{Name: fmt.Sprintf("feat_%03d", c), Type: Type{Kind: Int64}}
		vals := make(Int64Data, wideBenchRows)
		for r := range vals {
			vals[r] = rng.Int63n(1 << 20)
		}
		cols[c] = vals
	}
	return fields, cols
}

// hotBenchFile writes the hot-reordered table once per process and
// returns it with the hot projection: every 4th feature, scattered
// before reordering.
var hotBenchFile = sync.OnceValues(func() (*memFile, []string) {
	fields, cols := widetable(977)
	var hot []string
	for c := 0; c < wideBenchCols; c += 4 {
		hot = append(hot, fields[c].Name)
	}
	schema, err := NewSchema(fields...)
	must(err)
	reordered, perm, err := ReorderFields(schema, hot)
	must(err)
	batch, err := NewBatch(reordered, ReorderBatchColumns(cols, perm))
	must(err)
	return writeMemFile(reordered, batch, &Options{
		RowsPerPage: 1024,
		GroupRows:   wideBenchGroup,
		Compliance:  Level1,
	}), hot
})

// BenchmarkScanCoalesced1 runs the hot projection on one worker with
// batch recycling, reporting rows/sec and physical read ops.
func BenchmarkScanCoalesced1(b *testing.B) {
	mf, names := hotBenchFile()
	f, err := Open(mf, mf.Size())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var readOps int64
	for i := 0; i < b.N; i++ {
		sc, err := f.Scan(ScanOptions{
			Columns:      names,
			Workers:      1,
			BatchRows:    8192,
			ReuseBatches: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		rows := 0
		for {
			batch, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			rows += batch.NumRows()
			sc.Recycle(batch)
		}
		readOps += sc.Stats().ReadOps
		sc.Close()
		if rows != wideBenchRows {
			b.Fatalf("scanned %d rows", rows)
		}
	}
	b.ReportMetric(float64(readOps)/float64(b.N), "readops/op")
	b.ReportMetric(float64(wideBenchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
}
