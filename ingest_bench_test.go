package bullion

// BenchmarkIngest1 backs ci.yml's 150 MB B/op ceiling on the write path:
// the pipelined writer at one encode worker with the per-column selector
// cache, writing the 64-column widetable into a sink that keeps nothing.
// Trial encodes draw DEFLATE state from a pool; a fresh flate writer per
// trial put this near 300 MB/op. Byte-identical output at every worker
// count is TestParallelWriterDeterminism's job (internal/core); the
// end-to-end ingest numbers are ads_ingest in bench/README.md.

import (
	"io"
	"sync"
	"testing"
)

const ingestBenchBatch = 4096

// ingestBenchData cuts the widetable into 4096-row batches once per
// process.
var ingestBenchData = sync.OnceValues(func() (*Schema, []*Batch) {
	fields, cols := widetable(1759)
	schema, err := NewSchema(fields...)
	must(err)
	var batches []*Batch
	for lo := 0; lo < wideBenchRows; lo += ingestBenchBatch {
		bcols := make([]ColumnData, len(cols))
		for c := range bcols {
			bcols[c] = cols[c].(Int64Data)[lo : lo+ingestBenchBatch]
		}
		batch, err := NewBatch(schema, bcols)
		must(err)
		batches = append(batches, batch)
	}
	return schema, batches
})

func BenchmarkIngest1(b *testing.B) {
	b.ReportAllocs()
	schema, batches := ingestBenchData()
	opts := &Options{
		RowsPerPage:   1024,
		GroupRows:     wideBenchGroup,
		Compliance:    Level1,
		EncodeWorkers: 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := NewWriter(io.Discard, schema, opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, batch := range batches {
			if err := w.Write(batch); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(wideBenchRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
}
