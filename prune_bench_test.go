package bullion

// Pruning microbenchmarks (the end-to-end pruned scan is ads_scan_cold in
// bench/README.md): what the statistics system saves on selective scans.
//
//   - BenchmarkScanPrunedFloat: one file, float64 key increasing with the
//     row id, a float range filter covering ~1/16 of the value space —
//     page zone maps prune the batches outside the band before any I/O.
//     BenchmarkScanUnprunedFloat is the same scan without the filter.
//   - BenchmarkDatasetScanBloom: an 8-member dataset where every member
//     has a disjoint tag universe and a disjoint float band, scanned with
//     a string-membership filter matching one member — the manifest's
//     per-member blooms prune 7 of 8 files without opening them.
//     BenchmarkDatasetScanFloatZone does the same through float zones.

import (
	"fmt"
	"io"
	"os"
	"sync"
	"testing"
	"time"
)

const (
	pruneBenchRows  = 1 << 15 // single-file benchmark rows
	pruneBenchFiles = 8
	pruneBenchPerF  = 4096 // rows per dataset member
)

var pruneBench struct {
	once sync.Once
	mf   *memReaderAt
}

type memReaderAt struct{ data []byte }

func (m *memReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// pruneBenchFile writes the single-file table once: a float64 key
// increasing with the row id (so page zone maps are maximally selective)
// plus an int payload column.
func pruneBenchFile(b *testing.B) *File {
	b.Helper()
	pruneBench.once.Do(func() {
		schema, err := NewSchema(
			Field{Name: "fkey", Type: Type{Kind: Float64}},
			Field{Name: "payload", Type: Type{Kind: Int64}},
		)
		if err != nil {
			panic(err)
		}
		fkey := make(Float64Data, pruneBenchRows)
		payload := make(Int64Data, pruneBenchRows)
		for i := range fkey {
			fkey[i] = float64(i) / 3
			payload[i] = int64(i) * 7
		}
		batch, err := NewBatch(schema, []ColumnData{fkey, payload})
		if err != nil {
			panic(err)
		}
		var buf writerBuffer
		opts := DefaultOptions()
		opts.GroupRows = 8192
		opts.Compliance = Level1
		w, err := NewWriter(&buf, schema, opts)
		if err != nil {
			panic(err)
		}
		if err := w.Write(batch); err != nil {
			panic(err)
		}
		if err := w.Close(); err != nil {
			panic(err)
		}
		pruneBench.mf = &memReaderAt{data: buf.data}
	})
	f, err := Open(pruneBench.mf, int64(len(pruneBench.mf.data)))
	if err != nil {
		b.Fatal(err)
	}
	return f
}

type writerBuffer struct{ data []byte }

func (w *writerBuffer) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}

// benchScanFloat drives one scan per iteration, optionally filtered to a
// narrow float band, and reports pruning effectiveness.
func benchScanFloat(b *testing.B, filtered bool) {
	f := pruneBenchFile(b)
	var filters []ColumnFilter
	lo, hi := 1000.0, 1600.0
	if filtered {
		filters = []ColumnFilter{{Column: "fkey", FloatMin: &lo, FloatMax: &hi}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var skipped, emitted, rows int64
	for i := 0; i < b.N; i++ {
		sc, err := f.Scan(ScanOptions{BatchRows: 1024, Workers: 1, Filters: filters, ReuseBatches: true})
		if err != nil {
			b.Fatal(err)
		}
		for {
			batch, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			rows += int64(batch.NumRows())
			sc.Recycle(batch)
		}
		st := sc.Stats()
		skipped += st.BatchesSkipped
		emitted += st.BatchesEmitted
		sc.Close()
	}
	if filtered && skipped == 0 {
		b.Fatal("float filter pruned nothing")
	}
	b.ReportMetric(float64(skipped)/float64(b.N), "batchesskipped/op")
	b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/sec")
}

func BenchmarkScanPrunedFloat(b *testing.B)   { benchScanFloat(b, true) }
func BenchmarkScanUnprunedFloat(b *testing.B) { benchScanFloat(b, false) }

var bloomBench struct {
	once sync.Once
	dir  string
	blob *Dataset
}

// bloomBenchDataset builds the disjoint-member dataset once: member i
// holds tags "m<i>-<k>" and float values in [i*1000, i*1000+1000).
func bloomBenchDataset(b *testing.B) *Dataset {
	b.Helper()
	bloomBench.once.Do(func() {
		dir, err := os.MkdirTemp("", "bullion-bloombench")
		if err != nil {
			panic(err)
		}
		bloomBench.dir = dir
		schema, err := NewSchema(
			Field{Name: "tag", Type: Type{Kind: String}},
			Field{Name: "fval", Type: Type{Kind: Float64}},
		)
		if err != nil {
			panic(err)
		}
		opts := DefaultOptions()
		opts.GroupRows = pruneBenchPerF
		opts.Compliance = Level1
		ds, err := CreateDataset(dir, schema, &DatasetOptions{Writer: opts})
		if err != nil {
			panic(err)
		}
		for i := 0; i < pruneBenchFiles; i++ {
			tags := make(BytesData, pruneBenchPerF)
			fv := make(Float64Data, pruneBenchPerF)
			for r := range tags {
				tags[r] = []byte(fmt.Sprintf("m%d-%d", i, r%64))
				fv[r] = float64(i*1000) + float64(r)/8
			}
			batch, err := NewBatch(schema, []ColumnData{tags, fv})
			if err != nil {
				panic(err)
			}
			if err := ds.Append(batch); err != nil {
				panic(err)
			}
		}
		ds.Close()
		bloomBench.blob, err = OpenDataset(dir, &DatasetOptions{
			WrapReader: func(name string, r io.ReaderAt, size int64) io.ReaderAt {
				return &latencyReaderAt{r: r, d: time.Millisecond}
			},
		})
		if err != nil {
			panic(err)
		}
	})
	return bloomBench.blob
}

// benchDatasetPruned scans the disjoint-member dataset behind 1 ms
// storage latency with a filter that only member 5 can satisfy; the
// manifest must prune the other 7 files before they are opened, so each
// iteration pays for one member's reads only.
func benchDatasetPruned(b *testing.B, filters []ColumnFilter) {
	ds := bloomBenchDataset(b)
	opts := DatasetScanOptions{
		ScanOptions: ScanOptions{
			BatchRows:    pruneBenchPerF,
			Workers:      1,
			Filters:      filters,
			ReuseBatches: true,
		},
		FileConcurrency: 8,
	}
	warm, err := ds.Scan(opts) // member footer opens, outside the timing
	if err != nil {
		b.Fatal(err)
	}
	warm.Close()

	b.ReportAllocs()
	b.ResetTimer()
	var pruned, readOps, rows int64
	for i := 0; i < b.N; i++ {
		sc, err := ds.Scan(opts)
		if err != nil {
			b.Fatal(err)
		}
		for {
			batch, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			rows += int64(batch.NumRows())
			sc.Recycle(batch)
		}
		st := sc.Stats()
		pruned += int64(st.FilesPruned)
		readOps += st.ReadOps
		sc.Close()
	}
	if got := pruned / int64(b.N); got != pruneBenchFiles-1 {
		b.Fatalf("pruned %d files/op, want %d", got, pruneBenchFiles-1)
	}
	b.ReportMetric(float64(pruned)/float64(b.N), "filespruned/op")
	b.ReportMetric(float64(readOps)/float64(b.N), "readops/op")
	b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/sec")
}

func BenchmarkDatasetScanBloom(b *testing.B) {
	benchDatasetPruned(b, []ColumnFilter{{Column: "tag", ValueIn: [][]byte{[]byte("m5-7")}}})
}

func BenchmarkDatasetScanFloatZone(b *testing.B) {
	lo, hi := 5100.0, 5400.0
	benchDatasetPruned(b, []ColumnFilter{{Column: "fval", FloatMin: &lo, FloatMax: &hi}})
}
