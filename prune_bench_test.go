package bullion

// Pruning benchmarks; ci.yml's bench smoke runs both, and each b.Fatals
// when its pruning level stops pruning (the end-to-end pruned scan is
// ads_scan_cold in bench/README.md):
//
//   - BenchmarkScanPrunedFloat: one file, float64 key increasing with the
//     row id, a float range filter covering ~1/16 of the value space —
//     page zone maps must prune batches before any I/O.
//   - BenchmarkDatasetScanBloom: an 8-member dataset where every member
//     has a disjoint tag universe, scanned with a string-membership filter
//     matching one member — the manifest's per-member blooms must prune
//     exactly 7 of 8 files without opening them.

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

// pruneBenchFile writes the single-file table once: a float64 key
// increasing with the row id (so page zone maps are maximally selective)
// plus an int payload column.
var pruneBenchFile = sync.OnceValue(func() *memFile {
	schema, err := NewSchema(
		Field{Name: "fkey", Type: Type{Kind: Float64}},
		Field{Name: "payload", Type: Type{Kind: Int64}},
	)
	must(err)
	fkey := make(Float64Data, pruneBenchRows)
	payload := make(Int64Data, pruneBenchRows)
	for i := range fkey {
		fkey[i] = float64(i) / 3
		payload[i] = int64(i) * 7
	}
	batch, err := NewBatch(schema, []ColumnData{fkey, payload})
	must(err)
	opts := DefaultOptions()
	opts.GroupRows = 8192
	opts.Compliance = Level1
	return writeMemFile(schema, batch, opts)
})

func BenchmarkScanPrunedFloat(b *testing.B) {
	mf := pruneBenchFile()
	f, err := Open(mf, mf.Size())
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := 1000.0, 1600.0
	filters := []ColumnFilter{{Column: "fkey", FloatMin: &lo, FloatMax: &hi}}
	b.ReportAllocs()
	b.ResetTimer()
	var skipped, rows int64
	for i := 0; i < b.N; i++ {
		sc, err := f.Scan(ScanOptions{BatchRows: 1024, Workers: 1, Filters: filters})
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
		skipped += sc.Stats().BatchesSkipped
		sc.Close()
	}
	if skipped == 0 {
		b.Fatal("float filter pruned nothing")
	}
	b.ReportMetric(float64(skipped)/float64(b.N), "batchesskipped/op")
	b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/sec")
}

// latencyReaderAt adds a fixed delay to every ReadAt — a first-order
// model of blob-storage TTFB.
type latencyReaderAt struct {
	r io.ReaderAt
	d time.Duration
}

func (l *latencyReaderAt) ReadAt(p []byte, off int64) (int, error) {
	time.Sleep(l.d)
	return l.r.ReadAt(p, off)
}

// bloomBenchDataset builds the disjoint-member dataset once — member i
// holds tags "m<i>-<k>" and float values in [i*1000, i*1000+1000) — and
// opens it behind 1 ms storage latency.
var bloomBenchDataset = sync.OnceValue(func() *Dataset {
	dir, err := os.MkdirTemp("", "bullion-bloombench")
	must(err)
	schema, err := NewSchema(
		Field{Name: "tag", Type: Type{Kind: String}},
		Field{Name: "fval", Type: Type{Kind: Float64}},
	)
	must(err)
	opts := DefaultOptions()
	opts.GroupRows = pruneBenchPerF
	opts.Compliance = Level1
	ds, err := CreateDataset(dir, schema, &DatasetOptions{Writer: opts})
	must(err)
	for i := 0; i < pruneBenchFiles; i++ {
		tags := make(BytesData, pruneBenchPerF)
		fv := make(Float64Data, pruneBenchPerF)
		for r := range tags {
			tags[r] = []byte(fmt.Sprintf("m%d-%d", i, r%64))
			fv[r] = float64(i*1000) + float64(r)/8
		}
		batch, err := NewBatch(schema, []ColumnData{tags, fv})
		must(err)
		must(ds.Append(batch))
	}
	ds.Close()
	ds, err = OpenDataset(dir, &DatasetOptions{
		WrapReader: func(name string, r io.ReaderAt, size int64) io.ReaderAt {
			return &latencyReaderAt{r: r, d: time.Millisecond}
		},
	})
	must(err)
	return ds
})

// BenchmarkDatasetScanBloom scans with a filter only member 5 can
// satisfy; the manifest must prune the other 7 files before they are
// opened, so each iteration pays for one member's reads only.
func BenchmarkDatasetScanBloom(b *testing.B) {
	ds := bloomBenchDataset()
	opts := DatasetScanOptions{
		ScanOptions: ScanOptions{
			BatchRows: pruneBenchPerF,
			Workers:   1,
			Filters:   []ColumnFilter{{Column: "tag", ValueIn: [][]byte{[]byte("m5-7")}}},
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
