package bullion

// BenchmarkDatasetScan1 backs ci.yml's 1500 allocs/op ceiling on the
// dataset layer, and b.Fatals on a short scan: an 8-file dataset of 16
// int64 columns, keys globally increasing so each member covers a
// disjoint key/row range, scanned in full one member at a time from
// page-cache-hot files (the end-to-end numbers are in bench/README.md).
// This file also holds writeBenchDataset, the one builder of the
// key/feat_NNN datasets the rescan, loader and remote benchmarks read.

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"testing"
)

const (
	dsBenchFiles = 8
	dsBenchRows  = 8192 // rows per member file
	dsBenchCols  = 16
)

// writeBenchDataset creates a dataset at dir on backend (nil: the local
// filesystem) of files members with rows rows each — one Append and one
// row group per member, at compliance level — over int64 columns key,
// feat_001, …, feat_<cols-1>. Column c at global row g holds val(g, c),
// drawn member by member, column by column, row by row.
func writeBenchDataset(dir string, backend StorageBackend, level Level, files, rows, cols int, val func(g, c int) int64) error {
	fields := make([]Field, cols)
	for c := range fields {
		fields[c] = Field{Name: fmt.Sprintf("feat_%03d", c), Type: Type{Kind: Int64}}
	}
	fields[0].Name = "key"
	schema, err := NewSchema(fields...)
	if err != nil {
		return err
	}
	opts := DefaultOptions()
	opts.GroupRows = rows
	opts.Compliance = level
	ds, err := CreateDataset(dir, schema, &DatasetOptions{Writer: opts, Backend: backend})
	if err != nil {
		return err
	}
	defer ds.Close()
	for f := 0; f < files; f++ {
		data := make([]ColumnData, cols)
		for c := range data {
			vals := make(Int64Data, rows)
			for r := range vals {
				vals[r] = val(f*rows+r, c)
			}
			data[c] = vals
		}
		batch, err := NewBatch(schema, data)
		if err != nil {
			return err
		}
		if err := ds.Append(batch); err != nil {
			return err
		}
	}
	return nil
}

// rowPlusCol is the value function of the rescan, loader and remote
// datasets.
func rowPlusCol(g, c int) int64 { return int64(g + c) }

// tempBenchDataset writes a local dataset with writeBenchDataset into a
// fresh temporary directory — not b.TempDir(), since the dataset outlives
// the benchmark that builds it — and returns the directory.
func tempBenchDataset(level Level, files, rows, cols int, val func(g, c int) int64) string {
	dir, err := os.MkdirTemp("", "bullion-bench")
	must(err)
	must(writeBenchDataset(dir, nil, level, files, rows, cols, val))
	return dir
}

// dsBenchDataset opens the dataset uncached, so the benchmark measures the
// raw scan path rather than the artifact cache's page tier (which
// BenchmarkDatasetRescanWarmLatency covers).
var dsBenchDataset = sync.OnceValue(func() *Dataset {
	rng := rand.New(rand.NewSource(4177))
	dir := tempBenchDataset(Level1, dsBenchFiles, dsBenchRows, dsBenchCols, func(g, c int) int64 {
		if c == 0 {
			return int64(g)
		}
		return rng.Int63n(1 << 20)
	})
	ds, err := OpenDataset(dir, &DatasetOptions{DisableCache: true})
	must(err)
	return ds
})

// BenchmarkDatasetScan1 drives one full 16-column scan per iteration,
// verifying row counts and reporting rows/sec and readops.
func BenchmarkDatasetScan1(b *testing.B) {
	ds := dsBenchDataset()
	const wantRows = dsBenchFiles * dsBenchRows
	opts := DatasetScanOptions{
		ScanOptions: ScanOptions{
			BatchRows:    dsBenchRows,
			Workers:      1, // isolate the file-level axis
			ReuseBatches: true,
		},
		FileConcurrency: 1,
	}
	// Warm member handles (footer opens) outside the timed region.
	warm, err := ds.Scan(opts)
	if err != nil {
		b.Fatal(err)
	}
	warm.Close()

	b.ReportAllocs()
	b.ResetTimer()
	var readOps int64
	for i := 0; i < b.N; i++ {
		sc, err := ds.Scan(opts)
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
		if rows != wantRows {
			b.Fatalf("scanned %d rows, want %d", rows, wantRows)
		}
	}
	b.ReportMetric(float64(readOps)/float64(b.N), "readops/op")
	b.ReportMetric(float64(wantRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
}
