package bullion

// Dataset-layer benchmarks: an 8-file dataset of 16 int64 columns, keys
// globally increasing so each member file covers a disjoint key/row
// range. Three effects are measured (end-to-end numbers: bench/README.md):
//
//   - multi-file overlap: FileConcurrency 8 vs 1 (single-file-sequential)
//     on the 1 ms-per-ReadAt blob model — concurrent member engines hide
//     each other's storage latency;
//   - file-level pruning: a selective Range touches one member file;
//     ReadOps confirms the other seven are never read (they are never
//     even opened — pruning happens on the manifest alone);
//   - allocation flatness: the in-memory variant drives the CI allocs/op
//     ceiling alongside the single-file coalesced-scan ceiling.

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"
)

const (
	dsBenchFiles   = 8
	dsBenchRows    = 8192 // rows per member file
	dsBenchCols    = 16
	dsBenchLatency = time.Millisecond
)

var dsBench struct {
	once sync.Once
	dir  string
	mem  *Dataset // direct readers (page-cache-hot model)
	blob *Dataset // every member ReadAt carries dsBenchLatency
}

// dsBenchDataset builds the shared on-disk dataset once per process and
// opens one handle per storage model (member opens are cached per
// handle, so steady-state iterations issue data reads only).
func dsBenchDataset(b *testing.B, latency time.Duration) *Dataset {
	b.Helper()
	dsBench.once.Do(func() {
		dir, err := os.MkdirTemp("", "bullion-dsbench")
		if err != nil {
			panic(err)
		}
		dsBench.dir = dir
		fields := make([]Field, dsBenchCols)
		for c := range fields {
			fields[c] = Field{Name: fmt.Sprintf("feat_%03d", c), Type: Type{Kind: Int64}}
		}
		fields[0].Name = "key"
		schema, err := NewSchema(fields...)
		if err != nil {
			panic(err)
		}
		opts := DefaultOptions()
		opts.GroupRows = dsBenchRows
		opts.Compliance = Level1
		ds, err := CreateDataset(dir, schema, &DatasetOptions{Writer: opts})
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(4177))
		for f := 0; f < dsBenchFiles; f++ {
			cols := make([]ColumnData, dsBenchCols)
			for c := range cols {
				vals := make(Int64Data, dsBenchRows)
				if c == 0 {
					for r := range vals {
						vals[r] = int64(f*dsBenchRows + r)
					}
				} else {
					for r := range vals {
						vals[r] = rng.Int63n(1 << 20)
					}
				}
				cols[c] = vals
			}
			batch, err := NewBatch(schema, cols)
			if err != nil {
				panic(err)
			}
			if err := ds.Append(batch); err != nil {
				panic(err)
			}
		}
		ds.Close()

		// DisableCache keeps these benches measuring the raw scan path:
		// with the shared artifact cache on, the page tier would absorb
		// the modeled blob latency and readops/op would collapse to the
		// cache-miss fraction (that effect has its own benchmark pair in
		// rescan_bench_test.go).
		if dsBench.mem, err = OpenDataset(dir, &DatasetOptions{DisableCache: true}); err != nil {
			panic(err)
		}
		dsBench.blob, err = OpenDataset(dir, &DatasetOptions{
			DisableCache: true,
			WrapReader: func(name string, r io.ReaderAt, size int64) io.ReaderAt {
				return &latencyReaderAt{r: r, d: dsBenchLatency}
			},
		})
		if err != nil {
			panic(err)
		}
	})
	if latency > 0 {
		return dsBench.blob
	}
	return dsBench.mem
}

// dsBenchHot is the blob benches' projection: 2 physically adjacent
// columns, so each member file costs exactly one coalesced data read and
// the member's wall-clock is dominated by storage latency — the axis the
// FileConcurrency comparison isolates. The in-memory benches project all
// 16 columns (decode-bound).
var dsBenchHot = []string{"key", "feat_001"}

// benchDatasetScan drives one full (or Range-restricted) dataset scan per
// iteration, verifying row counts and reporting rows/sec, readops, and
// file pruning.
func benchDatasetScan(b *testing.B, fileConc int, latency time.Duration, rng *RowRange, cols []string) {
	ds := dsBenchDataset(b, latency)
	wantRows := dsBenchFiles * dsBenchRows
	if rng != nil {
		wantRows = int(rng.Hi - rng.Lo)
	}
	opts := DatasetScanOptions{
		ScanOptions: ScanOptions{
			Columns:      cols,
			BatchRows:    dsBenchRows,
			Workers:      1, // isolate the file-level axis
			Range:        rng,
			ReuseBatches: true,
		},
		FileConcurrency: fileConc,
	}
	// Warm member handles (footer opens) outside the timed region.
	warm, err := ds.Scan(opts)
	if err != nil {
		b.Fatal(err)
	}
	warm.Close()

	b.ReportAllocs()
	b.ResetTimer()
	var readOps, pruned int64
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
		stats := sc.Stats()
		readOps += stats.ReadOps
		pruned += int64(stats.FilesPruned)
		sc.Close()
		if rows != wantRows {
			b.Fatalf("scanned %d rows, want %d", rows, wantRows)
		}
	}
	b.ReportMetric(float64(readOps)/float64(b.N), "readops/op")
	b.ReportMetric(float64(pruned)/float64(b.N), "filespruned/op")
	rows := float64(wantRows) * float64(b.N)
	b.ReportMetric(rows/b.Elapsed().Seconds(), "rows/sec")
}

// In-memory, full 16-column projection: the allocation-flatness axis (CI
// pins allocs/op on the 1-file-at-a-time variant).
func BenchmarkDatasetScan1(b *testing.B) { benchDatasetScan(b, 1, 0, nil, nil) }
func BenchmarkDatasetScan8(b *testing.B) { benchDatasetScan(b, 8, 0, nil, nil) }

// Blob, hot 2-column projection: FileConcurrency 8 vs the
// single-file-sequential baseline on 1 ms-latency storage — the
// acceptance pair.
func BenchmarkDatasetScanBlob1(b *testing.B) { benchDatasetScan(b, 1, dsBenchLatency, nil, dsBenchHot) }
func BenchmarkDatasetScanBlob8(b *testing.B) { benchDatasetScan(b, 8, dsBenchLatency, nil, dsBenchHot) }

// Pruned: a selective Range covering exactly member file 5. FilesPruned
// must be 7 and readops/op counts only the matching file's reads.
func BenchmarkDatasetScanPrunedBlob(b *testing.B) {
	benchDatasetScan(b, 8, dsBenchLatency, &RowRange{Lo: 5 * dsBenchRows, Hi: 6 * dsBenchRows}, dsBenchHot)
}
