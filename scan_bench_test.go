package bullion

// Scan benchmarks over a 64-column feature table: the whole-table Project
// (one batch) and the batch-streaming hot-set scan at 1 and 8 workers.
// Two storage models bracket the regimes the paper targets:
//
//   - in-memory (page-cache-hot local file): decode-bound, so the win
//     from workers tracks available cores;
//   - "blob": every ReadAt carries fixed latency (object storage / cold
//     NVMe). Workers overlap reads with each other and with decode, so
//     the win appears even on a single core.
//
// The end-to-end scan numbers are ads_scan_cold in bench/README.md.

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"
)

const (
	scanBenchCols    = 64
	scanBenchRows    = 32768
	scanBenchGroup   = 8192 // 4 row groups
	scanBenchLatency = time.Millisecond
)

var scanBench struct {
	once  sync.Once
	file  *benchFile
	names []string
}

// scanBenchFile writes the shared 64-column table once per process.
func scanBenchFile(b *testing.B) (*benchFile, []string) {
	b.Helper()
	scanBench.once.Do(func() {
		rng := rand.New(rand.NewSource(1759))
		fields := make([]Field, scanBenchCols)
		cols := make([]ColumnData, scanBenchCols)
		names := make([]string, scanBenchCols)
		for c := 0; c < scanBenchCols; c++ {
			names[c] = fmt.Sprintf("feat_%03d", c)
			fields[c] = Field{Name: names[c], Type: Type{Kind: Int64}}
			vals := make(Int64Data, scanBenchRows)
			for r := range vals {
				vals[r] = rng.Int63n(1 << 20)
			}
			cols[c] = vals
		}
		schema, err := NewSchema(fields...)
		if err != nil {
			panic(err)
		}
		batch, err := NewBatch(schema, cols)
		if err != nil {
			panic(err)
		}
		mf := &benchFile{}
		w, err := NewWriter(mf, schema, &Options{
			RowsPerPage: 1024,
			GroupRows:   scanBenchGroup,
			Compliance:  Level1,
		})
		if err != nil {
			panic(err)
		}
		if err := w.Write(batch); err != nil {
			panic(err)
		}
		if err := w.Close(); err != nil {
			panic(err)
		}
		scanBench.file = mf
		scanBench.names = names
	})
	return scanBench.file, scanBench.names
}

// latencyReaderAt adds a fixed delay to every ReadAt — a first-order
// model of blob-storage TTFB. Sleeping goroutines release the CPU, so
// concurrent readers genuinely overlap.
type latencyReaderAt struct {
	r io.ReaderAt
	d time.Duration
}

func (l *latencyReaderAt) ReadAt(p []byte, off int64) (int, error) {
	time.Sleep(l.d)
	return l.r.ReadAt(p, off)
}

func openScanBench(b *testing.B, latency time.Duration) (*File, []string) {
	b.Helper()
	mf, names := scanBenchFile(b)
	var r io.ReaderAt = mf
	if latency > 0 {
		r = &latencyReaderAt{r: mf, d: latency}
	}
	f, err := Open(r, mf.Size())
	if err != nil {
		b.Fatal(err)
	}
	return f, names
}

func reportScanRate(b *testing.B) {
	rows := float64(scanBenchRows) * float64(b.N)
	b.ReportMetric(rows/b.Elapsed().Seconds(), "rows/sec")
}

func benchWholeColumn(b *testing.B, latency time.Duration) {
	f, names := openScanBench(b, latency)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch, err := f.Project(names...)
		if err != nil {
			b.Fatal(err)
		}
		if batch.NumRows() != scanBenchRows {
			b.Fatalf("projected %d rows", batch.NumRows())
		}
	}
	reportScanRate(b)
}

func BenchmarkScanWholeColumn(b *testing.B)     { benchWholeColumn(b, 0) }
func BenchmarkScanWholeColumnBlob(b *testing.B) { benchWholeColumn(b, scanBenchLatency) }

// ---- Coalesced scan on the hot-reordered widetable workload ----
//
// The §2.5 pairing: 16 hot features scattered across a 64-column table
// are reordered to the front at write time (ReorderFields), so a hot-set
// projection touches 16 physically adjacent chunks per row group. The
// scan then reads each group's hot set in one I/O and decodes into
// recycled batch storage.

const hotBenchCols = 16

var hotBench struct {
	once  sync.Once
	file  *benchFile
	names []string // the hot projection, in reordered (= schema) order
}

// hotBenchFile writes the shared hot-reordered table once per process.
func hotBenchFile(b *testing.B) (*benchFile, []string) {
	b.Helper()
	hotBench.once.Do(func() {
		rng := rand.New(rand.NewSource(977))
		fields := make([]Field, scanBenchCols)
		cols := make([]ColumnData, scanBenchCols)
		var hot []string
		for c := 0; c < scanBenchCols; c++ {
			name := fmt.Sprintf("feat_%03d", c)
			fields[c] = Field{Name: name, Type: Type{Kind: Int64}}
			if c%4 == 0 { // every 4th feature is hot: scattered before reordering
				hot = append(hot, name)
			}
			vals := make(Int64Data, scanBenchRows)
			for r := range vals {
				vals[r] = rng.Int63n(1 << 20)
			}
			cols[c] = vals
		}
		schema, err := NewSchema(fields...)
		if err != nil {
			panic(err)
		}
		reordered, perm, err := ReorderFields(schema, hot)
		if err != nil {
			panic(err)
		}
		batch, err := NewBatch(reordered, ReorderBatchColumns(cols, perm))
		if err != nil {
			panic(err)
		}
		mf := &benchFile{}
		w, err := NewWriter(mf, reordered, &Options{
			RowsPerPage: 1024,
			GroupRows:   scanBenchGroup,
			Compliance:  Level1,
		})
		if err != nil {
			panic(err)
		}
		if err := w.Write(batch); err != nil {
			panic(err)
		}
		if err := w.Close(); err != nil {
			panic(err)
		}
		hotBench.file = mf
		hotBench.names = hot
	})
	return hotBench.file, hotBench.names
}

// benchHotScan runs the hot projection with batch recycling, reporting
// rows/sec, physical read ops, and (via -benchmem / ReportAllocs)
// allocations per scanned file.
func benchHotScan(b *testing.B, workers int, latency time.Duration) {
	mf, names := hotBenchFile(b)
	if len(names) != hotBenchCols {
		b.Fatalf("hot set has %d columns", len(names))
	}
	var r io.ReaderAt = mf
	if latency > 0 {
		r = &latencyReaderAt{r: mf, d: latency}
	}
	f, err := Open(r, mf.Size())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var readOps int64
	for i := 0; i < b.N; i++ {
		sc, err := f.Scan(ScanOptions{
			Columns:      names,
			Workers:      workers,
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
		if rows != scanBenchRows {
			b.Fatalf("scanned %d rows", rows)
		}
	}
	b.ReportMetric(float64(readOps)/float64(b.N), "readops/op")
	reportScanRate(b)
}

// BenchmarkScanCoalesced*: planner + pooled run buffers + batch recycling.
func BenchmarkScanCoalesced1(b *testing.B) { benchHotScan(b, 1, 0) }
func BenchmarkScanCoalesced8(b *testing.B) { benchHotScan(b, 8, 0) }

// Blob variants: with per-read latency, one read per row group is a
// direct wall-clock win even before decode cost matters.
func BenchmarkScanCoalescedBlob1(b *testing.B) { benchHotScan(b, 1, scanBenchLatency) }
func BenchmarkScanCoalescedBlob8(b *testing.B) { benchHotScan(b, 8, scanBenchLatency) }
