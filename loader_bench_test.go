package bullion

// Training-loader microbenchmarks (the end-to-end epoch numbers are
// remote_epoch_spills in bench/README.md): epoch
// streaming throughput at 1 and 8 consumers over a multi-member local
// dataset, and the shuffle-plan cost in isolation. The plan benchmark
// wraps every member reader in a counter and self-asserts that planning
// a loader touches zero member bytes (b.Fatal otherwise) — the plan is
// a pure function of the manifest's row counts — so "zero data reads
// during planning" is enforced on every run, including CI smoke.

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"testing"
)

const (
	ldrBenchFiles = 4
	ldrBenchRows  = 65536 // rows per member
	ldrBenchCols  = 8
	ldrBenchShard = 8192
)

var ldrBenchHot = []string{"key", "feat_001"}

var ldrBench struct {
	once sync.Once
	dir  string
}

func ldrBenchDir(b *testing.B) string {
	b.Helper()
	ldrBench.once.Do(func() {
		// Not b.TempDir(): the dataset outlives the benchmark that builds
		// it (shared across the consumer-count variants).
		dir, err := os.MkdirTemp("", "bullion-loaderbench")
		if err != nil {
			panic(err)
		}
		fields := make([]Field, ldrBenchCols)
		for c := range fields {
			fields[c] = Field{Name: fmt.Sprintf("feat_%03d", c), Type: Type{Kind: Int64}}
		}
		fields[0].Name = "key"
		schema, err := NewSchema(fields...)
		if err != nil {
			panic(err)
		}
		ds, err := CreateDataset(dir, schema, nil)
		if err != nil {
			panic(err)
		}
		for f := 0; f < ldrBenchFiles; f++ {
			cols := make([]ColumnData, ldrBenchCols)
			for c := range cols {
				vals := make(Int64Data, ldrBenchRows)
				for r := range vals {
					vals[r] = int64(f*ldrBenchRows + r + c)
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
		ldrBench.dir = dir
	})
	return ldrBench.dir
}

// benchLoaderEpoch streams one full epoch per iteration: consumers == 1
// drives Next directly, otherwise Feed fans batches out to the pool.
func benchLoaderEpoch(b *testing.B, consumers int) {
	dir := ldrBenchDir(b)
	ds, err := OpenDataset(dir, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	const totalRows = ldrBenchFiles * ldrBenchRows

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ld, err := NewLoader(ds, LoaderOptions{
			Columns:   ldrBenchHot,
			ShardRows: ldrBenchShard,
			Seed:      int64(i), // a different shuffle each iteration
		})
		if err != nil {
			b.Fatal(err)
		}
		var rows atomic.Int64
		if consumers == 1 {
			for {
				batch, err := ld.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
				rows.Add(int64(batch.NumRows()))
			}
		} else {
			err = ld.Feed(consumers, func(_ int, batch *Batch) error {
				rows.Add(int64(batch.NumRows()))
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		ld.Close()
		if rows.Load() != totalRows {
			b.Fatalf("epoch emitted %d rows, want %d", rows.Load(), totalRows)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(totalRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
}

func BenchmarkLoaderEpoch1Consumer(b *testing.B)  { benchLoaderEpoch(b, 1) }
func BenchmarkLoaderEpoch8Consumers(b *testing.B) { benchLoaderEpoch(b, 8) }

// countingReaderAt counts member reads so the plan benchmark can prove
// planning never touches member bytes.
type countingReaderAt struct {
	r     io.ReaderAt
	reads *atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.reads.Add(1)
	return c.r.ReadAt(p, off)
}

// BenchmarkLoaderPlan measures the shuffle-plan cost alone: construct a
// loader (manifest walk + first-epoch permutation seeding) and close it
// without emitting a batch. Zero member reads, by assertion.
func BenchmarkLoaderPlan(b *testing.B) {
	dir := ldrBenchDir(b)
	var opens, reads atomic.Int64
	ds, err := OpenDataset(dir, &DatasetOptions{
		WrapReader: func(name string, r io.ReaderAt, size int64) io.ReaderAt {
			opens.Add(1)
			return &countingReaderAt{r: r, reads: &reads}
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()

	opens.Store(0)
	reads.Store(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ld, err := NewLoader(ds, LoaderOptions{
			Columns:   ldrBenchHot,
			ShardRows: ldrBenchShard,
			Seed:      int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if ld.NumShards() != ldrBenchFiles*ldrBenchRows/ldrBenchShard {
			b.Fatalf("planned %d shards", ld.NumShards())
		}
		ld.Close()
	}
	b.StopTimer()
	if opens.Load() != 0 || reads.Load() != 0 {
		b.Fatalf("planning opened %d members and issued %d reads, want 0/0",
			opens.Load(), reads.Load())
	}
}
