package bullion

// Training-loader benchmarks over a 4-member local dataset (the
// end-to-end epoch numbers are remote_epoch_spills in bench/README.md):
//
//   - BenchmarkLoaderEpoch1Consumer streams one shuffled epoch per
//     iteration through Next; ci.yml's bench smoke runs it, and it
//     b.Fatals unless the epoch emits every row.
//   - BenchmarkLoaderPlan backs ci.yml's 25 allocs/op ceiling on the
//     shuffle plan, and b.Fatals if planning opens or reads a member —
//     the plan is a pure function of the manifest's row counts — so
//     running it is the zero-data-reads check.

import (
	"io"
	"sync"
	"sync/atomic"
	"testing"
)

const (
	ldrBenchFiles = 4
	ldrBenchRows  = 65536 // rows per member
	ldrBenchShard = 8192
)

var ldrBenchHot = []string{"key", "feat_001"}

var ldrBenchDir = sync.OnceValue(func() string {
	return tempBenchDataset(Level1, ldrBenchFiles, ldrBenchRows, 8, rowPlusCol)
})

func BenchmarkLoaderEpoch1Consumer(b *testing.B) {
	ds, err := OpenDataset(ldrBenchDir(), nil)
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
		rows := 0
		for {
			batch, err := ld.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			rows += batch.NumRows()
		}
		ld.Close()
		if rows != totalRows {
			b.Fatalf("epoch emitted %d rows, want %d", rows, totalRows)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(totalRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
}

// countingReaderAt counts member reads.
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
// without emitting a batch.
func BenchmarkLoaderPlan(b *testing.B) {
	var opens, reads atomic.Int64
	ds, err := OpenDataset(ldrBenchDir(), &DatasetOptions{
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
