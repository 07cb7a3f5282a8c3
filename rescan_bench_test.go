package bullion

// BenchmarkDatasetRescanWarmLatency backs ci.yml's 2000 allocs/op ceiling
// on a warm open-scan-close, and b.Fatals if any member read — metadata
// or data — reaches the backend, so running it is the metadata-reads=0
// check. Each iteration opens a fresh Dataset handle over 1 ms-per-read
// storage, runs one selective 2-column scan over an 8-member dataset
// through a pre-warmed shared cache, and closes: the serving-tier access
// pattern where handle lifetime is short but the dataset is hot. The
// end-to-end rescan numbers are remote_rescan_fits in bench/README.md.

import (
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

const (
	rescanFiles   = 8
	rescanRows    = 4096
	rescanLatency = time.Millisecond
)

// rescanHot is two physically adjacent columns: one coalesced data run
// per member.
var rescanHot = []string{"key", "feat_001"}

var rescanDir = sync.OnceValue(func() string {
	return tempBenchDataset(Level2, rescanFiles, rescanRows, 8, rowPlusCol)
})

// meteredReader models 1ms-latency storage and classifies member reads:
// a read ending within the footer region (last 8 bytes hold the
// trailer, the footer block ends 8 bytes before EOF) is metadata.
type meteredReader struct {
	r    io.ReaderAt
	size int64
	meta *atomic.Int64
	data *atomic.Int64
}

func (m *meteredReader) ReadAt(p []byte, off int64) (int, error) {
	time.Sleep(rescanLatency)
	if off+int64(len(p)) >= m.size-8 {
		m.meta.Add(1)
	} else {
		m.data.Add(1)
	}
	return m.r.ReadAt(p, off)
}

// rescanOnce is one serving-tier request: open, selectively scan, close.
func rescanOnce(b *testing.B, dir string, opts *DatasetOptions) {
	b.Helper()
	d, err := OpenDataset(dir, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	sc, err := d.Scan(DatasetScanOptions{
		ScanOptions: ScanOptions{
			Columns:      rescanHot,
			BatchRows:    rescanRows,
			Workers:      1,
			ReuseBatches: true,
		},
		FileConcurrency: 1, // serial: the latency axis
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
	sc.Close()
	if rows != rescanFiles*rescanRows {
		b.Fatalf("scanned %d rows, want %d", rows, rescanFiles*rescanRows)
	}
}

func BenchmarkDatasetRescanWarmLatency(b *testing.B) {
	dir := rescanDir()
	var meta, data atomic.Int64
	c := NewCache(CacheOptions{})
	defer c.Close()
	opts := &DatasetOptions{
		WrapReader: func(name string, r io.ReaderAt, size int64) io.ReaderAt {
			return &meteredReader{r: r, size: size, meta: &meta, data: &data}
		},
		Cache: c,
	}
	rescanOnce(b, dir, opts) // fill the cache outside the timer
	meta.Store(0)
	data.Store(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rescanOnce(b, dir, opts)
	}
	b.StopTimer()
	b.ReportMetric(float64(meta.Load())/float64(b.N), "metareads/op")
	b.ReportMetric(float64(data.Load())/float64(b.N), "datareads/op")
	if meta.Load() != 0 {
		b.Fatalf("warm rescans issued %d member metadata reads, want 0", meta.Load())
	}
	if data.Load() != 0 {
		b.Fatalf("warm rescans issued %d member data reads, want 0", data.Load())
	}
}
