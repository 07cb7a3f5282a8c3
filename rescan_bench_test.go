package bullion

// Repeated-scan microbenchmarks for the shared artifact cache (the
// end-to-end rescan numbers are remote_rescan_fits in bench/README.md):
// each iteration opens a fresh Dataset handle, runs
// one selective 2-column scan over an 8-member dataset, and closes —
// the serving-tier access pattern where handle lifetime is short but
// the dataset is hot. The cold variants disable caching, so every
// iteration re-pays member opens, footer parses, and data reads; the
// warm variants share one pre-warmed cache across iterations, so a
// handle's scans are served from memory. Two storage models:
//
//   - latency: every member read costs 1ms (object-storage model). The
//     acceptance comparison: warm must beat cold by >=5x, with zero
//     member metadata reads (footer trailer/block) in the warm loop.
//   - HTTP: a real httptest range-read server. The reqs/op metric shows
//     the round-trip collapse (HEAD + footer GETs + data GETs per
//     member cold; nothing but the manifest probes warm).

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

const (
	rescanFiles   = 8
	rescanRows    = 4096
	rescanCols    = 8
	rescanLatency = time.Millisecond
)

// rescanHot mirrors dsBenchHot: two physically adjacent columns, one
// coalesced data run per member.
var rescanHot = []string{"key", "feat_001"}

var rescanBench struct {
	once sync.Once
	dir  string
}

func rescanDir(b *testing.B) string {
	b.Helper()
	rescanBench.once.Do(func() {
		// Not b.TempDir(): the dataset outlives the benchmark that builds
		// it (shared across the cold/warm × latency/HTTP variants).
		dir, err := os.MkdirTemp("", "bullion-rescan")
		if err != nil {
			panic(err)
		}
		fields := make([]Field, rescanCols)
		for c := range fields {
			fields[c] = Field{Name: fmt.Sprintf("feat_%03d", c), Type: Type{Kind: Int64}}
		}
		fields[0].Name = "key"
		schema, err := NewSchema(fields...)
		if err != nil {
			panic(err)
		}
		opts := DefaultOptions()
		opts.GroupRows = rescanRows
		ds, err := CreateDataset(dir, schema, &DatasetOptions{Writer: opts})
		if err != nil {
			panic(err)
		}
		for f := 0; f < rescanFiles; f++ {
			cols := make([]ColumnData, rescanCols)
			for c := range cols {
				vals := make(Int64Data, rescanRows)
				for r := range vals {
					vals[r] = int64(f*rescanRows + r + c)
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
		rescanBench.dir = dir
	})
	return rescanBench.dir
}

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
		FileConcurrency: 1, // serial: the latency axis, as in dsBench
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

func benchRescanLatency(b *testing.B, warm bool) {
	dir := rescanDir(b)
	var meta, data atomic.Int64
	opts := &DatasetOptions{
		WrapReader: func(name string, r io.ReaderAt, size int64) io.ReaderAt {
			return &meteredReader{r: r, size: size, meta: &meta, data: &data}
		},
	}
	if warm {
		c := NewCache(CacheOptions{})
		defer c.Close()
		opts.Cache = c
		rescanOnce(b, dir, opts) // fill the cache outside the timer
	} else {
		opts.DisableCache = true
	}
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
	if warm && meta.Load() != 0 {
		b.Fatalf("warm rescans issued %d member metadata reads, want 0", meta.Load())
	}
	if warm && data.Load() != 0 {
		b.Fatalf("warm rescans issued %d member data reads, want 0", data.Load())
	}
}

// The acceptance pair: warm must be >=5x cold, with
// the warm loop touching the modeled backend zero times.
func BenchmarkDatasetRescanColdLatency(b *testing.B) { benchRescanLatency(b, false) }
func BenchmarkDatasetRescanWarmLatency(b *testing.B) { benchRescanLatency(b, true) }

func benchRescanHTTP(b *testing.B, warm bool) {
	dir := rescanDir(b)
	backend, err := NewLocalBackend(dir)
	if err != nil {
		b.Fatal(err)
	}
	var total, member atomic.Int64
	h := DatasetHTTPHandler(backend)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		total.Add(1)
		if len(r.URL.Path) > 6 && r.URL.Path[:6] == "/part-" {
			member.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	opts := &DatasetOptions{}
	if warm {
		c := NewCache(CacheOptions{})
		defer c.Close()
		opts.Cache = c
		rescanOnce(b, srv.URL, opts)
	} else {
		opts.DisableCache = true
	}
	total.Store(0)
	member.Store(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rescanOnce(b, srv.URL, opts)
	}
	b.StopTimer()
	b.ReportMetric(float64(total.Load())/float64(b.N), "reqs/op")
	b.ReportMetric(float64(member.Load())/float64(b.N), "memberreqs/op")
	if warm && member.Load() != 0 {
		b.Fatalf("warm rescans issued %d member requests, want 0", member.Load())
	}
}

// HTTP pair: warm rescans collapse to the two manifest probes per open;
// every member HEAD/GET disappears into the cache.
func BenchmarkDatasetRescanColdHTTP(b *testing.B) { benchRescanHTTP(b, false) }
func BenchmarkDatasetRescanWarmHTTP(b *testing.B) { benchRescanHTTP(b, true) }
