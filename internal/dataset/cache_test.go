package dataset

// Tests for the shared immutable-artifact cache wiring: parse-once
// semantics across concurrent Dataset handles, version-keyed
// invalidation (a replaced remote member can never serve stale bytes),
// race/leak behavior under concurrent open/scan/close/vacuum, and
// byte-identical scans with caching on, off, and pinned.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bullion/internal/cache"
	"bullion/internal/core"
	"bullion/internal/storage"
)

// countingBackend wraps a Backend and classifies every member-file read
// as metadata (footer trailer or footer block: read end within 8 bytes
// of the file end) or data, per file name.
type countingBackend struct {
	storage.Backend
	mu    sync.Mutex
	opens map[string]int
	meta  map[string]int
	data  map[string]int
}

func newCountingBackend(b storage.Backend) *countingBackend {
	return &countingBackend{
		Backend: b,
		opens:   map[string]int{},
		meta:    map[string]int{},
		data:    map[string]int{},
	}
}

func (b *countingBackend) ReadAt(name string) (storage.File, int64, error) {
	f, size, err := b.Backend.ReadAt(name)
	if err != nil {
		return nil, 0, err
	}
	b.mu.Lock()
	b.opens[name]++
	b.mu.Unlock()
	return &countingFile{File: f, b: b, name: name, size: size}, size, nil
}

// memberCounts sums opens/meta-reads/data-reads over part files only
// (manifest and CURRENT traffic is not the cache's to absorb).
func (b *countingBackend) memberCounts() (opens, meta, data int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for name, n := range b.opens {
		if strings.HasPrefix(name, "part-") {
			opens += n
		}
	}
	for name, n := range b.meta {
		if strings.HasPrefix(name, "part-") {
			meta += n
		}
	}
	for name, n := range b.data {
		if strings.HasPrefix(name, "part-") {
			data += n
		}
	}
	return opens, meta, data
}

type countingFile struct {
	storage.File
	b    *countingBackend
	name string
	size int64
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	f.b.mu.Lock()
	if off+int64(len(p)) >= f.size-8 {
		f.b.meta[f.name]++
	} else {
		f.b.data[f.name]++
	}
	f.b.mu.Unlock()
	return f.File.ReadAt(p, off)
}

// TestCacheParseOncePerMember: K Dataset handles over one directory,
// all sharing one cache, scanning concurrently — each member file is
// opened exactly once and its footer read exactly once (two physical
// reads: the 8-byte trailer and the footer block), no matter how many
// handles race. A warm handle opened afterwards does zero member I/O.
func TestCacheParseOncePerMember(t *testing.T) {
	const nFiles, rows, handles = 4, 500, 6
	dir := buildLocalDataset(t, nFiles, rows)
	local, err := storage.NewLocal(dir)
	if err != nil {
		t.Fatal(err)
	}
	cb := newCountingBackend(local)
	c := cache.New(cache.Options{})
	defer c.Close()

	var wg sync.WaitGroup
	errs := make([]error, handles)
	for i := 0; i < handles; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := Open(dir, &Options{Backend: cb, Cache: c})
			if err != nil {
				errs[i] = err
				return
			}
			defer d.Close()
			sc, err := d.Scan(ScanOptions{ScanOptions: core.ScanOptions{Columns: []string{"key"}}})
			if err != nil {
				errs[i] = err
				return
			}
			defer sc.Close()
			n, err := drainRows(sc)
			if err != nil {
				errs[i] = err
				return
			}
			if n != nFiles*rows {
				errs[i] = errors.New("short scan")
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("handle %d: %v", i, err)
		}
	}
	opens, meta, _ := cb.memberCounts()
	if opens != nFiles {
		t.Fatalf("member opens = %d, want %d (one per member across %d handles)", opens, nFiles, handles)
	}
	if meta != 2*nFiles {
		t.Fatalf("metadata reads = %d, want %d (trailer + footer block per member, parsed once)", meta, 2*nFiles)
	}

	// Warm handle: every artifact is cached, so a full selective scan
	// does zero member opens and zero member reads of any kind.
	preOpens, preMeta, preData := cb.memberCounts()
	d, err := Open(dir, &Options{Backend: cb, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	keys, _ := scanKeys(t, d, ScanOptions{})
	checkKeys(t, keys, wantKeys(0, nFiles*rows))
	opens, meta, data := cb.memberCounts()
	if opens != preOpens || meta != preMeta || data != preData {
		t.Fatalf("warm scan touched the backend: opens %d->%d, meta %d->%d, data %d->%d",
			preOpens, opens, preMeta, meta, preData, data)
	}
	st := c.Stats()
	if st.FooterMisses != int64(nFiles) {
		t.Fatalf("FooterMisses = %d, want %d", st.FooterMisses, nFiles)
	}

	// A Delete commits nothing but a manifest: the rescan reuses every
	// cached footer, handle and page — still zero member I/O — and serves
	// the rows left.
	if err := d.Delete(spanRows(0, rows+10)); err != nil {
		t.Fatal(err)
	}
	keys, sst := scanKeys(t, d, ScanOptions{})
	checkKeys(t, keys, wantKeys(rows+10, nFiles*rows))
	if sst.Cache.FooterMisses != 0 {
		t.Fatalf("rescan after Delete: FooterMisses = %d, want 0", sst.Cache.FooterMisses)
	}
	if o, m, dr := cb.memberCounts(); o != opens || m != meta || dr != data {
		t.Fatalf("rescan after Delete touched the backend: opens %d->%d, meta %d->%d, data %d->%d",
			opens, o, meta, m, data, dr)
	}
}

func drainRows(sc *Scanner) (int, error) {
	n := 0
	for {
		b, err := sc.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return n, nil
			}
			return n, err
		}
		n += b.NumRows()
	}
}

// TestCacheReplacedETagNeverStale publishes a dataset over HTTP, warms
// the cache, then swaps the served content for a same-shape dataset
// with different values. The cache must either keep serving the
// consistent pinned old version (fully-cached reads, zero server hits)
// or fail with ErrChangedUnderRead — never a mix of old and new bytes —
// and a reopened handle must see the new version cleanly.
func TestCacheReplacedETagNeverStale(t *testing.T) {
	const nFiles, rows = 2, 400
	dirA := buildLocalDataset(t, nFiles, rows) // keys [0, 800)
	dirB := t.TempDir()                        // same shape, different keys
	db, err := Create(dirB, testSchema(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nFiles; i++ {
		if err := db.Append(keyBatch(t, db.Schema(), 100000+i*rows, rows)); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()

	la, err := storage.NewLocal(dirA)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := storage.NewLocal(dirB)
	if err != nil {
		t.Fatal(err)
	}
	var hits atomic.Int64
	var current atomic.Value // http.Handler
	current.Store(storage.NewHTTPHandler(la))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		current.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := cache.New(cache.Options{})
	defer c.Close()
	d, err := Open(srv.URL, &Options{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	keys, _ := scanKeys(t, d, ScanOptions{})
	checkKeys(t, keys, wantKeys(0, nFiles*rows))

	// Replace the published dataset. The old handle's scans of the same
	// projection are fully cached: they serve the consistent pinned old
	// version without a single server round-trip.
	current.Store(storage.NewHTTPHandler(lb))
	base := hits.Load()
	keys, _ = scanKeys(t, d, ScanOptions{})
	checkKeys(t, keys, wantKeys(0, nFiles*rows))
	if hits.Load() != base {
		t.Fatalf("fully-cached rescan hit the server %d times", hits.Load()-base)
	}

	// A projection needing uncached runs must surface the replacement as
	// ErrChangedUnderRead (the pinned ETag no longer matches) — stale or
	// torn bytes are never an outcome.
	sc, err := d.Scan(ScanOptions{ScanOptions: core.ScanOptions{Columns: []string{"tag"}}})
	if err == nil {
		_, err = drainRows(sc)
		sc.Close()
	}
	if !errors.Is(err, storage.ErrChangedUnderRead) {
		t.Fatalf("scan of replaced member = %v, want ErrChangedUnderRead", err)
	}
	if st := c.Stats(); st.Invalidations == 0 {
		t.Fatal("ErrChangedUnderRead did not invalidate the member's cache entries")
	}

	// A fresh handle re-probes (the invalidation dropped the pinned
	// handle) and serves the new version, consistently.
	d2, err := Open(srv.URL, &Options{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	keys, _ = scanKeys(t, d2, ScanOptions{})
	checkKeys(t, keys, append(wantKeys(100000, 100000+int64(rows)), wantKeys(100000+int64(rows), 100000+2*int64(rows))...))
}

// TestCacheConcurrentLifecycle hammers cache-sharing handles with
// concurrent open/scan/close plus vacuums; the -race build is the data
// assertion, and the goroutine count settling back is the leak check.
func TestCacheConcurrentLifecycle(t *testing.T) {
	const nFiles, rows = 3, 300
	dir := buildLocalDataset(t, nFiles, rows)
	c := cache.New(cache.Options{HandleEntries: 2, PageBytes: 1 << 20})
	defer c.Close()
	before := runtime.NumGoroutine()

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				d, err := Open(dir, &Options{Cache: c})
				if err != nil {
					t.Error(err)
					return
				}
				if g%3 == 2 && i%4 == 3 {
					d.Vacuum() // exercises Invalidate against live scans
				} else {
					keys, _ := scanKeys(t, d, ScanOptions{})
					checkKeys(t, keys, wantKeys(0, nFiles*rows))
				}
				d.Close()
			}
		}(g)
	}
	wg.Wait()

	// Goroutines settle: nothing in the cache owns a goroutine, so any
	// sustained growth is a leak in the lease/scan plumbing.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after settle window", before, runtime.NumGoroutine())
}

// TestCacheGoldenEquivalence: the same scan through every cache policy
// — disabled, the shared cache cold then warm, a caller-owned instance
// cold then warm — yields byte-identical rows.
func TestCacheGoldenEquivalence(t *testing.T) {
	const nFiles, rows = 3, 400
	dir := buildLocalDataset(t, nFiles, rows)

	golden := scanAll(t, dir, &Options{DisableCache: true})
	own := cache.New(cache.Options{PageBytes: 64 << 20})
	defer own.Close()
	for _, tc := range []struct {
		name string
		opts *Options
	}{
		{"shared", nil},
		{"explicit", &Options{Cache: own}},
	} {
		for _, pass := range []string{"cold", "warm"} {
			got := scanAll(t, dir, tc.opts)
			if len(got) != len(golden) {
				t.Fatalf("%s %s: %d rows, want %d", tc.name, pass, len(got), len(golden))
			}
			for i := range got {
				if got[i] != golden[i] {
					t.Fatalf("%s %s: row %d = %q, want %q", tc.name, pass, i, got[i], golden[i])
				}
			}
		}
	}
	if st := own.Stats(); st.PageHits == 0 || st.FooterHits == 0 {
		t.Fatalf("warm pass through the explicit cache hit nothing: %+v", st)
	}
}

// scanAll renders every row of every column to a comparable string.
func scanAll(t *testing.T, dir string, opts *Options) []string {
	t.Helper()
	d, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sc, err := d.Scan(ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var out []string
	for {
		b, err := sc.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return out
			}
			t.Fatal(err)
		}
		keys := b.Columns[0].(core.Int64Data)
		vals := b.Columns[1].(core.Float64Data)
		tags := b.Columns[2].(core.BytesData)
		for i := range keys {
			out = append(out, fmt.Sprintf("%d|%g|%s", keys[i], vals[i], tags[i]))
		}
	}
}
