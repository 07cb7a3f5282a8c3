package cache

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"bullion/internal/storage"
)

// fakeFile is a storage.File over an in-memory byte slice that counts
// reads and records Close, following the backend ReadAt contract.
type fakeFile struct {
	data   []byte
	reads  atomic.Int64
	closed atomic.Bool
}

func (f *fakeFile) ReadAt(p []byte, off int64) (int, error) {
	f.reads.Add(1)
	if off < 0 {
		return 0, errors.New("negative offset")
	}
	if len(p) == 0 {
		return 0, nil
	}
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *fakeFile) WriteAt([]byte, int64) (int, error) { return 0, storage.ErrReadOnly }
func (f *fakeFile) Write([]byte) (int, error)          { return 0, storage.ErrReadOnly }
func (f *fakeFile) Sync() error                        { return nil }
func (f *fakeFile) Close() error                       { f.closed.Store(true); return nil }

func key(name, version string) Key {
	return Key{Root: "root", Name: name, Version: version}
}

func TestArtifactSingleflight(t *testing.T) {
	c := New(Options{})
	const workers = 16
	var parses atomic.Int64
	started := make(chan struct{})
	gate := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]any, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Artifact(key("m1", "v1"), func() (any, error) {
				if parses.Add(1) == 1 {
					close(started)
				}
				<-gate // hold the flight open so everyone joins it
				return "footer", nil
			})
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	// Let the goroutines pile up on the single flight, then release it.
	<-started
	close(gate)
	wg.Wait()
	if got := parses.Load(); got != 1 {
		t.Fatalf("parse ran %d times, want 1 (singleflight)", got)
	}
	for i, v := range results {
		if v != "footer" {
			t.Fatalf("worker %d got %v", i, v)
		}
	}
	st := c.Stats()
	if st.FooterMisses != 1 || st.FooterHits != workers-1 {
		t.Fatalf("stats = %d hits / %d misses, want %d / 1", st.FooterHits, st.FooterMisses, workers-1)
	}
}

func TestArtifactErrorNotCached(t *testing.T) {
	c := New(Options{})
	boom := errors.New("transient backend failure")
	if _, err := c.Artifact(key("m", "v"), func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("first call: %v, want %v", err, boom)
	}
	v, err := c.Artifact(key("m", "v"), func() (any, error) { return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("retry after failed parse = (%v, %v), want (42, nil)", v, err)
	}
}

func TestArtifactLRUEviction(t *testing.T) {
	c := New(Options{FooterEntries: 2})
	parse := func(v any) func() (any, error) {
		return func() (any, error) { return v, nil }
	}
	c.Artifact(key("a", "1"), parse("a"))
	c.Artifact(key("b", "1"), parse("b"))
	c.Artifact(key("a", "1"), parse("a")) // touch a: b is now LRU
	c.Artifact(key("c", "1"), parse("c")) // evicts b
	if st := c.Stats(); st.FooterEntries != 2 {
		t.Fatalf("FooterEntries = %d, want 2", st.FooterEntries)
	}
	var reparsed atomic.Int64
	c.Artifact(key("b", "1"), func() (any, error) { reparsed.Add(1); return "b", nil })
	if reparsed.Load() != 1 {
		t.Fatal("evicted entry b served without re-parsing")
	}
	// Re-inserting b evicted the then-LRU a; the MRU c must survive.
	c.Artifact(key("c", "1"), func() (any, error) { t.Fatal("MRU entry c evicted"); return nil, nil })
}

func TestHandleSingleflightAndRefs(t *testing.T) {
	c := New(Options{})
	f := &fakeFile{data: []byte("hello")}
	var opens atomic.Int64
	open := func() (storage.File, int64, error) {
		opens.Add(1)
		return f, int64(len(f.data)), nil
	}
	l1, err := c.AcquireHandle(key("m", "v"), open)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := c.AcquireHandle(key("m", "v"), open)
	if err != nil {
		t.Fatal(err)
	}
	if opens.Load() != 1 {
		t.Fatalf("open ran %d times, want 1", opens.Load())
	}
	if l1.File() != f || l2.File() != f || l1.Size() != 5 {
		t.Fatal("leases do not expose the cached handle")
	}
	l1.Release()
	l1.Release() // idempotent
	l2.Release()
	if f.closed.Load() {
		t.Fatal("releasing all leases closed a cached (non-doomed) handle")
	}
	st := c.Stats()
	if st.HandleMisses != 1 || st.HandleHits != 1 || st.HandlesOpen != 1 {
		t.Fatalf("stats = %+v, want 1 miss / 1 hit / 1 open", st)
	}
}

func TestHandleOpenErrorNotCached(t *testing.T) {
	c := New(Options{})
	boom := errors.New("open failed")
	if _, err := c.AcquireHandle(key("m", "v"), func() (storage.File, int64, error) {
		return nil, 0, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	f := &fakeFile{data: []byte("x")}
	l, err := c.AcquireHandle(key("m", "v"), func() (storage.File, int64, error) {
		return f, 1, nil
	})
	if err != nil {
		t.Fatalf("retry after failed open: %v", err)
	}
	l.Release()
}

func TestHandleEvictionClosesIdle(t *testing.T) {
	c := New(Options{HandleEntries: 1})
	a := &fakeFile{data: []byte("a")}
	b := &fakeFile{data: []byte("b")}
	la, _ := c.AcquireHandle(key("a", "v"), func() (storage.File, int64, error) { return a, 1, nil })
	la.Release() // idle: evictable
	lb, _ := c.AcquireHandle(key("b", "v"), func() (storage.File, int64, error) { return b, 1, nil })
	if !a.closed.Load() {
		t.Fatal("idle LRU handle not closed on eviction")
	}
	if b.closed.Load() {
		t.Fatal("newly opened handle closed")
	}
	lb.Release()
	if st := c.Stats(); st.HandlesOpen != 1 {
		t.Fatalf("HandlesOpen = %d, want 1", st.HandlesOpen)
	}
}

func TestHandleLeasedSurvivesEviction(t *testing.T) {
	c := New(Options{HandleEntries: 1})
	a := &fakeFile{data: []byte("a")}
	b := &fakeFile{data: []byte("b")}
	la, _ := c.AcquireHandle(key("a", "v"), func() (storage.File, int64, error) { return a, 1, nil })
	lb, _ := c.AcquireHandle(key("b", "v"), func() (storage.File, int64, error) { return b, 1, nil })
	// Both leased: nothing evictable, tier runs over cap.
	if a.closed.Load() || b.closed.Load() {
		t.Fatal("leased handle closed by eviction")
	}
	buf := make([]byte, 1)
	if _, err := la.File().ReadAt(buf, 0); err != nil {
		t.Fatalf("leased handle unusable: %v", err)
	}
	la.Release()
	lb.Release()
}

func TestInvalidateDoomsLeasedHandle(t *testing.T) {
	c := New(Options{})
	f := &fakeFile{data: []byte("data")}
	l, _ := c.AcquireHandle(key("m", "v"), func() (storage.File, int64, error) { return f, 4, nil })
	c.Invalidate("root", "m")
	if f.closed.Load() {
		t.Fatal("invalidate closed a handle still leased")
	}
	l.Release()
	if !f.closed.Load() {
		t.Fatal("last release of a doomed handle did not close it")
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Fatalf("Invalidations = %d, want 1", st.Invalidations)
	}
}

func TestInvalidateDropsAllTiers(t *testing.T) {
	c := New(Options{})
	k := key("m", "v")
	c.Artifact(k, func() (any, error) { return "art", nil })
	f := &fakeFile{data: bytes.Repeat([]byte{7}, 64)}
	l, _ := c.AcquireHandle(k, func() (storage.File, int64, error) { return f, 64, nil })
	l.Release()
	r := c.Reader(k, f, nil)
	buf := make([]byte, 16)
	r.ReadAt(buf, 0)
	c.Reader(key("m", "v2"), f, nil).ReadAt(buf, 16)

	c.Invalidate("root", "m") // all versions of "m" across all tiers
	st := c.Stats()
	if st.FooterEntries != 0 || st.HandlesOpen != 0 || st.PageBytes != 0 {
		t.Fatalf("entries survive invalidation: %+v", st)
	}
	if !f.closed.Load() {
		t.Fatal("idle handle not closed by invalidation")
	}
}

func TestReaderCachesFullReads(t *testing.T) {
	c := New(Options{})
	f := &fakeFile{data: bytes.Repeat([]byte{1, 2, 3, 4}, 256)} // 1 KiB
	r := c.Reader(key("m", "v"), f, nil)

	got := make([]byte, 128)
	if n, err := r.ReadAt(got, 64); n != 128 || err != nil {
		t.Fatalf("cold read = (%d, %v)", n, err)
	}
	base := f.reads.Load()
	again := make([]byte, 128)
	if n, err := r.ReadAt(again, 64); n != 128 || err != nil {
		t.Fatalf("warm read = (%d, %v)", n, err)
	}
	if f.reads.Load() != base {
		t.Fatal("warm exact-run read went to the backend")
	}
	if !bytes.Equal(got, again) || !bytes.Equal(got, f.data[64:192]) {
		t.Fatal("cached bytes differ from backend bytes")
	}
	// A different offset or length is a different run: miss.
	if _, err := r.ReadAt(make([]byte, 64), 64); err != nil {
		t.Fatal(err)
	}
	if f.reads.Load() == base {
		t.Fatal("different-length read served from exact-run cache")
	}
	st := c.Stats()
	if st.PageHits != 1 || st.PageMisses != 2 {
		t.Fatalf("page stats = %d hits / %d misses, want 1 / 2", st.PageHits, st.PageMisses)
	}
}

func TestReaderEOFNotCached(t *testing.T) {
	c := New(Options{})
	f := &fakeFile{data: []byte("abcdef")}
	r := c.Reader(key("m", "v"), f, nil)
	p := make([]byte, 10)
	n, err := r.ReadAt(p, 2)
	if n != 4 || err != io.EOF {
		t.Fatalf("overlap-EOF read = (%d, %v), want (4, EOF)", n, err)
	}
	base := f.reads.Load()
	r.ReadAt(p, 2)
	if f.reads.Load() == base {
		t.Fatal("short EOF read was cached")
	}
	if n, err := r.ReadAt(p, 100); n != 0 || err != io.EOF {
		t.Fatalf("past-EOF read = (%d, %v), want (0, EOF)", n, err)
	}
}

func TestReaderOnErr(t *testing.T) {
	c := New(Options{})
	boom := errors.New("changed under read")
	failing := readerFunc(func(p []byte, off int64) (int, error) { return 0, boom })
	var seen error
	r := c.Reader(key("m", "v"), failing, func(err error) { seen = err })
	if _, err := r.ReadAt(make([]byte, 4), 0); !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
	if !errors.Is(seen, boom) {
		t.Fatalf("onErr saw %v, want %v", seen, boom)
	}
}

type readerFunc func(p []byte, off int64) (int, error)

func (f readerFunc) ReadAt(p []byte, off int64) (int, error) { return f(p, off) }

func TestPage2QScanResistance(t *testing.T) {
	// Budget fits 4 x 100-byte runs. A hot run touched twice is
	// protected; a subsequent one-shot sweep must evict probation
	// entries, never the hot run.
	c := New(Options{PageBytes: 400})
	f := &fakeFile{data: bytes.Repeat([]byte{9}, 4096)}
	r := c.Reader(key("m", "v"), f, nil)
	hot := make([]byte, 100)
	r.ReadAt(hot, 0) // miss: probation
	r.ReadAt(hot, 0) // hit: promote to protected
	for i := 1; i <= 8; i++ {
		r.ReadAt(make([]byte, 100), int64(i*100)) // one-shot sweep
	}
	base := f.reads.Load()
	if n, err := r.ReadAt(hot, 0); n != 100 || err != nil {
		t.Fatalf("hot read = (%d, %v)", n, err)
	}
	if f.reads.Load() != base {
		t.Fatal("scan traffic flushed the protected hot run")
	}
	st := c.Stats()
	if st.PageBytes > 400 {
		t.Fatalf("PageBytes = %d exceeds budget 400", st.PageBytes)
	}
	if st.PageEvictions == 0 {
		t.Fatal("sweep over budget evicted nothing")
	}
}

// TestPageBudgetIsGlobal: two roots filling the page tier past PageBytes
// share the one budget — neither root's traffic lets the total exceed it.
func TestPageBudgetIsGlobal(t *testing.T) {
	c := New(Options{PageBytes: 400})
	f := &fakeFile{data: bytes.Repeat([]byte{5}, 4096)}
	ra := c.Reader(Key{Root: "a", Name: "m", Version: "v"}, f, nil)
	rb := c.Reader(Key{Root: "b", Name: "m", Version: "v"}, f, nil)
	for i := 0; i < 8; i++ {
		ra.ReadAt(make([]byte, 100), int64(i*100))
		rb.ReadAt(make([]byte, 100), int64(i*100))
		if got := c.Stats().PageBytes; got > 400 {
			t.Fatalf("after %d reads per root PageBytes = %d, exceeds budget 400", i+1, got)
		}
	}
	st := c.Stats()
	if st.PageBytes != 400 || st.PageEvictions != 12 {
		t.Fatalf("PageBytes = %d with %d evictions, want 400 with 12 (16 runs of 100 through a 400-byte tier)",
			st.PageBytes, st.PageEvictions)
	}
	// The survivors are the most recent runs, whichever root read them.
	base := f.reads.Load()
	ra.ReadAt(make([]byte, 100), 700)
	rb.ReadAt(make([]byte, 100), 700)
	if f.reads.Load() != base {
		t.Fatal("most recent run of each root was evicted")
	}
}

func TestCloseDropsEverything(t *testing.T) {
	c := New(Options{})
	f := &fakeFile{data: []byte("data")}
	k := key("m", "v")
	c.Artifact(k, func() (any, error) { return 1, nil })
	l, _ := c.AcquireHandle(k, func() (storage.File, int64, error) { return f, 4, nil })
	l.Release()
	c.Reader(k, f, nil).ReadAt(make([]byte, 2), 0)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if !f.closed.Load() {
		t.Fatal("Close left a cached handle open")
	}
	st := c.Stats()
	if st.FooterEntries != 0 || st.HandlesOpen != 0 || st.PageBytes != 0 {
		t.Fatalf("Close left entries: %+v", st)
	}
}

func TestConcurrentMixedUse(t *testing.T) {
	// Hammer all three tiers plus Invalidate from many goroutines; the
	// -race build is the assertion.
	c := New(Options{FooterEntries: 8, HandleEntries: 4, PageBytes: 4096})
	files := make([]*fakeFile, 8)
	for i := range files {
		files[i] = &fakeFile{data: bytes.Repeat([]byte{byte(i)}, 512)}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m := (g + i) % len(files)
				k := key(fmt.Sprintf("m%d", m), "v")
				switch i % 4 {
				case 0:
					c.Artifact(k, func() (any, error) { return m, nil })
				case 1:
					if l, err := c.AcquireHandle(k, func() (storage.File, int64, error) {
						return files[m], 512, nil
					}); err == nil {
						l.File().ReadAt(make([]byte, 8), 0)
						l.Release()
					}
				case 2:
					c.Reader(k, files[m], nil).ReadAt(make([]byte, 64), int64(i%8)*64)
				case 3:
					if i%40 == 3 {
						c.Invalidate("root", fmt.Sprintf("m%d", m))
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
