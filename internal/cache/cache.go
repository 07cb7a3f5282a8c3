// Package cache is the process-wide cache of immutable dataset
// artifacts. Bullion member files are immutable once written (a dataset
// delete only changes the manifest), which makes caching across Dataset
// handles and generations safe and invalidation trivial: a key either
// still names exactly the bytes it was filled from, or it is never asked
// for again.
//
// Three tiers share one capacity-bounded Cache:
//
//   - Artifacts: parsed footers (and anything else derived once from
//     immutable bytes), entry-count LRU with singleflight — a stampede
//     of N cold scans of one member pays one parse, and one backend
//     read of the footer, total.
//   - Handles: open backend files, a refcounted LRU. Hot members skip
//     re-open entirely — critical for HTTP backends where open is a
//     HEAD round-trip — while the LRU bounds live file handles.
//   - Pages: a segmented-LRU (2Q) byte cache over coalesced page runs
//     under one global byte budget.
//
// A zero Cache value is not usable; construct with New or use the
// process-wide Shared instance.
package cache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"bullion/internal/storage"
)

// Key identifies one immutable version of one member file. Root is the
// backend identity (storage.Backend.Root), Name the member file name,
// and Version a discriminator derived from the manifest entry (rows,
// bytes, schema fingerprint) plus the backend ETag when one
// is available — any change to the member's bytes changes Version, so
// stale entries are simply never hit.
type Key struct {
	Root    string
	Name    string
	Version string
}

// Options sizes a Cache. Zero fields select the defaults.
type Options struct {
	// FooterEntries bounds the parsed-artifact tier (entries, not bytes:
	// parsed footers are small and roughly uniform).
	FooterEntries int
	// HandleEntries bounds open backend file handles. Entries still
	// referenced by a lease are not evictable, so the bound is soft
	// under heavy concurrency.
	HandleEntries int
	// PageBytes bounds the page/run byte tier.
	PageBytes int64
}

// Default capacities: enough for a few hundred members' metadata and a
// serving-tier page working set, small enough to never matter on a dev
// machine.
const (
	DefaultFooterEntries = 256
	DefaultHandleEntries = 64
	DefaultPageBytes     = 256 << 20
)

// Stats is a point-in-time snapshot of the cache's counters. Hit/miss/
// eviction counters are cumulative; scanners diff snapshots to
// attribute work to one scan.
type Stats struct {
	// FooterHits/Misses count artifact-tier lookups. A lookup that joins
	// an in-flight parse counts as a hit only if the parse succeeds.
	FooterHits   int64
	FooterMisses int64
	// HandleHits/Misses count open-handle leases served from / filled
	// into the handle LRU.
	HandleHits   int64
	HandleMisses int64
	// PageHits/Misses count page-tier reads; PageEvictions entries
	// evicted to stay inside the byte budget.
	PageHits      int64
	PageMisses    int64
	PageEvictions int64
	// Invalidations counts Invalidate calls that dropped at least one
	// entry.
	Invalidations int64
	// Sizes right now: artifact entries, open handles, page-tier bytes.
	FooterEntries int
	HandlesOpen   int
	PageBytes     int64
}

// Cache is the three-tier artifact cache. All methods are safe for
// concurrent use; the zero value is not usable (construct with New).
type Cache struct {
	opts Options

	footerHits, footerMisses int64
	handleHits, handleMisses int64
	pageHits, pageMisses     int64
	pageEvictions            int64
	invalidations            int64

	artMu  sync.Mutex
	arts   map[Key]*artifactEntry
	artLRU *list.List // of *artifactEntry; front = MRU

	hMu     sync.Mutex
	handles map[Key]*handleEntry
	hLRU    *list.List // of *handleEntry; front = MRU; excludes in-flight opens

	pMu       sync.Mutex
	runs      map[runKey]*runEntry
	probation *list.List // of *runEntry
	protected *list.List // of *runEntry
	pageBytes int64      // all page-tier bytes
	protBytes int64
}

// New returns a Cache with the given capacities (zero fields take the
// defaults).
func New(opts Options) *Cache {
	if opts.FooterEntries <= 0 {
		opts.FooterEntries = DefaultFooterEntries
	}
	if opts.HandleEntries <= 0 {
		opts.HandleEntries = DefaultHandleEntries
	}
	if opts.PageBytes <= 0 {
		opts.PageBytes = DefaultPageBytes
	}
	return &Cache{
		opts:      opts,
		arts:      map[Key]*artifactEntry{},
		artLRU:    list.New(),
		handles:   map[Key]*handleEntry{},
		hLRU:      list.New(),
		runs:      map[runKey]*runEntry{},
		probation: list.New(),
		protected: list.New(),
	}
}

var (
	sharedOnce sync.Once
	shared     *Cache
)

// Shared returns the process-wide cache every Dataset uses by default.
func Shared() *Cache {
	sharedOnce.Do(func() { shared = New(Options{}) })
	return shared
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	s := Stats{
		FooterHits:    atomic.LoadInt64(&c.footerHits),
		FooterMisses:  atomic.LoadInt64(&c.footerMisses),
		HandleHits:    atomic.LoadInt64(&c.handleHits),
		HandleMisses:  atomic.LoadInt64(&c.handleMisses),
		PageHits:      atomic.LoadInt64(&c.pageHits),
		PageMisses:    atomic.LoadInt64(&c.pageMisses),
		PageEvictions: atomic.LoadInt64(&c.pageEvictions),
		Invalidations: atomic.LoadInt64(&c.invalidations),
	}
	c.artMu.Lock()
	s.FooterEntries = len(c.arts)
	c.artMu.Unlock()
	c.hMu.Lock()
	s.HandlesOpen = len(c.handles)
	c.hMu.Unlock()
	c.pMu.Lock()
	s.PageBytes = c.pageBytes
	c.pMu.Unlock()
	return s
}

// ---- artifact tier ----

type artifactEntry struct {
	key  Key
	elem *list.Element
	done chan struct{} // closed when val/err are set
	val  any
	err  error
}

// Artifact returns the cached artifact for k, running parse (at most
// once per key across all concurrent callers — singleflight) to fill a
// miss. A failed parse is not cached: the next call re-attempts, so a
// transient backend error never poisons the key.
func (c *Cache) Artifact(k Key, parse func() (any, error)) (any, error) {
	c.artMu.Lock()
	if e, ok := c.arts[k]; ok {
		c.artLRU.MoveToFront(e.elem)
		c.artMu.Unlock()
		<-e.done
		if e.err != nil {
			// The flight this call joined failed (and removed itself);
			// surface its error rather than stampeding the backend.
			atomic.AddInt64(&c.footerMisses, 1)
			return nil, e.err
		}
		atomic.AddInt64(&c.footerHits, 1)
		return e.val, nil
	}
	e := &artifactEntry{key: k, done: make(chan struct{})}
	e.elem = c.artLRU.PushFront(e)
	c.arts[k] = e
	c.artMu.Unlock()

	atomic.AddInt64(&c.footerMisses, 1)
	e.val, e.err = parse()
	c.artMu.Lock()
	if e.err != nil {
		if cur, ok := c.arts[k]; ok && cur == e {
			delete(c.arts, k)
			c.artLRU.Remove(e.elem)
		}
	} else {
		for len(c.arts) > c.opts.FooterEntries {
			back := c.artLRU.Back()
			if back == nil {
				break
			}
			old := back.Value.(*artifactEntry)
			delete(c.arts, old.key)
			c.artLRU.Remove(back)
		}
	}
	c.artMu.Unlock()
	close(e.done)
	return e.val, e.err
}

// ---- handle tier ----

type handleEntry struct {
	key  Key
	file storage.File
	size int64
	refs int
	// doomed: evicted or invalidated while leased; the last Release
	// closes the file.
	doomed bool
	elem   *list.Element // nil while the open is in flight (or doomed)
	done   chan struct{}
	err    error
}

// HandleLease is one reference to a cached open backend file. The file
// must not be used after Release; Close is an alias for Release (err
// always nil) so a lease can stand in for the file in Closer lists.
type HandleLease struct {
	c        *Cache
	e        *handleEntry
	released atomic.Bool
}

// File returns the leased backend file.
func (l *HandleLease) File() storage.File { return l.e.file }

// Size returns the file size discovered at open.
func (l *HandleLease) Size() int64 { return l.e.size }

// Release returns the lease. Idempotent.
func (l *HandleLease) Release() {
	if l.released.Swap(true) {
		return
	}
	c, e := l.c, l.e
	c.hMu.Lock()
	e.refs--
	var toClose storage.File
	if e.refs == 0 && e.doomed && e.file != nil {
		toClose = e.file
		e.file = nil
	}
	c.hMu.Unlock()
	if toClose != nil {
		toClose.Close()
	}
}

// Close releases the lease (never closes the shared file directly) and
// always returns nil, satisfying io.Closer.
func (l *HandleLease) Close() error {
	l.Release()
	return nil
}

// AcquireHandle leases the cached open file for k, calling open (at
// most once per key across concurrent callers) on a miss. Open errors
// are not cached. The caller must Release the lease; the cache closes
// the underlying file when it is evicted or invalidated and the last
// lease is gone.
func (c *Cache) AcquireHandle(k Key, open func() (storage.File, int64, error)) (*HandleLease, error) {
	c.hMu.Lock()
	if e, ok := c.handles[k]; ok {
		e.refs++
		if e.elem != nil {
			c.hLRU.MoveToFront(e.elem)
		}
		c.hMu.Unlock()
		<-e.done
		if e.err != nil {
			c.hMu.Lock()
			e.refs--
			c.hMu.Unlock()
			atomic.AddInt64(&c.handleMisses, 1)
			return nil, e.err
		}
		atomic.AddInt64(&c.handleHits, 1)
		return &HandleLease{c: c, e: e}, nil
	}
	e := &handleEntry{key: k, refs: 1, done: make(chan struct{})}
	c.handles[k] = e
	c.hMu.Unlock()

	atomic.AddInt64(&c.handleMisses, 1)
	f, size, err := open()
	c.hMu.Lock()
	if err != nil {
		e.err = err
		if cur, ok := c.handles[k]; ok && cur == e {
			delete(c.handles, k)
		}
		c.hMu.Unlock()
		close(e.done)
		return nil, err
	}
	e.file, e.size = f, size
	if cur, ok := c.handles[k]; ok && cur == e && !e.doomed {
		e.elem = c.hLRU.PushFront(e)
	}
	c.evictHandlesLocked()
	c.hMu.Unlock()
	close(e.done)
	return &HandleLease{c: c, e: e}, nil
}

// evictHandlesLocked closes LRU handles with no live lease until the
// tier is back under its entry cap. Caller holds hMu; files close
// outside any lease, so closing under the lock is safe (storage.File
// Close never re-enters the cache).
func (c *Cache) evictHandlesLocked() {
	for len(c.handles) > c.opts.HandleEntries {
		evicted := false
		for el := c.hLRU.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*handleEntry)
			if e.refs > 0 {
				continue
			}
			delete(c.handles, e.key)
			c.hLRU.Remove(el)
			e.doomed = true
			if e.file != nil {
				e.file.Close()
				e.file = nil
			}
			evicted = true
			break
		}
		if !evicted {
			return // every handle is leased; run over cap until releases
		}
	}
}

// Invalidate drops every tier's entries for (root, name) across all
// versions — the recovery hook after a read proved the remote object
// was replaced (storage.ErrChangedUnderRead), and the hygiene hook when
// Vacuum removes a file. Leased handles are doomed and closed on their
// last Release; in-flight parses are unaffected (their key can no
// longer be current, so they fill an entry nobody asks for again).
func (c *Cache) Invalidate(root, name string) {
	dropped := false
	c.artMu.Lock()
	for k, e := range c.arts {
		if k.Root == root && k.Name == name {
			delete(c.arts, k)
			c.artLRU.Remove(e.elem)
			dropped = true
		}
	}
	c.artMu.Unlock()

	var toClose []storage.File
	c.hMu.Lock()
	for k, e := range c.handles {
		if k.Root != root || k.Name != name {
			continue
		}
		delete(c.handles, k)
		if e.elem != nil {
			c.hLRU.Remove(e.elem)
			e.elem = nil
		}
		e.doomed = true
		if e.refs == 0 && e.file != nil {
			toClose = append(toClose, e.file)
			e.file = nil
		}
		dropped = true
	}
	c.hMu.Unlock()
	for _, f := range toClose {
		f.Close()
	}

	c.pMu.Lock()
	for rk, e := range c.runs {
		if rk.k.Root == root && rk.k.Name == name {
			c.removeRunLocked(e)
			dropped = true
		}
	}
	c.pMu.Unlock()
	if dropped {
		atomic.AddInt64(&c.invalidations, 1)
	}
}

// Close drops every entry and closes every cached file handle not
// currently leased (leased ones close on their last Release). Meant for
// caches built with New; the Shared cache is never closed.
func (c *Cache) Close() error {
	var toClose []storage.File
	c.hMu.Lock()
	for k, e := range c.handles {
		delete(c.handles, k)
		if e.elem != nil {
			c.hLRU.Remove(e.elem)
			e.elem = nil
		}
		e.doomed = true
		if e.refs == 0 && e.file != nil {
			toClose = append(toClose, e.file)
			e.file = nil
		}
	}
	c.hMu.Unlock()
	var first error
	for _, f := range toClose {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.artMu.Lock()
	c.arts = map[Key]*artifactEntry{}
	c.artLRU.Init()
	c.artMu.Unlock()
	c.pMu.Lock()
	c.runs = map[runKey]*runEntry{}
	c.probation.Init()
	c.protected.Init()
	c.pageBytes, c.protBytes = 0, 0
	c.pMu.Unlock()
	return first
}
