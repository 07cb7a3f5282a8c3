package dataset

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"bullion/internal/cache"
	"bullion/internal/core"
	"bullion/internal/storage"
)

// maxFileConcurrency bounds explicit ScanOptions.FileConcurrency requests.
const maxFileConcurrency = 64

// ScanOptions configures Dataset.Scan. The embedded core options apply to
// each member file's scan engine; Range is interpreted in dataset-global
// rows (member files concatenated in manifest order) and clipped per
// file, and Filters additionally prune whole files via the members'
// file-level zone maps (read from their statistics sidecars) before any
// member is opened.
type ScanOptions struct {
	core.ScanOptions
	// FileConcurrency is how many member files stream concurrently
	// (<= 0 = GOMAXPROCS). Each in-flight file runs its own scan engine
	// with the embedded options' Workers; batches are always emitted in
	// manifest file order regardless of concurrency.
	FileConcurrency int
	// Degraded makes the scan skip — instead of fail on — members that
	// stay unreachable after the storage backend's full retry budget.
	// Every skipped member is reported in ScanStats.DegradedMembers;
	// nothing is ever dropped silently. A member that fails mid-stream
	// may already have emitted a prefix of its rows before being
	// skipped. Off by default: a normal scan fails fast on the first
	// member error.
	Degraded bool
}

// ScanStats aggregates the physical work of a dataset scan: the sums of
// every finished member engine's core stats, plus file-level pruning
// counters.
type ScanStats struct {
	core.ScanStats
	// FilesPlanned member files survived manifest pruning and will be (or
	// were) scanned; FilesPruned were skipped entirely — never opened —
	// via the manifest's row counts and zone maps.
	FilesPlanned int
	FilesPruned  int
	// FilesScanned member engines have finished. The embedded core sums
	// cover finished engines only, so mid-scan snapshots lag the engines
	// currently streaming.
	FilesScanned int
	// Retries, Hedges, and HedgeWins count the resilience work the
	// storage backend performed while this scanner was live: reads
	// re-issued after transient errors, hedge legs launched against slow
	// reads, and hedge legs that beat their primary. All zero when the
	// dataset's backend carries no resilience wrapper (local datasets).
	// The counters are a backend-wide delta since Scan, so concurrent
	// scanners over the same dataset each observe the union of their
	// overlapping work.
	Retries   int64
	Hedges    int64
	HedgeWins int64
	// DegradedMembers lists the member files a Degraded scan skipped
	// after the retry budget was exhausted, in manifest order. Empty
	// unless ScanOptions.Degraded was set.
	DegradedMembers []string
	// Cache counts the artifact cache's work while this scanner was
	// live. Like the resilience counters, it is a cache-wide delta since
	// Scan: concurrent scanners sharing the cache observe the union of
	// their overlapping work. All zero when caching is disabled.
	Cache CacheScanStats
}

// Add adds every counter of o to s and appends o's DegradedMembers — the
// sum over several scans.
func (s *ScanStats) Add(o ScanStats) {
	s.ScanStats.Add(o.ScanStats)
	s.FilesPlanned += o.FilesPlanned
	s.FilesPruned += o.FilesPruned
	s.FilesScanned += o.FilesScanned
	s.Retries += o.Retries
	s.Hedges += o.Hedges
	s.HedgeWins += o.HedgeWins
	s.DegradedMembers = append(s.DegradedMembers, o.DegradedMembers...)
	s.Cache.FooterHits += o.Cache.FooterHits
	s.Cache.FooterMisses += o.Cache.FooterMisses
	s.Cache.HandleHits += o.Cache.HandleHits
	s.Cache.HandleMisses += o.Cache.HandleMisses
	s.Cache.PageHits += o.Cache.PageHits
	s.Cache.PageMisses += o.Cache.PageMisses
	s.Cache.PageEvictions += o.Cache.PageEvictions
}

// CacheScanStats is the cache-counter section of ScanStats: hits and
// misses per tier (parsed footers, open handles, page runs) plus page
// evictions, as deltas over the scanner's lifetime.
type CacheScanStats struct {
	FooterHits    int64
	FooterMisses  int64
	HandleHits    int64
	HandleMisses  int64
	PageHits      int64
	PageMisses    int64
	PageEvictions int64
}

// Any reports whether the scan did any cache work at all — the CLI
// prints the cache line only when it did.
func (c CacheScanStats) Any() bool {
	return c != CacheScanStats{}
}

// Scanner streams a projected column set across a dataset's member files
// in manifest order. One Scanner must be used from a single goroutine
// (Recycle excepted); any number may run concurrently over the same
// Dataset.
type Scanner struct {
	schema  *core.Schema
	members []*memberScan
	cur     int

	sem      chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	failed error
	closed bool

	// res, when the dataset's backend exposes resilience counters, is
	// that backend; resBase is its counter snapshot at Scan time, so
	// Stats can report this scanner's delta.
	res interface {
		ResilienceStats() storage.ResilienceStats
	}
	resBase storage.ResilienceStats

	// cache/cacheBase mirror res/resBase for the artifact cache: the
	// snapshot at Scan time turns cumulative counters into this
	// scanner's delta.
	cache     *cache.Cache
	cacheBase cache.Stats

	degradedOK bool

	// unpin releases the scanner's generation pin (see pinGeneration);
	// called once by shutdown.
	unpin func()

	statsMu  sync.Mutex
	agg      core.ScanStats
	done     int
	pruned   int
	degraded []string
}

// memberScan is one planned member file and the channel its engine
// streams batches into once the dispatcher gives it a concurrency slot.
type memberScan struct {
	m    *member
	d    *Dataset
	opts core.ScanOptions
	ch   chan *core.Batch
	err  error // read by the consumer only after ch closes
}

// Scan plans a dataset scan against the current manifest generation and
// starts streaming. The generation is snapshotted: commits landing after
// Scan returns (appends, deletes, compactions) do not affect the batches
// this scanner emits.
func (d *Dataset) Scan(opts ScanOptions) (*Scanner, error) {
	gen := d.generationSnapshot()
	if err := validateFilters(gen.schema, opts.Filters); err != nil {
		return nil, err
	}
	schema, err := projectSchema(gen.schema, opts.Columns)
	if err != nil {
		return nil, err
	}
	lo, hi := uint64(0), gen.total
	if r := opts.Range; r != nil {
		if r.Lo > r.Hi || r.Hi > gen.total {
			return nil, fmt.Errorf("dataset: scan range [%d,%d) out of [0,%d]", r.Lo, r.Hi, gen.total)
		}
		lo, hi = r.Lo, r.Hi
	}
	k := opts.FileConcurrency
	if k <= 0 {
		k = runtime.GOMAXPROCS(0)
	}
	if k > maxFileConcurrency {
		k = maxFileConcurrency
	}

	s := &Scanner{
		schema:     schema,
		sem:        make(chan struct{}, k),
		stop:       make(chan struct{}),
		degradedOK: opts.Degraded,
		// Pin the snapshotted generation for the scanner's lifetime:
		// Vacuum retains a superseded generation while a scanner is still
		// serving it. Released by shutdown (Close, or a failed Next).
		unpin: pinGeneration(d.backend.Root(), gen.manifest),
	}
	if res, ok := d.backend.(interface {
		ResilienceStats() storage.ResilienceStats
	}); ok {
		s.res = res
		s.resBase = res.ResilienceStats()
	}
	if d.cache != nil {
		s.cache = d.cache
		s.cacheBase = d.cache.Stats()
	}
	filters := core.PrepareFileFilters(opts.Filters)
	for i, m := range gen.members {
		fileLo, fileHi := gen.starts[i], gen.starts[i]+m.entry.Rows
		if m.entry.Rows == 0 || m.entry.LiveRows == 0 ||
			fileHi <= lo || fileLo >= hi || m.excluded(d, filters) {
			s.pruned++
			continue
		}
		local := opts.ScanOptions
		localLo, localHi := uint64(0), m.entry.Rows
		if lo > fileLo {
			localLo = lo - fileLo
		}
		if hi < fileHi {
			localHi = m.entry.Rows - (fileHi - hi)
		}
		local.Range = &core.RowRange{Lo: localLo, Hi: localHi}
		s.members = append(s.members, &memberScan{
			m:    m,
			d:    d,
			opts: local,
			ch:   make(chan *core.Batch, 2),
		})
	}

	// The dispatcher starts member engines strictly in file order as
	// concurrency slots free up, so the engines running at any moment are
	// always the earliest unfinished files — the consumer can never be
	// blocked behind a member that cannot get a slot. A stop closes the
	// channels of the members it never started.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for i, ms := range s.members {
			select {
			case s.sem <- struct{}{}:
			case <-s.stop:
				for _, never := range s.members[i:] {
					close(never.ch)
				}
				return
			}
			s.wg.Add(1)
			go s.runMember(ms)
		}
	}()
	return s, nil
}

// projectSchema resolves the projected schema from the dataset schema,
// rejecting unknown names up front — a scan over a fully pruned (or
// empty) dataset must still report a projection typo, matching core.
// Each name is one lookup in the schema file's name index.
func projectSchema(schema *schemaFile, names []string) (*core.Schema, error) {
	if len(names) == 0 {
		return schema.schema(), nil
	}
	fields := make([]core.Field, 0, len(names))
	for _, name := range names {
		f, ok := schema.field(name)
		if !ok {
			return nil, fmt.Errorf("dataset: no column %q", name)
		}
		fields = append(fields, f)
	}
	return &core.Schema{Fields: fields}, nil
}

// validateFilters mirrors core's filter validation so a scan over a fully
// pruned (or empty) dataset still rejects bad filters.
func validateFilters(schema *schemaFile, filters []core.ColumnFilter) error {
	for _, cf := range filters {
		if _, ok := schema.field(cf.Column); !ok {
			return fmt.Errorf("dataset: no column %q", cf.Column)
		}
		if err := cf.Validate(); err != nil {
			return fmt.Errorf("dataset: %v", err)
		}
	}
	return nil
}

// excluded reports whether the member's file-level statistics prove no
// row of it can satisfy some filter: core.Footer.Excludes, the check a
// core scan makes against a member's own footer, asked of the member's
// statistics. Only a filter reads them.
func (m *member) excluded(d *Dataset, filters *core.FileFilters) bool {
	if filters == nil {
		return false
	}
	st, err := m.statistics(d)
	return err == nil && st != nil && st.Excludes(filters)
}

// runMember runs one scan engine over the member file, streams its
// batches, and frees the concurrency slot the dispatcher gave it.
func (s *Scanner) runMember(ms *memberScan) {
	defer s.wg.Done()
	defer close(ms.ch)
	defer func() { <-s.sem }()

	f, err := ms.m.open(ms.d)
	if err != nil {
		ms.err = err
		return
	}
	sc, err := f.Scan(ms.opts)
	if err != nil {
		ms.err = fmt.Errorf("dataset: scanning %s: %w", ms.m.entry.Name, err)
		return
	}
	defer sc.Close()
	for {
		b, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			ms.err = fmt.Errorf("dataset: scanning %s: %w", ms.m.entry.Name, err)
			return
		}
		select {
		case ms.ch <- b:
		case <-s.stop:
			return
		}
	}
	st := sc.Stats()
	s.statsMu.Lock()
	s.agg.Add(st)
	s.done++
	s.statsMu.Unlock()
}

// Next returns the next batch in dataset order (member files in manifest
// order, batches in file order within each member), or io.EOF when every
// member is drained.
func (s *Scanner) Next() (*core.Batch, error) {
	if s.failed != nil {
		return nil, s.failed
	}
	if s.closed {
		return nil, fmt.Errorf("dataset: scanner closed")
	}
	for {
		if s.cur >= len(s.members) {
			return nil, io.EOF
		}
		ms := s.members[s.cur]
		b, ok := <-ms.ch
		if !ok {
			if ms.err != nil {
				if s.degradedOK {
					// The member died after its retry budget; report it and
					// move on. Any batches it emitted before failing were
					// already returned — a degraded scan may serve a prefix
					// of a failed member.
					s.statsMu.Lock()
					s.degraded = append(s.degraded, ms.m.entry.Name)
					s.statsMu.Unlock()
					s.cur++
					continue
				}
				s.failed = ms.err
				s.shutdown()
				return nil, ms.err
			}
			s.cur++
			continue
		}
		return b, nil
	}
}

// Recycle returns a finished batch's storage to the member engine that
// produced it, so later batches of that member decode into it. As with
// the core scanner, the batch must not be read afterwards; Recycle is
// safe to call concurrently with Next. Recycling a batch twice, a batch
// no scan engine returned (a Project result, say), or any batch after
// Close is a no-op, as is one whose member engine has finished; a batch
// from another scanner goes back to the engine that produced it.
func (s *Scanner) Recycle(b *core.Batch) { core.RecycleBatch(b) }

// Schema returns the projected schema, in output column order.
func (s *Scanner) Schema() *core.Schema { return s.schema }

// Stats returns the aggregated scan statistics (see ScanStats).
func (s *Scanner) Stats() ScanStats {
	s.statsMu.Lock()
	st := ScanStats{
		ScanStats:       s.agg,
		FilesPlanned:    len(s.members),
		FilesPruned:     s.pruned,
		FilesScanned:    s.done,
		DegradedMembers: append([]string(nil), s.degraded...),
	}
	s.statsMu.Unlock()
	if s.res != nil {
		cur := s.res.ResilienceStats()
		st.Retries = cur.Retries - s.resBase.Retries
		st.Hedges = cur.Hedges - s.resBase.Hedges
		st.HedgeWins = cur.HedgeWins - s.resBase.HedgeWins
	}
	if s.cache != nil {
		cur := s.cache.Stats()
		st.Cache = CacheScanStats{
			FooterHits:    cur.FooterHits - s.cacheBase.FooterHits,
			FooterMisses:  cur.FooterMisses - s.cacheBase.FooterMisses,
			HandleHits:    cur.HandleHits - s.cacheBase.HandleHits,
			HandleMisses:  cur.HandleMisses - s.cacheBase.HandleMisses,
			PageHits:      cur.PageHits - s.cacheBase.PageHits,
			PageMisses:    cur.PageMisses - s.cacheBase.PageMisses,
			PageEvictions: cur.PageEvictions - s.cacheBase.PageEvictions,
		}
	}
	return st
}

// Close stops the member engines. Safe to call more than once and after
// io.EOF or an error.
func (s *Scanner) Close() error {
	if !s.closed {
		s.closed = true
		s.shutdown()
	}
	return nil
}

func (s *Scanner) shutdown() {
	s.stopOnce.Do(func() {
		close(s.stop)
		s.wg.Wait()
		if s.unpin != nil {
			s.unpin()
		}
	})
}
