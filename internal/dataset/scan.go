package dataset

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"bullion/internal/cache"
	"bullion/internal/core"
	"bullion/internal/enc"
	"bullion/internal/storage"
)

// maxFileConcurrency bounds explicit ScanOptions.FileConcurrency requests.
const maxFileConcurrency = 64

// ScanOptions configures Dataset.Scan. The embedded core options apply to
// each member file's scan engine; Range is interpreted in dataset-global
// rows (member files concatenated in manifest order) and clipped per
// file, and Filters additionally prune whole files via the manifest's
// file-level zone maps before any member is opened.
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

	// owners maps an emitted batch to the member engine that produced it,
	// tracked only under ReuseBatches so batches a caller never recycles
	// are not pinned. Guarded by ownersMu: Recycle may race Next.
	reuseOn  bool
	ownersMu sync.Mutex
	owners   map[*core.Batch]*memberScan

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

// memberScan is one planned member file: a gate the dispatcher opens when
// a concurrency slot frees, and the channel its engine streams batches
// into.
type memberScan struct {
	m    *member
	d    *Dataset
	opts core.ScanOptions
	gate chan struct{}
	ch   chan *core.Batch
	// sc is set by the member goroutine before its first send; the
	// consumer only touches it for batches received from ch, so the
	// channel provides the happens-before edge.
	sc  *core.Scanner
	err error // read by the consumer only after ch closes
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
		reuseOn:    opts.ReuseBatches,
		owners:     map[*core.Batch]*memberScan{},
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
	prepared := prepareFilters(opts.Filters)
	for i, m := range gen.members {
		fileLo, fileHi := gen.starts[i], gen.starts[i]+m.entry.Rows
		if m.entry.Rows == 0 || m.entry.LiveRows == 0 ||
			fileHi <= lo || fileLo >= hi || m.excluded(prepared) {
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
			gate: make(chan struct{}),
			ch:   make(chan *core.Batch, 2),
		})
	}

	// The dispatcher opens member gates strictly in file order as
	// concurrency slots free up, so the engines running at any moment are
	// always the earliest unfinished files — the consumer can never be
	// blocked behind a member that cannot get a slot.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for _, ms := range s.members {
			select {
			case s.sem <- struct{}{}:
			case <-s.stop:
				return
			}
			close(ms.gate)
		}
	}()
	for _, ms := range s.members {
		s.wg.Add(1)
		go s.runMember(ms)
	}
	return s, nil
}

// projectSchema resolves the projected schema from the dataset schema,
// rejecting unknown names up front — a scan over a fully pruned (or
// empty) dataset must still report a projection typo, matching core.
func projectSchema(schema *core.Schema, names []string) (*core.Schema, error) {
	if len(names) == 0 {
		return schema, nil
	}
	fields := make([]core.Field, 0, len(names))
	for _, name := range names {
		i, ok := schema.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("dataset: no column %q", name)
		}
		fields = append(fields, schema.Fields[i])
	}
	return &core.Schema{Fields: fields}, nil
}

// validateFilters mirrors core's filter validation so a scan over a fully
// pruned (or empty) dataset still rejects bad filters.
func validateFilters(schema *core.Schema, filters []core.ColumnFilter) error {
	for _, cf := range filters {
		if _, ok := schema.Lookup(cf.Column); !ok {
			return fmt.Errorf("dataset: no column %q", cf.Column)
		}
		if err := cf.Validate(); err != nil {
			return fmt.Errorf("dataset: %v", err)
		}
	}
	return nil
}

// manifestFilter is one filter prepared for manifest-level pruning: the
// membership set is hashed once per scan, not per member file.
type manifestFilter struct {
	cf     core.ColumnFilter
	hashes []uint64
}

func prepareFilters(filters []core.ColumnFilter) []manifestFilter {
	out := make([]manifestFilter, len(filters))
	for i, cf := range filters {
		out[i].cf = cf
		for _, v := range cf.ValueIn {
			out[i].hashes = append(out[i].hashes, enc.BloomHash(v))
		}
	}
	return out
}

// excluded reports whether the manifest's file-level statistics prove
// no row of the member can satisfy some filter: int and float zone maps
// for range predicates, the per-member bloom for membership predicates.
// Columns without matching-domain statistics never prune (conservative,
// exactly like page pruning). Bloom probes go through the member's
// parse-once memo — repeated scans re-probe without re-parsing.
func (m *member) excluded(filters []manifestFilter) bool {
	e := &m.entry
	for i := range filters {
		cf := &filters[i].cf
		z, ok := e.zone(cf.Column)
		if !ok {
			continue
		}
		if z.hasIntBounds() && (cf.Min != nil || cf.Max != nil) {
			if (cf.Min != nil && z.Max < *cf.Min) || (cf.Max != nil && z.Min > *cf.Max) {
				return true
			}
		}
		if z.Kind == "float" && z.FMin != nil && z.FMax != nil && (cf.FloatMin != nil || cf.FloatMax != nil) {
			if (cf.FloatMin != nil && *z.FMax < *cf.FloatMin) || (cf.FloatMax != nil && *z.FMin > *cf.FloatMax) {
				return true
			}
		}
		if hs := filters[i].hashes; len(hs) > 0 {
			if fl := m.manifestBloom(cf.Column); fl != nil && !bloomAnyHash(fl, hs) {
				return true
			}
		}
	}
	return false
}

func bloomAnyHash(fl *enc.Bloom, hashes []uint64) bool {
	for _, h := range hashes {
		if fl.ContainsHash(h) {
			return true
		}
	}
	return false
}

// runMember waits for its dispatch gate, runs one scan engine over the
// member file, and streams its batches.
func (s *Scanner) runMember(ms *memberScan) {
	defer s.wg.Done()
	defer close(ms.ch)
	select {
	case <-ms.gate:
	case <-s.stop:
		return
	}
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
	ms.sc = sc
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
		if s.reuseOn {
			s.ownersMu.Lock()
			s.owners[b] = ms
			s.ownersMu.Unlock()
		}
		return b, nil
	}
}

// Recycle returns a finished batch's storage to the member engine that
// produced it (ScanOptions.ReuseBatches; no-op otherwise). As with the
// core scanner, the batch must not be read afterwards; Recycle is safe to
// call concurrently with Next.
func (s *Scanner) Recycle(b *core.Batch) {
	s.ownersMu.Lock()
	ms, ok := s.owners[b]
	if ok {
		delete(s.owners, b)
	}
	s.ownersMu.Unlock()
	if ok {
		ms.sc.Recycle(b)
	}
}

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
		// Drain member channels so no engine goroutine stays blocked on a
		// full channel racing the stop select.
		for _, ms := range s.members {
			go func(ch chan *core.Batch) {
				for range ch {
				}
			}(ms.ch)
		}
		s.wg.Wait()
		if s.unpin != nil {
			s.unpin()
		}
	})
}
