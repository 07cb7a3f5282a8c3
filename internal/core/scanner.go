package core

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"bullion/internal/enc"
	"bullion/internal/footer"
	"bullion/internal/quant"
)

// This file is the read engine: every read of a File — streaming scans
// and the whole-column wrappers in file.go alike — is a Scanner. It
// iterates the projected column set in fixed-size row batches — the shape
// ML data loaders consume — planning each batch's physical reads across
// all projected columns (coalesce.go) and decoding the columns of
// in-flight batches on a GOMAXPROCS-bounded worker pool while preserving
// file order. Batches that provably contain no useful rows are skipped
// before any I/O happens:
//   - batches outside ScanOptions.Range are never planned,
//   - batches whose rows are all deleted are dropped (deleted-heavy files
//     touch proportionally less I/O),
//   - batches where the footer's per-page min/max zone maps prove that no
//     page can satisfy a ColumnFilter are dropped.

// DefaultScanBatchRows is the default Scanner batch size: 4 default-sized
// pages, small enough to keep workers*batch resident, large enough to
// amortize per-batch overhead.
const DefaultScanBatchRows = 4096

// maxScanWorkers bounds explicit ScanOptions.Workers requests.
const maxScanWorkers = 256

// RowRange restricts a scan to global rows [Lo, Hi).
type RowRange struct {
	Lo, Hi uint64
}

// ColumnFilter is a statistics predicate on one column: a batch survives
// only if some overlapping page of the column may satisfy it. Three
// predicate classes exist, each pruning through its own statistics
// domain:
//
//   - Min/Max (nil = open) is an int64 range; prunes int64/int32 columns
//     via int zone maps.
//   - FloatMin/FloatMax (nil = open) is a float64 range; prunes
//     float64/float32 columns via float zone maps (footer v3).
//   - ValueIn is a byte-string membership set ("column equals one of
//     these"); prunes Binary/String columns via page, file, and (through
//     the dataset manifest) per-member bloom filters. An empty ValueIn
//     constrains nothing.
//
// Pruning is conservative in every class — surviving batches are returned
// in full and may still contain non-matching rows (bloom probes also
// admit false positives at the sizing target); exact filtering is the
// caller's job. A filter whose domain does not match the column's
// recorded statistics (an int range on a float column, any filter on a
// statless v2 file) never prunes anything.
type ColumnFilter struct {
	Column   string
	Min      *int64
	Max      *int64
	FloatMin *float64
	FloatMax *float64
	ValueIn  [][]byte
}

// ScanOptions configures File.Scan.
type ScanOptions struct {
	// Columns is the projected column set, in output order. Empty means
	// every column in schema order.
	Columns []string
	// BatchRows is the rows per emitted batch (DefaultScanBatchRows when
	// <= 0). The final batch of a scan may be shorter, and deletions can
	// shrink any batch. Batches that do not align with page boundaries
	// re-read and re-decode the shared boundary page per batch, so a
	// multiple of the writer's RowsPerPage (default 1024) decodes each
	// page exactly once.
	BatchRows int
	// Workers sets the decode parallelism. <= 0 means GOMAXPROCS (the
	// CPU-bound sweet spot). Explicit values are honored beyond GOMAXPROCS
	// (capped at maxScanWorkers) — extra workers help when the reader has
	// latency to hide (object storage, cold NVMe), since blocked reads
	// don't occupy a CPU.
	Workers int
	// Range, when non-nil, restricts the scan to the given global rows.
	Range *RowRange
	// Filters prune batches via the footer's page zone maps.
	Filters []ColumnFilter
	// CoalesceGap is the largest run of cold bytes a read may read
	// through to merge two wanted page runs into one I/O (see
	// DefaultCoalesceGap, used when 0). Negative disables read-through:
	// only exactly byte-adjacent page runs merge, which together with the
	// CoalesceLimit cap is the setting for storage that penalizes large
	// or wasteful requests.
	CoalesceGap int
	// ReuseBatches opts into batch recycling: when the caller returns a
	// finished batch via Scanner.Recycle, later batches decode into its
	// column storage instead of allocating, making steady-state Next
	// calls allocation-free for fixed-width columns. Batches must not be
	// read after being recycled.
	ReuseBatches bool
}

// ScanStats reports the physical work a scan performed so far.
//
// PagesDecoded and PagesSkipped count page visits: when batches are not
// page-aligned, a page overlapping several batches contributes once per
// batch (and a boundary page of a pruned batch can be both skipped there
// and decoded by its surviving neighbor).
type ScanStats struct {
	BytesRead      int64 // encoded bytes fetched from the reader
	PagesDecoded   int64
	PagesSkipped   int64 // projected page visits covered by pruned batches
	BatchesEmitted int64
	// BatchesSkipped counts batches pruned by deletion or zone-map
	// filters; rows outside ScanOptions.Range are never planned as
	// batches and are not counted here.
	BatchesSkipped int64
	RowsEmitted    int64
	// ReadOps counts physical ReadAt calls issued so far. Adjacent column
	// chunks share reads, so ReadOps can be far below columns x batches.
	ReadOps int64
	// CoalescedBytes counts bytes fetched by reads that merged page runs
	// of two or more columns into one I/O.
	CoalescedBytes int64
	// WastedBytes counts cold gap bytes read through under CoalesceGap:
	// transferred but belonging to no projected page.
	WastedBytes int64
}

// Add adds every counter of o to s.
func (s *ScanStats) Add(o ScanStats) {
	s.BytesRead += o.BytesRead
	s.PagesDecoded += o.PagesDecoded
	s.PagesSkipped += o.PagesSkipped
	s.BatchesEmitted += o.BatchesEmitted
	s.BatchesSkipped += o.BatchesSkipped
	s.RowsEmitted += o.RowsEmitted
	s.ReadOps += o.ReadOps
	s.CoalescedBytes += o.CoalescedBytes
	s.WastedBytes += o.WastedBytes
}

// rowSpan is one planned batch: global rows [lo, hi).
type rowSpan struct {
	lo, hi uint64
}

// segRef points a projected column at one of its page segments inside a
// planned span run.
type segRef struct {
	run *spanRun
	seg runSeg
}

// scanSlot carries one in-flight batch through the worker pool.
type scanSlot struct {
	idx  int
	span rowSpan
	cols []ColumnData
	// runs are the planned physical reads for this span; colSegs holds,
	// per projected column, its page segments in row order.
	runs    []*spanRun
	colSegs [][]segRef
	// reuse holds a recycled batch's column storage (ReuseBatches).
	reuse     []ColumnData
	remaining atomic.Int32
	errMu     sync.Mutex
	err       error
}

func (s *scanSlot) setErr(err error) {
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
}

type scanTask struct {
	slot *scanSlot
	col  int // index into Scanner.cols
}

// Scanner streams a projected column set in row batches. One Scanner must
// be used from a single goroutine; any number of Scanners may run
// concurrently over the same *File.
type Scanner struct {
	f      *File
	cols   []int
	schema *Schema

	batches []rowSpan
	workers int

	gap         int64
	reuseOn     bool
	poolRunBufs bool // run buffers recyclable: no projected column aliases them

	tasks chan scanTask
	ready chan *scanSlot
	sem   chan struct{}
	stop  chan struct{}
	wg    sync.WaitGroup

	next     int
	pending  map[int]*scanSlot
	failed   error
	closed   bool
	stopOnce sync.Once

	freeMu sync.Mutex
	free   [][]ColumnData

	bytesRead    atomic.Int64
	pagesDecoded atomic.Int64
	readOps      atomic.Int64
	coalescedB   atomic.Int64
	wastedB      atomic.Int64
	pagesSkipped int64
	batchesSkip  int64
	batchesOut   int64
	rowsOut      int64
}

// Scan plans a streaming scan and starts its decode pool.
func (f *File) Scan(opts ScanOptions) (*Scanner, error) {
	var cols []int
	if len(opts.Columns) == 0 {
		cols = make([]int, f.NumColumns())
		for i := range cols {
			cols[i] = i
		}
	} else {
		var err error
		if cols, err = f.lookupColumns(opts.Columns); err != nil {
			return nil, err
		}
	}
	return newScanner(f, cols, opts)
}

// lookupColumns resolves column names to indices.
func (f *File) lookupColumns(names []string) ([]int, error) {
	cols := make([]int, len(names))
	for i, name := range names {
		ci, ok := f.LookupColumn(name)
		if !ok {
			return nil, fmt.Errorf("core: no column %q", name)
		}
		cols[i] = ci
	}
	return cols, nil
}

// newScanner plans a scan of column indices cols (opts.Columns, already
// resolved) and starts its decode pool.
func newScanner(f *File, cols []int, opts ScanOptions) (*Scanner, error) {
	fields := make([]Field, len(cols))
	for i, ci := range cols {
		fields[i] = f.FieldByIndex(ci)
	}
	// Reads are driven by the page index; a header row count that
	// disagrees with it would plan batches over rows no page holds.
	numRows := f.NumRows()
	counts, starts := f.ftr.groupGeometry()
	var indexed uint64
	if g := len(counts) - 1; g >= 0 {
		indexed = starts[g] + uint64(counts[g])
	}
	if indexed != numRows {
		return nil, fmt.Errorf("core: footer claims %d rows, page index holds %d", numRows, indexed)
	}
	batchRows := opts.BatchRows
	if batchRows <= 0 {
		batchRows = DefaultScanBatchRows
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > maxScanWorkers {
		workers = maxScanWorkers
	}
	lo, hi := uint64(0), numRows
	if r := opts.Range; r != nil {
		if r.Lo > r.Hi || r.Hi > numRows {
			return nil, fmt.Errorf("core: scan range [%d,%d) out of [0,%d]", r.Lo, r.Hi, numRows)
		}
		lo, hi = r.Lo, r.Hi
	}
	filters, err := resolveFilters(f, opts.Filters)
	if err != nil {
		return nil, err
	}

	gap := int64(opts.CoalesceGap)
	if opts.CoalesceGap == 0 {
		gap = DefaultCoalesceGap
	} else if gap < 0 {
		gap = 0
	}
	s := &Scanner{
		f:           f,
		cols:        cols,
		schema:      &Schema{Fields: fields},
		workers:     workers,
		gap:         gap,
		reuseOn:     opts.ReuseBatches,
		poolRunBufs: !projectionAliases(fields),
		pending:     map[int]*scanSlot{},
		stop:        make(chan struct{}),
	}
	// Whole-file pruning first: when the footer's file-level stats or
	// blooms prove the filters cannot match anywhere, no batch is planned
	// and no page statistic is ever consulted.
	fileExcluded := fileExcludedByFilters(f, filters)
	for b := lo; b < hi; b += uint64(batchRows) {
		span := rowSpan{b, min(b+uint64(batchRows), hi)}
		if fileExcluded || s.pruneBatch(span, filters) {
			s.batchesSkip++
			for _, ci := range cols {
				s.pagesSkipped += int64(countPagesInSpan(f, ci, span))
			}
			continue
		}
		s.batches = append(s.batches, span)
	}
	s.start()
	return s, nil
}

type boundFilter struct {
	col        int
	min, max   *int64
	fmin, fmax *float64
	// hashes are the pre-computed BloomHash values of ValueIn (nil when
	// the filter carries no membership set).
	hashes []uint64
}

// Validate checks the filter's internal consistency (column existence is
// the scan planner's job — core and the dataset layer resolve names
// against different schemas). Both layers call this before planning.
func (cf *ColumnFilter) Validate() error {
	if cf.Min != nil && cf.Max != nil && *cf.Min > *cf.Max {
		return fmt.Errorf("filter on %q has min %d > max %d", cf.Column, *cf.Min, *cf.Max)
	}
	if cf.FloatMin != nil && cf.FloatMax != nil && *cf.FloatMin > *cf.FloatMax {
		return fmt.Errorf("filter on %q has float min %v > max %v", cf.Column, *cf.FloatMin, *cf.FloatMax)
	}
	return nil
}

// filterHashes pre-hashes a membership set once per scan.
func filterHashes(values [][]byte) []uint64 {
	if len(values) == 0 {
		return nil
	}
	hs := make([]uint64, len(values))
	for i, v := range values {
		hs[i] = enc.BloomHash(v)
	}
	return hs
}

func resolveFilters(f *File, fs []ColumnFilter) ([]boundFilter, error) {
	out := make([]boundFilter, 0, len(fs))
	for _, cf := range fs {
		ci, ok := f.LookupColumn(cf.Column)
		if !ok {
			return nil, fmt.Errorf("core: no column %q", cf.Column)
		}
		if err := cf.Validate(); err != nil {
			return nil, fmt.Errorf("core: %v", err)
		}
		out = append(out, boundFilter{
			col: ci, min: cf.Min, max: cf.Max, fmin: cf.FloatMin, fmax: cf.FloatMax,
			hashes: filterHashes(cf.ValueIn),
		})
	}
	return out, nil
}

// pruneBatch reports whether span can be skipped entirely: every row
// deleted, or some statistics filter excludes every overlapping page.
func (s *Scanner) pruneBatch(span rowSpan, filters []boundFilter) bool {
	if s.f.deletedInRange(span.lo, span.hi) == int(span.hi-span.lo) {
		return true
	}
	for i := range filters {
		if s.filterExcludesSpan(&filters[i], span) {
			return true
		}
	}
	return false
}

// statExcludes reports whether one zone-map entry (page- or file-level:
// both share the flag layout) proves bf's range predicates cannot match.
// Mismatched domains never exclude.
func statExcludes(bf *boundFilter, min, max int64, flags uint32) bool {
	if flags&footer.StatHasMinMax == 0 {
		return false
	}
	if flags&footer.StatFloatBits != 0 {
		if bf.fmin == nil && bf.fmax == nil {
			return false
		}
		lo, hi := statFloatBounds(min, max)
		return (bf.fmin != nil && hi < *bf.fmin) || (bf.fmax != nil && lo > *bf.fmax)
	}
	if bf.min == nil && bf.max == nil {
		return false
	}
	return (bf.min != nil && max < *bf.min) || (bf.max != nil && min > *bf.max)
}

// bloomExcludes reports whether a serialized bloom filter proves none of
// bf's membership hashes can be present. Absent or unreadable filters
// never exclude.
func bloomExcludes(bf *boundFilter, blob []byte) bool {
	if len(bf.hashes) == 0 || len(blob) == 0 {
		return false
	}
	fl, err := enc.OpenBloom(blob)
	if err != nil {
		return false
	}
	return bloomFilterExcludes(bf, fl)
}

// bloomFilterExcludes is bloomExcludes over an already-parsed filter
// (the memoized path: parse once per Footer, probe every scan).
func bloomFilterExcludes(bf *boundFilter, fl *enc.Bloom) bool {
	if len(bf.hashes) == 0 || fl == nil {
		return false
	}
	for _, h := range bf.hashes {
		if fl.ContainsHash(h) {
			return false
		}
	}
	return true
}

// filterExcludesSpan reports whether the statistics of every page of
// bf.col overlapping span prove the filter cannot match: zone maps for
// the range predicates, page blooms for the membership predicate.
func (s *Scanner) filterExcludesSpan(bf *boundFilter, span rowSpan) bool {
	excluded := true
	v := s.f.view
	forEachPageInSpan(s.f, bf.col, span, func(p int, _, _ uint64) bool {
		st, ok := v.PageStat(p)
		if ok && statExcludes(bf, st.Min, st.Max, st.Flags) {
			return true
		}
		if bloomExcludes(bf, v.PageBloom(p)) {
			return true
		}
		excluded = false
		return false
	})
	return excluded
}

// fileExcludedByFilters is the planner's whole-file check, run before any
// batch is planned: the footer's file-level column stats and blooms
// (footer v3) can prove an entire scan empty in O(filters) without
// touching page statistics.
func fileExcludedByFilters(f *File, filters []boundFilter) bool {
	for i := range filters {
		bf := &filters[i]
		if st, ok := f.view.ColumnStat(bf.col); ok && statExcludes(bf, st.Min, st.Max, st.Flags) {
			return true
		}
		// Parsed column blooms are memoized on the shared Footer.
		if bloomFilterExcludes(bf, f.ftr.ColumnBloomFilter(bf.col)) {
			return true
		}
	}
	return false
}

// start launches the producer and the decode pool.
func (s *Scanner) start() {
	s.tasks = make(chan scanTask)
	s.ready = make(chan *scanSlot, s.workers+1)
	s.sem = make(chan struct{}, s.workers+1)

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer close(s.tasks)
		for i, span := range s.batches {
			select {
			case s.sem <- struct{}{}:
			case <-s.stop:
				return
			}
			slot := &scanSlot{idx: i, span: span, cols: make([]ColumnData, len(s.cols))}
			slot.runs = planSpanRuns(s.f, s.cols, span, s.gap)
			// Bucket each column's segments (in row = file-offset order)
			// into one shared backing array: a per-column append loop
			// would cost O(columns) allocations per batch.
			ends := make([]int, len(s.cols)+1)
			total := 0
			for _, run := range slot.runs {
				for _, seg := range run.segs {
					ends[seg.col+1]++
					total++
				}
			}
			for c := 0; c < len(s.cols); c++ {
				ends[c+1] += ends[c]
			}
			backing := make([]segRef, total)
			cursor := append([]int(nil), ends[:len(s.cols)]...)
			for _, run := range slot.runs {
				for _, seg := range run.segs {
					backing[cursor[seg.col]] = segRef{run: run, seg: seg}
					cursor[seg.col]++
				}
			}
			slot.colSegs = make([][]segRef, len(s.cols))
			for c := range slot.colSegs {
				slot.colSegs[c] = backing[ends[c]:ends[c+1]]
			}
			slot.reuse = s.takeFree()
			slot.remaining.Store(int32(len(s.cols)))
			for c := range s.cols {
				select {
				case s.tasks <- scanTask{slot: slot, col: c}:
				case <-s.stop:
					return
				}
			}
		}
	}()

	for w := 0; w < s.workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for task := range s.tasks {
				data, err := s.decodeColumn(task.slot, task.col)
				if err != nil {
					task.slot.setErr(err)
				} else {
					task.slot.cols[task.col] = data
				}
				if task.slot.remaining.Add(-1) == 0 {
					// All column tasks of this slot are done; no goroutine
					// can still touch its run buffers.
					releaseRuns(task.slot)
					select {
					case s.ready <- task.slot:
					case <-s.stop:
						return
					}
				}
			}
		}()
	}
}

// Next returns the next batch in file order, or io.EOF when the scan is
// exhausted. The returned batch is owned by the caller.
func (s *Scanner) Next() (*Batch, error) {
	if s.failed != nil {
		return nil, s.failed
	}
	if s.closed {
		return nil, fmt.Errorf("core: scanner closed")
	}
	for {
		if s.next >= len(s.batches) {
			return nil, io.EOF
		}
		if slot, ok := s.pending[s.next]; ok {
			delete(s.pending, s.next)
			s.next++
			<-s.sem
			if slot.err != nil {
				s.failed = slot.err
				s.shutdown()
				return nil, slot.err
			}
			s.batchesOut++
			s.rowsOut += int64(slot.cols[0].Len())
			return &Batch{Schema: s.schema, Columns: slot.cols}, nil
		}
		slot := <-s.ready
		s.pending[slot.idx] = slot
	}
}

// projectionAliases reports whether any projected column's decoded values
// can alias the encoded page bytes (byte-string decoding is zero-copy out
// of the read buffer). When true, run buffers must live as long as the
// batches referencing them and cannot be pooled.
func projectionAliases(fields []Field) bool {
	for _, f := range fields {
		switch f.Type.Kind {
		case Binary, String:
			return true
		case List:
			if f.Type.Elem == Binary {
				return true
			}
		}
	}
	return false
}

// fetchRun reads a planned run's bytes exactly once; concurrent column
// tasks needing the same run block on the first fetch (they would be
// blocked on their own I/O otherwise). The buffer comes from the run pool
// unless a projected column would alias it.
func (s *Scanner) fetchRun(r *spanRun) error {
	r.fetchOnce.Do(func() {
		n := int(r.end - r.off)
		if s.poolRunBufs {
			r.bufP = getRunBuf(n)
			r.buf = *r.bufP
		} else {
			r.buf = make([]byte, n)
		}
		if _, err := s.f.r.ReadAt(r.buf, r.off); err != nil {
			r.err = fmt.Errorf("core: coalesced read [%d,%d): %w", r.off, r.end, err)
			if r.bufP != nil {
				putRunBuf(r.bufP)
				r.bufP, r.buf = nil, nil
			}
			return
		}
		s.readOps.Add(1)
		s.bytesRead.Add(int64(n))
		if len(r.segs) > 1 {
			s.coalescedB.Add(int64(n))
		}
		s.wastedB.Add(r.wasted)
	})
	return r.err
}

// releaseRuns returns a completed slot's pooled run buffers. Called by the
// worker that finishes the slot's last column task, so no other goroutine
// can still slice the buffers.
func releaseRuns(slot *scanSlot) {
	for _, r := range slot.runs {
		if r.bufP != nil {
			putRunBuf(r.bufP)
			r.bufP, r.buf = nil, nil
		}
	}
}

// pageVisit is one page of a projected column inside a batch span, as
// walkPages hands it to a page decoder.
type pageVisit struct {
	payload  []byte // the page's encoded bytes, sliced from its run buffer
	logical  int    // rows the page encodes (Level-2 masks in place, so never fewer)
	rowStart uint64 // global row id of the page's first row
	// [clipLo, clipHi) are the page-local rows inside the span; nDel of
	// them are marked in the deletion vector.
	clipLo, clipHi, nDel int
}

// whole reports the common case — a page fully inside the span with no
// deleted row — which decoders can decode straight into their output.
func (pg *pageVisit) whole() bool {
	return pg.clipLo == 0 && pg.clipHi == pg.logical && pg.nDel == 0
}

// walkPages is the read side's only page loop: it visits, in row order,
// every page of projected column pos that overlaps the slot's span —
// fetching the planned run (once, shared with the other columns in it),
// slicing the page's payload out of the run buffer, and clipping the page
// to the span and the deletion vector — and calls decode on each.
func (s *Scanner) walkPages(slot *scanSlot, pos int, decode func(pg pageVisit) error) error {
	f, span := s.f, slot.span
	for _, sr := range slot.colSegs[pos] {
		if err := s.fetchRun(sr.run); err != nil {
			return err
		}
		rowStart := sr.seg.firstRowStart
		for p := sr.seg.first; p <= sr.seg.last; p++ {
			pOff, pEnd := f.pageByteRange(p)
			pg := pageVisit{
				payload:  sr.run.buf[pOff-sr.run.off : pEnd-sr.run.off],
				logical:  f.view.PageRows(p),
				rowStart: rowStart,
			}
			rowEnd := rowStart + uint64(pg.logical)
			pg.clipHi = pg.logical
			if rowStart < span.lo {
				pg.clipLo = int(span.lo - rowStart)
			}
			if rowEnd > span.hi {
				pg.clipHi = pg.logical - int(rowEnd-span.hi)
			}
			pg.nDel = f.deletedInRange(rowStart+uint64(pg.clipLo), rowStart+uint64(pg.clipHi))
			if err := decode(pg); err != nil {
				return fmt.Errorf("core: decoding page %d of column %q: %w", p, s.schema.Fields[pos].Name, err)
			}
			s.pagesDecoded.Add(1)
			rowStart = rowEnd
		}
	}
	return nil
}

// spanRows returns how many rows of the slot's span the pages of projected
// column pos cover: the span's size on a well-formed file, and a bound
// taken from the page index (not the footer's row count) on a corrupt one.
func spanRows(slot *scanSlot, pos int) int {
	n := 0
	for _, sr := range slot.colSegs[pos] {
		n += sr.seg.rows
	}
	return n
}

// decodeColumn decodes projected column pos of a slot from its planned run
// buffers. Fixed-width columns decode straight into the output slice
// (recycled from ScanOptions.ReuseBatches when available): pages fully
// inside the span with no deletions — every page, when batches are
// page-aligned — cost zero allocations. Variable-width columns decode page
// by page and append.
func (s *Scanner) decodeColumn(slot *scanSlot, pos int) (ColumnData, error) {
	field := s.schema.Fields[pos]
	var reuse ColumnData
	if slot.reuse != nil {
		reuse = slot.reuse[pos]
	}
	switch {
	case field.Nullable && field.Type.Kind == Int64:
		return s.decodeNullable(slot, pos, reuse)
	case field.Type.Kind == Int64 || field.Type.Kind == Int32:
		prev, _ := reuse.(Int64Data)
		out, err := decodeFixed(s, slot, pos, prev,
			func(dst []int64, payload []byte) error {
				_, err := enc.DecodeIntsInto(dst, payload)
				return err
			})
		return Int64Data(out), err
	case field.Type.Kind == Float64:
		prev, _ := reuse.(Float64Data)
		out, err := decodeFixed(s, slot, pos, prev,
			func(dst []float64, payload []byte) error {
				_, err := enc.DecodeFloatsInto(dst, payload)
				return err
			})
		return Float64Data(out), err
	case field.Type.Kind == Float32:
		prev, _ := reuse.(Float32Data)
		qf := field.Type.Quant
		out, err := decodeFixed(s, slot, pos, prev,
			func(dst []float32, payload []byte) error {
				bp := getPageInts(len(dst))
				defer putPageInts(bp)
				bits, err := enc.DecodeIntsInto(*bp, payload)
				if err != nil {
					return err
				}
				_, err = quant.DequantizeInto(dst, bits, qf)
				return err
			})
		return Float32Data(out), err
	case field.Type.Kind == Bool:
		prev, _ := reuse.(BoolData)
		out, err := decodeFixed(s, slot, pos, prev,
			func(dst []bool, payload []byte) error {
				_, err := enc.DecodeBoolsInto(dst, payload)
				return err
			})
		return BoolData(out), err
	default:
		return s.decodeGeneric(slot, pos, field)
	}
}

// decodeFixed assembles one fixed-width column of a span, decoding each
// page into place with dec. prev, when large enough, is reused as the
// output storage.
func decodeFixed[T any](s *Scanner, slot *scanSlot, pos int, prev []T, dec func([]T, []byte) error) ([]T, error) {
	want := spanRows(slot, pos)
	var out []T
	if cap(prev) >= want {
		out = prev[:want]
	} else {
		out = make([]T, want)
	}
	n := 0
	err := s.walkPages(slot, pos, func(pg pageVisit) error {
		if pg.whole() {
			n += pg.logical
			return dec(out[n-pg.logical:n], pg.payload)
		}
		stage := make([]T, pg.logical)
		if err := dec(stage, pg.payload); err != nil {
			return err
		}
		if pg.nDel == 0 {
			n += copy(out[n:], stage[pg.clipLo:pg.clipHi])
			return nil
		}
		for i := pg.clipLo; i < pg.clipHi; i++ {
			if !s.f.rowDeleted(pg.rowStart + uint64(i)) {
				out[n] = stage[i]
				n++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out[:n], nil
}

// decodeNullable is decodeFixed for nullable int64 columns, which carry a
// values slice and a validity slice.
func (s *Scanner) decodeNullable(slot *scanSlot, pos int, reuse ColumnData) (ColumnData, error) {
	want := spanRows(slot, pos)
	var vals []int64
	var valid []bool
	if prev, ok := reuse.(NullableInt64Data); ok && cap(prev.Values) >= want && cap(prev.Valid) >= want {
		vals, valid = prev.Values[:want], prev.Valid[:want]
	} else {
		vals, valid = make([]int64, want), make([]bool, want)
	}
	n := 0
	err := s.walkPages(slot, pos, func(pg pageVisit) error {
		if pg.whole() {
			n += pg.logical
			return enc.DecodeNullableIntsInto(vals[n-pg.logical:n], valid[n-pg.logical:n], pg.payload)
		}
		sv := make([]int64, pg.logical)
		sb := make([]bool, pg.logical)
		if err := enc.DecodeNullableIntsInto(sv, sb, pg.payload); err != nil {
			return err
		}
		for i := pg.clipLo; i < pg.clipHi; i++ {
			if pg.nDel == 0 || !s.f.rowDeleted(pg.rowStart+uint64(i)) {
				vals[n], valid[n] = sv[i], sb[i]
				n++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return NullableInt64Data{Values: vals[:n], Valid: valid[:n]}, nil
}

// decodeGeneric handles variable-width columns (byte strings, lists,
// sparse sequences): each page decodes to its own column, which is
// clipped, filtered and appended.
func (s *Scanner) decodeGeneric(slot *scanSlot, pos int, field Field) (ColumnData, error) {
	var out ColumnData
	err := s.walkPages(slot, pos, func(pg pageVisit) error {
		data, err := decodePage(field, pg.payload, pg.logical)
		if err != nil {
			return err
		}
		if pg.clipLo != 0 || pg.clipHi != pg.logical {
			data = sliceColumn(data, pg.clipLo, pg.clipHi)
		}
		if pg.nDel > 0 {
			data = filterDeleted(data, s.f, pg.rowStart+uint64(pg.clipLo), pg.clipHi-pg.clipLo)
		}
		out = appendColumn(out, data)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if out == nil {
		out = defaultColumn(field, 0)
	}
	return out, nil
}

// Recycle returns a finished batch's column storage to the scanner so
// later batches can decode into it (ScanOptions.ReuseBatches). The batch
// must have been returned by this scanner's Next and must not be read
// afterwards. Recycle is safe to call concurrently with Next. Without
// ReuseBatches it is a no-op.
func (s *Scanner) Recycle(b *Batch) {
	if !s.reuseOn || b == nil || len(b.Columns) != len(s.cols) {
		return
	}
	s.freeMu.Lock()
	s.free = append(s.free, b.Columns)
	s.freeMu.Unlock()
}

// takeFree pops a recycled column set, or nil.
func (s *Scanner) takeFree() []ColumnData {
	if !s.reuseOn {
		return nil
	}
	s.freeMu.Lock()
	defer s.freeMu.Unlock()
	if n := len(s.free); n > 0 {
		set := s.free[n-1]
		s.free = s.free[:n-1]
		return set
	}
	return nil
}

// Stats returns a snapshot of the scan's physical work so far.
func (s *Scanner) Stats() ScanStats {
	return ScanStats{
		BytesRead:      s.bytesRead.Load(),
		PagesDecoded:   s.pagesDecoded.Load(),
		PagesSkipped:   s.pagesSkipped,
		BatchesEmitted: s.batchesOut,
		BatchesSkipped: s.batchesSkip,
		RowsEmitted:    s.rowsOut,
		ReadOps:        s.readOps.Load(),
		CoalescedBytes: s.coalescedB.Load(),
		WastedBytes:    s.wastedB.Load(),
	}
}

// Schema returns the projected schema, in output column order.
func (s *Scanner) Schema() *Schema { return s.schema }

// Close stops the decode pool. It is safe to call Close more than once,
// and after a scan has returned io.EOF or an error.
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
		// Drain ready so no worker stays blocked on a full channel.
		go func() {
			for range s.ready {
			}
		}()
		s.wg.Wait()
		close(s.ready)
	})
}
