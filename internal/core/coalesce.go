package core

import (
	"fmt"
	"sort"
	"sync"
)

// Column reordering and coalesced reads (§2.5, last paragraph): in
// recommendation workloads only ~10% of thousands of features are
// frequently accessed, so Bullion places hot columns contiguously within
// each row group and bundles adjacent column chunks into single I/O
// operations — the counterpart of Alpha's feature reordering + coalesced
// reads, on the column axis rather than Figure 7's row axis.

// CoalesceLimit is the largest single coalesced read, matching the 1.25 MiB
// the paper quotes from Alpha's coalesced-read design.
const CoalesceLimit = 1280 << 10

// DefaultCoalesceGap is the default ScanOptions.CoalesceGap: up to this
// many cold bytes between two wanted page runs are read through rather
// than split into two I/O operations. A few KiB of wasted transfer is
// cheaper than a second seek (or a second object-storage request) at
// every realistic latency.
const DefaultCoalesceGap = 4 << 10

// ReorderFields returns a copy of schema with the named hot columns moved
// to the front (in the order given), so their chunks are written adjacent
// within every row group. The returned permutation maps new index → old
// index for reordering batch columns.
func ReorderFields(schema *Schema, hot []string) (*Schema, []int, error) {
	idx := make(map[string]int, len(schema.Fields))
	for i, f := range schema.Fields {
		idx[f.Name] = i
	}
	taken := make([]bool, len(schema.Fields))
	perm := make([]int, 0, len(schema.Fields))
	for _, name := range hot {
		i, ok := idx[name]
		if !ok {
			return nil, nil, fmt.Errorf("core: hot column %q not in schema", name)
		}
		if taken[i] {
			return nil, nil, fmt.Errorf("core: hot column %q listed twice", name)
		}
		taken[i] = true
		perm = append(perm, i)
	}
	for i := range schema.Fields {
		if !taken[i] {
			perm = append(perm, i)
		}
	}
	fields := make([]Field, len(perm))
	for newIdx, oldIdx := range perm {
		fields[newIdx] = schema.Fields[oldIdx]
	}
	reordered, err := NewSchema(fields...)
	if err != nil {
		return nil, nil, err
	}
	return reordered, perm, nil
}

// ReorderBatchColumns applies a ReorderFields permutation to batch columns.
func ReorderBatchColumns(cols []ColumnData, perm []int) []ColumnData {
	out := make([]ColumnData, len(perm))
	for newIdx, oldIdx := range perm {
		out[newIdx] = cols[oldIdx]
	}
	return out
}

// runSeg is one projected column's contiguous page range inside a
// coalesced span run. Pages first..last are byte-adjacent, so the whole
// segment is one contiguous slice of the run buffer.
type runSeg struct {
	col           int    // position in the scanner's projected column list
	first, last   int    // global page indices, inclusive
	firstRowStart uint64 // global row id of the first page's first row
	rows          int    // rows of the span these pages cover
}

// spanRun is one physical read planned for a batch span: a byte range
// covering the page segments of one or more projected columns, fetched at
// most once (fetchRun) into a buffer the decode workers slice zero-copy.
type spanRun struct {
	off, end int64
	wasted   int64 // cold gap bytes inside [off,end) belonging to no segment
	segs     []runSeg

	fetchOnce sync.Once
	buf       []byte
	bufP      *[]byte // pool token; nil when the buffer must outlive the batch
	err       error
}

// planSpanRuns computes the minimal physical reads for one batch span
// across all projected columns (cols holds column indices; segments record
// positions into that slice). Per column, maximal index-adjacent page runs
// overlapping the span are collected (global pages are laid out densely,
// so index adjacency is byte adjacency); the runs of all columns are then
// sorted by file offset and merged when they are byte-adjacent, or
// separated by at most gap cold bytes, while the merged read stays at or
// under CoalesceLimit. A single segment larger than CoalesceLimit still
// becomes one read — pages must be fetched whole.
//
// With hot columns reordered to the front at write time (ReorderFields), a
// hot-set projection collapses to one read per row group per batch.
func planSpanRuns(f *File, cols []int, span rowSpan, gap int64) []*spanRun {
	type colSeg struct {
		seg      runSeg
		off, end int64
	}
	var segs []colSeg
	for pos, ci := range cols {
		forEachPageInSpan(f, ci, span, func(p int, rowLo, rowHi uint64) bool {
			rows := int(min(rowHi, span.hi) - max(rowLo, span.lo))
			if n := len(segs); n > 0 && segs[n-1].seg.col == pos && segs[n-1].seg.last == p-1 {
				_, segs[n-1].end = f.pageByteRange(p)
				segs[n-1].seg.last = p
				segs[n-1].seg.rows += rows
				return true
			}
			off, end := f.pageByteRange(p)
			segs = append(segs, colSeg{
				seg: runSeg{col: pos, first: p, last: p, firstRowStart: rowLo, rows: rows},
				off: off, end: end,
			})
			return true
		})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].off < segs[j].off })

	var runs []*spanRun
	for _, cs := range segs {
		if n := len(runs); n > 0 {
			cur := runs[n-1]
			if cs.off >= cur.end && cs.off-cur.end <= gap && cs.end-cur.off <= CoalesceLimit {
				cur.wasted += cs.off - cur.end
				cur.end = cs.end
				cur.segs = append(cur.segs, cs.seg)
				continue
			}
		}
		runs = append(runs, &spanRun{off: cs.off, end: cs.end, segs: []runSeg{cs.seg}})
	}
	return runs
}

// forEachPageInSpan visits the pages of column ci whose rows overlap span,
// passing the global page index and the page's global row range. The
// callback returns false to stop early.
func forEachPageInSpan(f *File, ci int, span rowSpan, fn func(p int, rowLo, rowHi uint64) bool) {
	counts, starts := f.ftr.groupGeometry()
	v := f.view
	// Binary-search the first group overlapping the span; it is called per
	// batch per column, so a linear walk from group 0 would make full
	// scans quadratic in the group count.
	g0 := sort.Search(len(counts), func(g int) bool {
		return starts[g]+uint64(counts[g]) > span.lo
	})
	for g := g0; g < v.NumGroups(); g++ {
		groupStart := starts[g]
		if groupStart >= span.hi {
			return
		}
		first, count := v.ChunkPages(g, ci)
		pageStart := groupStart
		for p := first; p < first+count; p++ {
			pageEnd := pageStart + uint64(v.PageRows(p))
			if pageEnd > span.lo && pageStart < span.hi {
				if !fn(p, pageStart, pageEnd) {
					return
				}
			}
			if pageEnd >= span.hi {
				return
			}
			pageStart = pageEnd
		}
	}
}

func countPagesInSpan(f *File, ci int, span rowSpan) int {
	n := 0
	forEachPageInSpan(f, ci, span, func(int, uint64, uint64) bool { n++; return true })
	return n
}
