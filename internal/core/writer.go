package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"bullion/internal/enc"
	"bullion/internal/footer"
	"bullion/internal/merkle"
	"bullion/internal/sparse"
)

// FileMagic terminates every Bullion file.
const FileMagic = "BLN1"

// Type-descriptor flag bits a Field carries.
const (
	flagSparse   = 1
	flagNullable = 2
)

// fieldDesc folds schema-level flags into the footer type descriptor.
func fieldDesc(f Field) footer.TypeDesc {
	d := f.Type.desc()
	if f.Sparse {
		d.Flags |= flagSparse
	}
	if f.Nullable {
		d.Flags |= flagNullable
	}
	return d
}

func fieldFromDesc(name string, d footer.TypeDesc) Field {
	return Field{
		Name:     name,
		Type:     typeFromDesc(d),
		Sparse:   d.Flags&flagSparse != 0,
		Nullable: d.Flags&flagNullable != 0,
	}
}

// Writer streams batches into a Bullion file. Batches are buffered until a
// full row group accumulates; full groups flow through the ingest pipeline
// (ingest.go), which encodes columns in parallel and serializes finished
// groups to the underlying io.Writer strictly in file order, so any
// io.Writer works. Close flushes the remainder and writes the footer.
//
// A Writer must be used from a single goroutine, and Close must always be
// called — including when abandoning the file after an unrelated error —
// since the pipeline's goroutines run until Close (or a failed Write)
// joins them. Errors are sticky: once any encode or write fails, every
// subsequent Write/Close call returns the original error and no footer is
// ever written (a failed file can never look complete).
type Writer struct {
	w      io.Writer
	schema *Schema
	opts   *Options

	pending     []ColumnData
	pendingRows int

	pipe     *ingestPipeline
	pipeDown bool

	// Serializer-owned while the pipeline runs; the Writer touches them
	// again only after teardown joins the pipeline goroutines.
	offset     uint64
	numRows    uint64
	ftr        footer.Footer
	pageHashes [][]merkle.Hash // per group, in page order
	// Per-column statistics folded as groups serialize (group order, so
	// the result is deterministic at every worker count): zone maps and
	// the distinct byte-string hash sets feeding the file-level blooms.
	colZones  []*zoneFold
	colHashes []map[uint64]struct{}

	written *WrittenStats // set by a successful Close

	closed bool
	err    error
}

// NewWriter constructs a writer for schema over w.
func NewWriter(w io.Writer, schema *Schema, opts *Options) (*Writer, error) {
	if len(schema.Fields) == 0 {
		return nil, fmt.Errorf("core: schema has no fields")
	}
	if opts == nil {
		opts = DefaultOptions()
	} else {
		opts = opts.clone()
		if opts.RowsPerPage <= 0 {
			opts.RowsPerPage = 1024
		}
		if opts.GroupRows <= 0 {
			opts.GroupRows = 1 << 16
		}
		if opts.Sparse == nil {
			opts.Sparse = sparse.DefaultOptions()
		} else if opts.Sparse.Enc != nil && opts.Sparse.Enc != opts.Enc {
			return nil, fmt.Errorf("core: Options.Sparse.Enc must be nil or Options.Enc itself: a sparse page's value stream encodes with Enc")
		}
		if opts.Enc == nil {
			opts.Enc = enc.DefaultOptions()
		}
	}
	if opts.QualityColumn != "" {
		i, ok := schema.Lookup(opts.QualityColumn)
		if !ok {
			return nil, fmt.Errorf("core: quality column %q not in schema", opts.QualityColumn)
		}
		if schema.Fields[i].Type.Kind != Float64 {
			return nil, fmt.Errorf("core: quality column %q must be float64", opts.QualityColumn)
		}
	}
	if opts.Compliance == Level2 {
		// Level-2 files must stay maskable in place (§2.1): restrict the
		// cascade to the mask-friendly subset. Every stream encodes with
		// Enc, a sparse page's value stream included.
		opts.Enc = maskableEncOptions(opts.Enc)
	}
	bw := &Writer{w: w, schema: schema, opts: opts}
	bw.ftr.NumColumns = len(schema.Fields)
	bw.ftr.Flags = uint32(opts.Compliance)
	nCols := len(schema.Fields)
	bw.colZones = make([]*zoneFold, nCols)
	bw.colHashes = make([]map[uint64]struct{}, nCols)
	for i := range bw.colZones {
		bw.colZones[i] = newZoneFold()
	}
	for _, f := range schema.Fields {
		bw.ftr.Columns = append(bw.ftr.Columns, footer.Column{Name: f.Name, Type: fieldDesc(f)})
	}
	return bw, nil
}

// Write appends a batch. The batch schema must match the writer's.
//
// The batch's top-level column slices are copied into the writer's buffer,
// so the caller may recycle them immediately; interior arrays (the byte
// strings of a BytesData column, the element slices of list columns) are
// shared and must not be mutated until Close returns.
func (w *Writer) Write(batch *Batch) error {
	if w.err == nil && w.pipe != nil {
		// Surface asynchronous pipeline failures as early as possible.
		w.err = w.pipe.firstErr()
		if w.err != nil {
			w.teardown()
		}
	}
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("core: writer closed")
	}
	if batch.Schema != w.schema {
		if len(batch.Columns) != len(w.schema.Fields) {
			return fmt.Errorf("core: batch schema mismatch")
		}
		for i, c := range batch.Columns {
			if err := checkColumnType(w.schema.Fields[i], c); err != nil {
				return fmt.Errorf("core: batch schema mismatch: %w", err)
			}
		}
	}
	if w.pending == nil {
		w.pending = make([]ColumnData, len(w.schema.Fields))
	}
	for i, c := range batch.Columns {
		if w.pending[i] == nil {
			// Seed with an owned empty column so the append below copies:
			// buffered (and, since the pipelined writer, dispatched) rows
			// must never alias memory the caller may reuse.
			w.pending[i] = defaultColumn(w.schema.Fields[i], 0)
		}
		w.pending[i] = appendColumn(w.pending[i], c)
	}
	w.pendingRows += batch.NumRows()
	for w.pendingRows >= w.opts.GroupRows {
		if err := w.cutGroup(w.opts.GroupRows); err != nil {
			w.err = err
			w.teardown()
			return err
		}
	}
	return nil
}

// cutGroup assembles the first n pending rows as a row group and hands it
// to the ingest pipeline.
func (w *Writer) cutGroup(n int) error {
	group := make([]ColumnData, len(w.pending))
	for i := range w.pending {
		group[i] = w.pending[i].slice(0, n)
	}
	if w.opts.QualityColumn != "" {
		group = w.sortByQuality(group, n)
	}
	if w.pipe == nil {
		w.pipe = newIngestPipeline(w)
	}
	if err := w.pipe.dispatch(group, n); err != nil {
		return err
	}
	for i := range w.pending {
		w.pending[i] = w.pending[i].slice(n, w.pendingRows)
	}
	w.pendingRows -= n
	return nil
}

// sortByQuality reorders the group's rows by the quality column,
// descending — §2.5's presorting so filtered training reads become
// sequential.
func (w *Writer) sortByQuality(group []ColumnData, n int) []ColumnData {
	qi, _ := w.schema.Lookup(w.opts.QualityColumn)
	quality := group[qi].(Float64Data)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return quality[perm[a]] > quality[perm[b]] })
	out := make([]ColumnData, len(group))
	for ci, col := range group {
		out[ci] = col.gather(perm)
	}
	return out
}

// serializeGroup appends one encoded row group to the file and records its
// footer metadata. It runs on the pipeline's serializer goroutine, which
// owns offset/ftr/pageHashes until teardown.
func (w *Writer) serializeGroup(g *groupJob) error {
	w.ftr.GroupOffsets = append(w.ftr.GroupOffsets, w.offset)
	groupPageStart := len(w.ftr.PageOffsets)
	var groupHashes []merkle.Hash

	for ci := range w.schema.Fields {
		chunk := &g.chunks[ci]
		w.ftr.ChunkFirstPage = append(w.ftr.ChunkFirstPage, uint32(len(w.ftr.PageOffsets)))
		chunkStart := w.offset
		if _, err := w.w.Write(chunk.buf); err != nil {
			return err
		}
		for _, pg := range chunk.pages {
			w.ftr.PageStats = append(w.ftr.PageStats, pg.stats)
			w.ftr.PageBlooms = append(w.ftr.PageBlooms, pg.bloom)
			w.ftr.PageOffsets = append(w.ftr.PageOffsets, w.offset)
			w.ftr.RowsPerPage = append(w.ftr.RowsPerPage, pg.rows)
			w.ftr.PageCompression = append(w.ftr.PageCompression, pg.scheme)
			groupHashes = append(groupHashes, pg.hash)
			w.offset += uint64(pg.size)
			w.colZones[ci].addPage(pg.stats, true, int(pg.rows))
		}
		if len(chunk.hashes) > 0 {
			if w.colHashes[ci] == nil {
				w.colHashes[ci] = chunk.hashes
			} else {
				for h := range chunk.hashes {
					w.colHashes[ci][h] = struct{}{}
				}
			}
		}
		w.ftr.ColumnOffsets = append(w.ftr.ColumnOffsets, chunkStart)
		w.ftr.ColumnSizes = append(w.ftr.ColumnSizes, w.offset-chunkStart)
	}

	w.ftr.PagesPerGroup = append(w.ftr.PagesPerGroup, uint32(len(w.ftr.PageOffsets)-groupPageStart))
	w.pageHashes = append(w.pageHashes, groupHashes)
	w.ftr.NumGroups++
	w.numRows += uint64(g.rows)
	return nil
}

// teardown joins the pipeline goroutines (idempotent). After it returns
// the Writer owns all file state again.
func (w *Writer) teardown() {
	if w.pipe != nil && !w.pipeDown {
		w.pipeDown = true
		w.pipe.shutdown()
	}
}

// Close flushes remaining rows, drains the pipeline, writes the footer,
// and finalizes the file.
func (w *Writer) Close() error {
	if w.err != nil {
		w.teardown()
		return w.err
	}
	if w.closed {
		return nil
	}
	w.closed = true
	if w.pendingRows > 0 {
		if err := w.cutGroup(w.pendingRows); err != nil {
			w.err = err
			w.teardown()
			return err
		}
	}
	w.teardown()
	if w.pipe != nil {
		if err := w.pipe.firstErr(); err != nil {
			w.err = err
			return err
		}
	}
	w.ftr.NumRows = w.numRows
	w.ftr.ChunkFirstPage = append(w.ftr.ChunkFirstPage, uint32(len(w.ftr.PageOffsets)))
	w.ftr.DeletionVec = make([]uint64, (w.numRows+63)/64)

	// File-level statistics: the per-column zone fold and the blooms built
	// from the accumulated distinct-value hashes. Both are deterministic
	// regardless of encode-worker scheduling — the fold ran in group order
	// and bloom bits are insertion-order independent.
	w.ftr.ColumnStats = make([]footer.ColumnStat, len(w.schema.Fields))
	for ci, zone := range w.colZones {
		w.ftr.ColumnStats[ci] = zone.columnStat()
	}
	bloomBits := w.opts.resolveBloomBits()
	blooms := make([][]byte, len(w.schema.Fields))
	haveBloom := false
	for ci, set := range w.colHashes {
		if len(set) == 0 {
			continue
		}
		b := enc.NewBloomBuilder(len(set), bloomBits)
		for h := range set {
			b.AddHash(h)
		}
		blooms[ci] = b.Marshal()
		haveBloom = true
	}
	if haveBloom {
		w.ftr.ColumnBlooms = blooms
	}

	tree := merkle.FromHashes(w.pageHashes)
	w.ftr.Checksums = checksumArray(tree)

	buf, err := w.ftr.Marshal()
	if err != nil {
		w.err = err
		return err
	}
	if _, err := w.w.Write(buf); err != nil {
		w.err = err
		return err
	}
	var tail [8]byte
	binary.LittleEndian.PutUint32(tail[:4], uint32(len(buf)))
	copy(tail[4:], FileMagic)
	if _, err := w.w.Write(tail[:]); err != nil {
		w.err = err
		return err
	}
	size := int64(w.offset) + int64(len(buf)) + 8
	ftr, err := newFooter(buf, size)
	if err != nil {
		w.err = fmt.Errorf("core: reopening the written footer: %w", err)
		return w.err
	}
	w.written = &WrittenStats{NumRows: w.numRows, Bytes: size, Footer: ftr}
	return nil
}

// WrittenStats is the writer's own account of the file it just produced:
// its size, its rows, and its footer parsed from the bytes Close wrote. It
// exists so commit paths (the dataset's ShardedWriter, compaction
// rewrites) can build a member's manifest entry and statistics sidecar
// (StatsFile) without reopening the file they just wrote.
type WrittenStats struct {
	NumRows uint64
	Bytes   int64
	Footer  *Footer
}

// WrittenStats reports the closed file's statistics. It returns nil until
// Close has succeeded.
func (w *Writer) WrittenStats() *WrittenStats { return w.written }

// checksumArray flattens a Merkle tree into the footer layout:
// page leaves (global page order), group hashes, root.
func checksumArray(tree *merkle.Tree) []uint64 {
	var out []uint64
	leaves := tree.Leaves()
	for _, hs := range leaves {
		for _, h := range hs {
			out = append(out, uint64(h))
		}
	}
	for g := range leaves {
		h, _ := tree.Group(g)
		out = append(out, uint64(h))
	}
	return append(out, uint64(tree.Root()))
}

// SelectorStats reports how often the §2.6 cascade selector reused a
// cached decision versus running a full sampling pass, summed over all
// columns. Call it after Close; it returns zeros when selector caching is
// disabled (negative EncodingOptions.ResampleDrift) or no group was cut.
func (w *Writer) SelectorStats() (hits, resamples int64) {
	if w.pipe == nil {
		return 0, 0
	}
	return w.pipe.selectorStats()
}
