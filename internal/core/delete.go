package core

import (
	"fmt"
	"io"
	"sort"

	"bullion/internal/enc"
	"bullion/internal/footer"
	"bullion/internal/merkle"
	"bullion/internal/sparse"
)

// ErrPageGrew reports a Level-2 page rewrite that would exceed the page's
// original byte span, violating the paper's size-consistency criterion
// ("the post-update page dimensions do not exceed their initial size").
// Removing values shrinks every catalog encoding in practice; this error
// is the guard rail, not an expected path.
var ErrPageGrew = fmt.Errorf("core: re-encoded page exceeds original size")

// DeleteRows deletes the given global row ids according to the file's
// compliance level (§2.1):
//
//	Level 0 — unsupported; returns an error (legacy behaviour: rewrite the
//	          whole file yourself).
//	Level 1 — sets deletion-vector bits; data bytes remain on disk and are
//	          filtered at read time.
//	Level 2 — sets deletion-vector bits AND physically erases the rows by
//	          rewriting only the pages they live in, in place, padding to
//	          the original page size; the Merkle checksum path is updated
//	          incrementally (Figure 2).
//
// w must address the same bytes as the file's reader. Already-deleted rows
// are ignored. The file's in-memory view is refreshed on success.
func (f *File) DeleteRows(w io.WriterAt, rows []uint64) error {
	level := f.Compliance()
	if level == Level0 {
		return fmt.Errorf("core: file written at compliance level 0 does not support deletion")
	}
	numRows := f.view.NumRows()
	fresh := make([]uint64, 0, len(rows))
	seen := map[uint64]bool{}
	for _, r := range rows {
		if r >= numRows {
			return fmt.Errorf("core: row %d out of range [0,%d)", r, numRows)
		}
		if !f.view.RowDeleted(r) && !seen[r] {
			fresh = append(fresh, r)
			seen[r] = true
		}
	}
	if len(fresh) == 0 {
		return nil
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i] < fresh[j] })

	ftr, err := f.view.Materialize()
	if err != nil {
		return err
	}

	if level == Level2 {
		if err := f.eraseRows(w, ftr, fresh); err != nil {
			return err
		}
	}
	for _, r := range fresh {
		ftr.DeletionVec[r>>6] |= 1 << (r & 63)
	}
	return f.rewriteFooter(w, ftr)
}

// rowOffsetOfPage returns the row offset of page-local index p within the
// group, in rows since the group start.
func rowOffsetOfPage(f *File, g, local int) int {
	first, _ := f.view.ChunkPages(g, 0)
	off := 0
	for i := 0; i < local; i++ {
		off += f.view.PageRows(first + i)
	}
	return off
}

// eraseRows performs the Level-2 physical erasure of the given rows,
// page-locally, updating ftr's checksums in place.
func (f *File) eraseRows(w io.WriterAt, ftr *footer.Footer, fresh []uint64) error {
	// Group target rows by (group, pageInChunk).
	type pageKey struct{ group, local int }
	targets := map[pageKey][]uint64{}
	counts := f.GroupRowCounts()
	for _, r := range fresh {
		// Locate group.
		var start uint64
		g := 0
		for ; g < len(counts); g++ {
			if r < start+uint64(counts[g]) {
				break
			}
			start += uint64(counts[g])
		}
		rowInGroup := int(r - start)
		first, count := f.view.ChunkPages(g, 0)
		local, acc := 0, 0
		for p := first; p < first+count; p++ {
			pr := f.view.PageRows(p)
			if rowInGroup < acc+pr {
				break
			}
			acc += pr
			local++
		}
		targets[pageKey{g, local}] = append(targets[pageKey{g, local}], r)
	}

	// Two-phase erasure: encode and validate every replacement page first,
	// then write. A size violation therefore aborts before any byte hits
	// the file — a failed DeleteRows leaves the data region untouched.
	type pendingWrite struct {
		page    int
		off     int64
		payload []byte // padded to the page's span
		top     byte
	}
	var writes []pendingWrite

	nCols := f.view.NumColumns()
	for key, delRows := range targets {
		g, local := key.group, key.local
		groupStart := f.groupRowStart(g)
		pageRowOff := rowOffsetOfPage(f, g, local)
		for c := 0; c < nCols; c++ {
			field := f.FieldByIndex(c)
			first, count := f.view.ChunkPages(g, c)
			if local >= count {
				return fmt.Errorf("core: page %d beyond chunk (%d,%d) of %d pages", local, g, c, count)
			}
			p := first + local
			off, end := f.pageByteRange(p)
			span := int(end - off)
			payload := make([]byte, span)
			if _, err := f.r.ReadAt(payload, off); err != nil {
				return fmt.Errorf("core: reading page %d: %w", p, err)
			}
			logical := f.view.PageRows(p)
			pageStart := groupStart + uint64(pageRowOff)

			data, err := decodePage(field, payload, logical)
			if err != nil {
				return fmt.Errorf("core: decoding page %d for erasure: %w", p, err)
			}
			// Mask, don't remove: masking keeps the page's row alignment
			// (the deletion vector handles filtering) and — critically —
			// preserves the page's compressibility. Removing values from a
			// sequential column breaks its delta structure and can GROW
			// the re-encoded page; masking with a neighboring value never
			// does. This mirrors §2.1's per-encoding masking rules.
			mask := make([]int, 0, len(delRows))
			for _, r := range delRows {
				mask = append(mask, int(r-pageStart))
			}
			newData := maskColumn(field, data, mask)
			newPayload, scheme, err := encodePage(field, newData, rewriteOptions())
			if err != nil {
				return fmt.Errorf("core: re-encoding page %d: %w", p, err)
			}
			if len(newPayload) > span {
				// The cascade's sample can misjudge a masked page, and the
				// writer may have kept a cached scheme a fresh selection
				// would not pick; retry restricted to the page's original
				// top scheme (for a sparse page, its value stream's) plus
				// the always-safe basics before declaring a violation.
				id := enc.SchemeID(f.view.PageCompression(p))
				if field.Sparse {
					if id, err = sparse.ValueScheme(payload); err != nil {
						return fmt.Errorf("core: corrupt sparse page %d: %w", p, err)
					}
				}
				retryOpts := rewriteOptions()
				retryOpts.Enc = restrictToScheme(retryOpts.Enc, id)
				if retry, retryScheme, rerr := encodePage(field, newData, retryOpts); rerr == nil && len(retry) <= span {
					newPayload, scheme = retry, retryScheme
				} else {
					return fmt.Errorf("%w: page %d (%s): %d > %d bytes",
						ErrPageGrew, p, field.Name, len(newPayload), span)
				}
			}
			padded := make([]byte, span)
			copy(padded, newPayload)
			writes = append(writes, pendingWrite{page: p, off: off, payload: padded, top: byte(scheme)})
		}
	}

	for _, pw := range writes {
		if _, err := w.WriteAt(pw.payload, pw.off); err != nil {
			return fmt.Errorf("core: rewriting page %d: %w", pw.page, err)
		}
		ftr.Checksums[pw.page] = uint64(merkle.HashPage(pw.payload))
		ftr.PageCompression[pw.page] = pw.top
	}

	// Recompute the Merkle internal nodes from the updated leaves —
	// group hashes and root only (Figure 2's incremental path).
	nPages := f.view.NumPages()
	leaves := make([][]merkle.Hash, f.view.NumGroups())
	p := 0
	for g := range leaves {
		leaves[g] = make([]merkle.Hash, f.view.GroupPages(g))
		for i := range leaves[g] {
			leaves[g][i] = merkle.Hash(ftr.Checksums[p])
			p++
		}
	}
	tree := merkle.FromHashes(leaves)
	for g := range leaves {
		h, _ := tree.Group(g)
		ftr.Checksums[nPages+g] = uint64(h)
	}
	ftr.Checksums[nPages+f.view.NumGroups()] = uint64(tree.Root())
	return nil
}

// maskColumn physically erases the values at the given row indexes of a
// page of field f by overwriting each with the nearest preceding live
// row's value (falling back to the nearest following live row at a page
// prefix). A page with every row deleted has no live row to copy and is
// zero-filled instead.
//
// Copying a neighbor rather than zero-filling is deliberate: the deleted
// row's own value becomes unrecoverable (the compliance requirement) while
// the page's runs, deltas, dictionaries, and sliding windows are
// preserved, so the re-encoded page can never exceed its original size —
// the §2.1 criterion. This generalizes the paper's per-encoding masking
// rules (bitmap mask for bit-packing, reserved dictionary entry, RLE
// shrink) into one rule that is safe for every catalog encoding.
func maskColumn(f Field, c ColumnData, rows []int) ColumnData {
	n := c.Len()
	inMask := make(map[int]bool, len(rows))
	for _, r := range rows {
		inMask[r] = true
	}
	if len(inMask) >= n {
		// Whole page deleted: no live neighbor to copy; zero-fill.
		return defaultColumn(f, n)
	}
	perm := make([]int, n)
	lastLive := -1
	for i := 0; i < n; i++ {
		if !inMask[i] {
			lastLive = i
		}
		perm[i] = lastLive // -1 for a deleted prefix; fixed below
	}
	nextLive := -1
	for i := n - 1; i >= 0; i-- {
		if !inMask[i] {
			nextLive = i
		}
		if perm[i] < 0 {
			perm[i] = nextLive
		}
	}
	return c.gather(perm)
}

// restrictToScheme narrows the cascade to the given top scheme plus the
// always-available basics (needed for composite schemes' sub-streams).
func restrictToScheme(base *enc.Options, id enc.SchemeID) *enc.Options {
	c := *base
	c.Allowed = map[enc.SchemeID]bool{
		id:        true,
		enc.Plain: true, enc.BitPack: true, enc.Varint: true,
		enc.Constant: true, enc.FOR: true,
		enc.PlainF: true, enc.ConstantF: true,
		enc.PlainB: true, enc.ConstantB: true,
		enc.PlainBool: true, enc.SparseBool: true, enc.Roaring: true,
	}
	return &c
}

// rewriteOptions returns the options used when re-encoding pages during
// Level-2 erasure: the writer defaults restricted to the maskable scheme
// subset.
func rewriteOptions() *Options {
	opts := DefaultOptions()
	opts.Enc = maskableEncOptions(opts.Enc)
	return opts
}

// rewriteFooter marshals ftr and writes it at the original footer offset.
// All footer arrays are fixed-size for the file's geometry, so the byte
// length is guaranteed unchanged.
func (f *File) rewriteFooter(w io.WriterAt, ftr *footer.Footer) error {
	buf, err := ftr.Marshal()
	if err != nil {
		return err
	}
	if len(buf) != f.ftr.footerLen {
		return fmt.Errorf("core: footer changed size on rewrite: %d != %d", len(buf), f.ftr.footerLen)
	}
	if _, err := w.WriteAt(buf, f.ftr.footerOff); err != nil {
		return fmt.Errorf("core: rewriting footer: %w", err)
	}
	view, err := footer.OpenView(buf)
	if err != nil {
		return err
	}
	f.view = view
	return nil
}

// RewriteWithoutRows is the legacy baseline the paper contrasts against:
// copy the entire file, dropping the given rows. It streams every live
// row through one scan into a new file on out (the writer cuts row groups
// from the row stream, so the scan's batch size leaves no mark on the
// output) and returns the new file's WrittenStats so commit paths (dataset
// compaction) can lift manifest entries without reopening what they just
// wrote. Used by the deletion experiment to measure the I/O cost Level 2
// avoids.
func (f *File) RewriteWithoutRows(out io.Writer, rows []uint64, opts *Options) (*WrittenStats, error) {
	drop := make(map[uint64]bool, len(rows))
	for _, r := range rows {
		drop[r] = true
	}
	w, err := NewWriter(out, f.Schema(), opts)
	if err != nil {
		return nil, err
	}
	// Close joins the writer's pipeline goroutines; it is a no-op after
	// the explicit Close below.
	defer w.Close()
	sc, err := f.Scan(ScanOptions{})
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	// The scan emits exactly the live rows in file order (no filter, so
	// only all-deleted batches are pruned): row walks their global ids.
	var row uint64
	for {
		batch, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if len(drop) > 0 {
			n := batch.NumRows()
			keep := make([]int, 0, n)
			for i := 0; i < n; i, row = i+1, row+1 {
				for f.rowDeleted(row) {
					row++
				}
				if !drop[row] {
					keep = append(keep, i)
				}
			}
			for c := range batch.Columns {
				batch.Columns[c] = batch.Columns[c].gather(keep)
			}
		}
		if err := w.Write(batch); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return w.WrittenStats(), nil
}
