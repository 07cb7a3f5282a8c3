package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"sync"

	"bullion/internal/enc"
	"bullion/internal/footer"
	"bullion/internal/merkle"
)

// Footer is the parsed, immutable metadata artifact of one Bullion file:
// the zero-copy footer view plus everything lazily derived from it —
// group geometry and parsed file-level bloom filters. A Footer never
// reads from the file after ParseFooter returns and is safe for
// concurrent use, so one Footer can back any number of File handles over
// the same bytes (the shared-cache path: N scans of a member pay one
// footer parse total via OpenWithFooter).
type Footer struct {
	view      *footer.View
	size      int64
	footerOff int64
	footerLen int

	groupOnce   sync.Once
	groupRows   []int    // lazy: logical rows per group
	groupStarts []uint64 // lazy: global row id of each group's first row

	bloomOnce []sync.Once // per column, guards blooms[c]
	blooms    []*enc.Bloom

	fpOnce sync.Once // guards fp (see Fingerprint)
	fp     string
}

// ParseFooter reads and parses the footer of a size-byte file: the 8-byte
// trailer, then the footer block — exactly two reads.
func ParseFooter(r io.ReaderAt, size int64) (*Footer, error) {
	if size < 8 {
		return nil, fmt.Errorf("core: file of %d bytes is too small", size)
	}
	var tail [8]byte
	if _, err := r.ReadAt(tail[:], size-8); err != nil {
		return nil, fmt.Errorf("core: reading trailer: %w", err)
	}
	fLen, err := footerLen(tail[:], size)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, fLen)
	if _, err := r.ReadAt(buf, size-8-fLen); err != nil {
		return nil, fmt.Errorf("core: reading footer: %w", err)
	}
	return newFooter(buf, size)
}

// ParseFooterBytes parses the footer of a whole file held in memory — the
// footer-only schema and statistics files a dataset reads in one request.
// The returned Footer aliases data, which must not be modified afterwards.
func ParseFooterBytes(data []byte) (*Footer, error) {
	size := int64(len(data))
	if size < 8 {
		return nil, fmt.Errorf("core: file of %d bytes is too small", size)
	}
	fLen, err := footerLen(data[size-8:], size)
	if err != nil {
		return nil, err
	}
	return newFooter(data[size-8-fLen:size-8:size-8], size)
}

// footerLen validates a file's 8-byte trailer and returns its footer length.
func footerLen(tail []byte, size int64) (int64, error) {
	if string(tail[4:8]) != FileMagic {
		return 0, fmt.Errorf("core: bad magic %q", tail[4:8])
	}
	fLen := int64(binary.LittleEndian.Uint32(tail[:4]))
	if fLen <= 0 || fLen > size-8 {
		return 0, fmt.Errorf("core: footer length %d invalid for %d-byte file", fLen, size)
	}
	return fLen, nil
}

func newFooter(buf []byte, size int64) (*Footer, error) {
	view, err := footer.OpenView(buf)
	if err != nil {
		return nil, err
	}
	return &Footer{
		view:      view,
		size:      size,
		footerOff: size - 8 - int64(len(buf)),
		footerLen: len(buf),
		bloomOnce: make([]sync.Once, view.NumColumns()),
		blooms:    make([]*enc.Bloom, view.NumColumns()),
	}, nil
}

// Fingerprint returns the schema fingerprint of the file's columns — equal
// to Schema().Fingerprint() — hashed straight from the footer's name blob
// and type descriptors, without materializing a field, once per Footer.
func (ftr *Footer) Fingerprint() string {
	ftr.fpOnce.Do(func() {
		v := ftr.view
		h := newFingerprint()
		for c := 0; c < v.NumColumns(); c++ {
			d := v.ColumnType(c)
			d.Flags &= flagSparse | flagNullable // the bits a Field round-trips
			fingerprintField(&h, v.ColumnNameBytes(c), d)
		}
		ftr.fp = h.String()
	})
	return ftr.fp
}

// View exposes the raw footer view.
func (ftr *Footer) View() *footer.View { return ftr.view }

// Size returns the file size the footer was parsed from.
func (ftr *Footer) Size() int64 { return ftr.size }

// groupGeometry computes rows-per-group and group row starts once
// (deletion-invariant, so safe to share across handles and deletions).
func (ftr *Footer) groupGeometry() ([]int, []uint64) {
	ftr.groupOnce.Do(func() {
		out := make([]int, ftr.view.NumGroups())
		starts := make([]uint64, ftr.view.NumGroups())
		var row uint64
		for g := range out {
			starts[g] = row
			first, count := ftr.view.ChunkPages(g, 0)
			rows := 0
			for p := first; p < first+count; p++ {
				rows += ftr.view.PageRows(p)
			}
			out[g] = rows
			row += uint64(rows)
		}
		ftr.groupRows = out
		ftr.groupStarts = starts
	})
	return ftr.groupRows, ftr.groupStarts
}

// ColumnBloomFilter returns column c's parsed file-level bloom filter,
// or nil when the column has none (or it fails to parse). The parse runs
// once per column per Footer — the "parse once, probe forever" property
// shared scans rely on.
func (ftr *Footer) ColumnBloomFilter(c int) *enc.Bloom {
	if c < 0 || c >= len(ftr.blooms) {
		return nil
	}
	ftr.bloomOnce[c].Do(func() {
		blob := ftr.view.ColumnBloom(c)
		if len(blob) == 0 {
			return
		}
		if fl, err := enc.OpenBloom(blob); err == nil {
			ftr.blooms[c] = fl
		}
	})
	return ftr.blooms[c]
}

// File is a read handle over a Bullion file. Opening parses only the fixed
// footer header (O(1)); projecting a column touches O(log n) index bytes
// plus that column's pages — the §2.3 wide-table property.
type File struct {
	r    io.ReaderAt
	ftr  *Footer
	view *footer.View // this handle's view; DeleteRows replaces it
	// del is the deletion bitmap WithDeletions attached, OR'd over the
	// footer's own deletion vector by every read (nil = none).
	del []uint64
}

// Open reads the footer from r and returns a file handle.
func Open(r io.ReaderAt, size int64) (*File, error) {
	ftr, err := ParseFooter(r, size)
	if err != nil {
		return nil, err
	}
	return OpenWithFooter(r, ftr), nil
}

// OpenWithFooter returns a handle over r reusing an already-parsed
// Footer — zero reads. ftr must have been parsed from the same bytes r
// addresses; the caller (the shared footer cache) guarantees this by
// keying footers on the member's immutable version.
func OpenWithFooter(r io.ReaderAt, ftr *Footer) *File {
	return &File{r: r, ftr: ftr, view: ftr.view}
}

// Footer returns the file's shared parsed-footer artifact.
func (f *File) Footer() *Footer { return f.ftr }

// NumRows returns the logical row count (including deleted rows).
func (f *File) NumRows() uint64 { return f.view.NumRows() }

// NumLiveRows returns rows not marked deleted.
func (f *File) NumLiveRows() uint64 {
	n := f.view.NumRows()
	return n - uint64(f.deletedInRange(0, n))
}

// WithDeletions returns a handle over the same bytes and footer whose
// reads — scans, whole-column reads, NumLiveRows, RewriteWithoutRows —
// also skip the rows marked in words, a bitmap in the footer's
// deletion_vec layout (bit r&63 of word r>>6 is row r). The file is not
// modified; words must not be mutated afterwards.
func (f *File) WithDeletions(words []uint64) *File {
	g := *f
	g.del = words
	return &g
}

// Compliance returns the deletion-compliance level the file was written at.
func (f *File) Compliance() Level { return Level(f.view.Flags() & 3) }

// View exposes the raw footer view.
func (f *File) View() *footer.View { return f.view }

// NumColumns returns the column count.
func (f *File) NumColumns() int { return f.view.NumColumns() }

// FieldByIndex reconstructs the schema field for column c.
func (f *File) FieldByIndex(c int) Field {
	return fieldFromDesc(f.view.ColumnName(c), f.view.ColumnType(c))
}

// Schema materializes the full schema. O(columns) — readers that project
// should use LookupColumn/FieldByIndex instead.
func (f *File) Schema() *Schema {
	fields := make([]Field, f.view.NumColumns())
	for i := range fields {
		fields[i] = f.FieldByIndex(i)
	}
	return &Schema{Fields: fields}
}

// LookupColumn resolves a column name to its index.
func (f *File) LookupColumn(name string) (int, bool) { return f.view.LookupColumn(name) }

// GroupRowCounts returns logical rows per group (computed from column 0's
// page index once per Footer, then cached; safe for concurrent readers).
func (f *File) GroupRowCounts() []int {
	rows, _ := f.ftr.groupGeometry()
	return rows
}

// groupRowStart returns the global row id of the first row in group g.
func (f *File) groupRowStart(g int) uint64 {
	_, starts := f.ftr.groupGeometry()
	return starts[g]
}

// pageByteRange returns the file byte span of global page p.
func (f *File) pageByteRange(p int) (off, end int64) {
	off = int64(f.view.PageOffset(p))
	if p+1 < f.view.NumPages() {
		return off, int64(f.view.PageOffset(p + 1))
	}
	return off, f.ftr.footerOff
}

// deletionWord returns word w of the handle's deletion vector: the
// footer's bits OR'd with the WithDeletions bitmap.
func (f *File) deletionWord(w int) uint64 {
	var word uint64
	if w < f.view.DeletionWords() {
		word = f.view.DeletionWord(w)
	}
	if w < len(f.del) {
		word |= f.del[w]
	}
	return word
}

// rowDeleted reports whether global row r is marked deleted.
func (f *File) rowDeleted(r uint64) bool {
	return f.deletionWord(int(r>>6))&(1<<(r&63)) != 0
}

// deletedInRange counts deleted rows among global rows [lo, hi), one
// popcount per 64-row word of the deletion vector.
func (f *File) deletedInRange(lo, hi uint64) int {
	words := max(f.view.DeletionWords(), len(f.del))
	if words == 0 || lo >= hi {
		return 0
	}
	n := 0
	for w := int(lo >> 6); w <= int((hi-1)>>6) && w < words; w++ {
		word := f.deletionWord(w)
		if word == 0 {
			continue
		}
		base := uint64(w) << 6
		if base < lo {
			word &= ^uint64(0) << (lo - base)
		}
		if base+64 > hi {
			word &= (uint64(1) << (hi - base)) - 1
		}
		n += bits.OnesCount64(word)
	}
	return n
}

// filterDeleted drops rows marked in f's deletion vector (Level-1 reads).
func filterDeleted(data ColumnData, f *File, rowStart uint64, logical int) ColumnData {
	keep := make([]int, 0, logical)
	for i := 0; i < logical; i++ {
		if !f.rowDeleted(rowStart + uint64(i)) {
			keep = append(keep, i)
		}
	}
	return data.gather(keep)
}

// collect is the read behind every whole-column and row-range accessor:
// one scan of column indices cols over rng (nil = the whole file) whose
// single batch is the whole range. Live rows only; a range with no live
// row (empty, or entirely deleted) yields typed zero-length columns.
func (f *File) collect(cols []int, rng *RowRange) (*Batch, error) {
	if len(cols) == 0 {
		// The scanner reads an empty projection as "every column".
		return &Batch{Schema: &Schema{}, Columns: []ColumnData{}}, nil
	}
	sc, err := newScanner(f, cols, ScanOptions{Range: rng, BatchRows: int(f.NumRows())})
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	batch, err := sc.Next()
	if batch != nil {
		batch.src = nil // the scanner closes on return
	}
	if err == io.EOF {
		empty := make([]ColumnData, len(cols))
		for i, fd := range sc.schema.Fields {
			empty[i] = defaultColumn(fd, 0)
		}
		return &Batch{Schema: sc.schema, Columns: empty}, nil
	}
	return batch, err
}

// ReadRows reads global rows [lo, hi) of a column, touching only the pages
// that overlap the range — the selective-read path quality-aware layouts
// exploit (§2.5): with rows presorted by quality, a threshold read becomes
// one contiguous page run instead of scattered page fetches.
func (f *File) ReadRows(col int, lo, hi uint64) (ColumnData, error) {
	b, err := f.collect([]int{col}, &RowRange{Lo: lo, Hi: hi})
	if err != nil {
		return nil, err
	}
	return b.Columns[0], nil
}

// ReadColumnByIndex reads a full column (live rows only).
func (f *File) ReadColumnByIndex(col int) (ColumnData, error) {
	b, err := f.collect([]int{col}, nil)
	if err != nil {
		return nil, err
	}
	return b.Columns[0], nil
}

// ReadColumn reads a full column by name.
func (f *File) ReadColumn(name string) (ColumnData, error) {
	col, ok := f.LookupColumn(name)
	if !ok {
		return nil, fmt.Errorf("core: no column %q", name)
	}
	return f.ReadColumnByIndex(col)
}

// Project reads the named columns (live rows only), in the order given —
// the paper's feature projection path: one pass, physically adjacent
// chunks sharing reads of up to CoalesceLimit bytes. When the schema was
// written with the hot columns reordered to the front (ReorderFields), a
// hot-set projection collapses to one read per row group.
func (f *File) Project(names ...string) (*Batch, error) {
	cols, err := f.lookupColumns(names)
	if err != nil {
		return nil, err
	}
	return f.collect(cols, nil)
}

// VerifyChecksums re-hashes every page and validates the Merkle tree
// recorded in the footer (leaves, group hashes, and root).
func (f *File) VerifyChecksums() error {
	v := f.view
	nPages := v.NumPages()
	nGroups := v.NumGroups()
	leaves := make([][]merkle.Hash, nGroups)
	p := 0
	for g := 0; g < nGroups; g++ {
		leaves[g] = make([]merkle.Hash, v.GroupPages(g))
		for i := range leaves[g] {
			off, end := f.pageByteRange(p)
			buf := make([]byte, end-off)
			if _, err := f.r.ReadAt(buf, off); err != nil {
				return fmt.Errorf("core: reading page %d: %w", p, err)
			}
			got := merkle.HashPage(buf)
			if want := merkle.Hash(v.Checksum(p)); got != want {
				return fmt.Errorf("core: page %d checksum mismatch: %016x != %016x", p, got, want)
			}
			leaves[g][i] = got
			p++
		}
	}
	tree := merkle.FromHashes(leaves)
	for g := 0; g < nGroups; g++ {
		want := merkle.Hash(v.Checksum(nPages + g))
		if got, _ := tree.Group(g); got != want {
			return fmt.Errorf("core: group %d checksum mismatch", g)
		}
	}
	if got, want := tree.Root(), merkle.Hash(v.RootChecksum()); got != want {
		return fmt.Errorf("core: root checksum mismatch: %016x != %016x", got, want)
	}
	return nil
}
