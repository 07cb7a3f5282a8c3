package footer

import (
	"encoding/binary"
	"fmt"
)

// View is a zero-copy reader over a serialized footer. Construction
// validates only the fixed header and section directory; every accessor
// reads directly from the underlying buffer at a computed offset. No
// per-column work happens until a column is actually looked up — the §2.3
// property that keeps wide-table projection flat in Figure 5.
type View struct {
	buf        []byte
	version    uint32
	numRows    uint64
	numColumns int
	numGroups  int
	numPages   int
	flags      uint32
	off        [numSections]int
	size       [numSections]int
}

// OpenView validates the header and returns a view. O(1) in the number of
// columns. Versions VersionMin..Version are accepted; sections a version
// predates read as absent.
func OpenView(buf []byte) (*View, error) {
	if len(buf) < 8 {
		return nil, fmt.Errorf("%w: %d bytes < fixed header", ErrCorrupt, len(buf))
	}
	if string(buf[:4]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, buf[:4])
	}
	le := binary.LittleEndian
	version := le.Uint32(buf[4:])
	if version < VersionMin || version > Version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, version)
	}
	nSec := sectionCount(version)
	if len(buf) < headerSizeFor(nSec) {
		return nil, fmt.Errorf("%w: %d bytes < header %d", ErrCorrupt, len(buf), headerSizeFor(nSec))
	}
	v := &View{
		buf:        buf,
		version:    version,
		flags:      le.Uint32(buf[8:]),
		numRows:    le.Uint64(buf[12:]),
		numColumns: int(le.Uint32(buf[20:])),
		numGroups:  int(le.Uint32(buf[24:])),
		numPages:   int(le.Uint32(buf[28:])),
	}
	const dirBase = 32
	for s := 0; s < nSec; s++ {
		off := le.Uint64(buf[dirBase+16*s:])
		sz := le.Uint64(buf[dirBase+16*s+8:])
		if off > uint64(len(buf)) || sz > uint64(len(buf))-off {
			return nil, fmt.Errorf("%w: section %d range [%d,%d) outside %d bytes",
				ErrCorrupt, s, off, off+sz, len(buf))
		}
		v.off[s] = int(off)
		v.size[s] = int(sz)
	}
	// Structural sanity for the arrays indexed arithmetic relies on.
	nChunks := v.numGroups * v.numColumns
	checks := []struct {
		sec  int
		want int
	}{
		{secPageCompression, v.numPages},
		{secRowsPerPage, 4 * v.numPages},
		{secPageOffsets, 8 * v.numPages},
		{secPagesPerGroup, 4 * v.numGroups},
		{secGroupOffsets, 8 * v.numGroups},
		{secChunkFirstPage, 4 * (nChunks + 1)},
		{secColumnOffsets, 8 * nChunks},
		{secColumnSizes, 8 * nChunks},
		{secChecksums, 8 * (v.numPages + v.numGroups + 1)},
		{secNameIndex, 12 * v.numColumns},
		{secNameOffsets, 4 * (v.numColumns + 1)},
		{secTypes, 4 * v.numColumns},
	}
	for _, c := range checks {
		if v.size[c.sec] != c.want {
			return nil, fmt.Errorf("%w: section %d is %d bytes, want %d",
				ErrCorrupt, c.sec, v.size[c.sec], c.want)
		}
	}
	// Statistics sections are optional: absent entirely or one entry per
	// page/column. Bloom offset arrays are validated lazily per access (a
	// footer open stays O(1) in columns and pages).
	if s := v.size[secPageStats]; s != 0 && s != PageStatSize*v.numPages {
		return nil, fmt.Errorf("%w: page-stats section is %d bytes, want 0 or %d",
			ErrCorrupt, s, PageStatSize*v.numPages)
	}
	if s := v.size[secColumnStats]; s != 0 && s != ColumnStatSize*v.numColumns {
		return nil, fmt.Errorf("%w: column-stats section is %d bytes, want 0 or %d",
			ErrCorrupt, s, ColumnStatSize*v.numColumns)
	}
	if s := v.size[secColumnBlooms]; s != 0 && s < 4*(v.numColumns+1) {
		return nil, fmt.Errorf("%w: column-blooms section is %d bytes, shorter than its offset array",
			ErrCorrupt, s)
	}
	if s := v.size[secPageBlooms]; s != 0 && s < 4*(v.numPages+1) {
		return nil, fmt.Errorf("%w: page-blooms section is %d bytes, shorter than its offset array",
			ErrCorrupt, s)
	}
	return v, nil
}

// Version returns the footer format version the file was written at.
func (v *View) Version() int { return int(v.version) }

// NumRows returns the row count.
func (v *View) NumRows() uint64 { return v.numRows }

// Flags returns the file-level flags.
func (v *View) Flags() uint32 { return v.flags }

// NumColumns returns the column count.
func (v *View) NumColumns() int { return v.numColumns }

// NumGroups returns the row-group count.
func (v *View) NumGroups() int { return v.numGroups }

// NumPages returns the total page count.
func (v *View) NumPages() int { return v.numPages }

func (v *View) u32(sec, i int) uint32 {
	return binary.LittleEndian.Uint32(v.buf[v.off[sec]+4*i:])
}

func (v *View) u64(sec, i int) uint64 {
	return binary.LittleEndian.Uint64(v.buf[v.off[sec]+8*i:])
}

// LookupColumn finds a column by name via the hash index: binary search on
// raw 12-byte entries, then a name confirmation against the blob (hash
// collisions chain to adjacent entries).
func (v *View) LookupColumn(name string) (int, bool) {
	h := NameHash(name)
	base := v.off[secNameIndex]
	lo, hi := 0, v.numColumns
	for lo < hi {
		mid := (lo + hi) / 2
		if binary.LittleEndian.Uint64(v.buf[base+12*mid:]) < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for ; lo < v.numColumns; lo++ {
		if binary.LittleEndian.Uint64(v.buf[base+12*lo:]) != h {
			return 0, false
		}
		col := int(binary.LittleEndian.Uint32(v.buf[base+12*lo+8:]))
		if col < v.numColumns && string(v.ColumnNameBytes(col)) == name {
			return col, true
		}
	}
	return 0, false
}

// ColumnName returns the name of column c. Corrupt name offsets yield ""
// rather than a panic — the name index is the one section whose values
// OpenView does not validate eagerly.
func (v *View) ColumnName(c int) string { return string(v.ColumnNameBytes(c)) }

// ColumnNameBytes returns the name of column c as a sub-slice of the
// footer buffer (nil for corrupt offsets). Callers must not modify it.
func (v *View) ColumnNameBytes(c int) []byte {
	start := int(v.u32(secNameOffsets, c))
	end := int(v.u32(secNameOffsets, c+1))
	blob := v.buf[v.off[secNameBlob] : v.off[secNameBlob]+v.size[secNameBlob]]
	if start > end || end > len(blob) {
		return nil
	}
	return blob[start:end]
}

// ColumnType returns the 4-byte type descriptor of column c.
func (v *View) ColumnType(c int) TypeDesc {
	p := v.off[secTypes] + 4*c
	return TypeDesc{
		Kind:  Kind(v.buf[p]),
		Elem:  Kind(v.buf[p+1]),
		Quant: v.buf[p+2],
		Flags: v.buf[p+3],
	}
}

// ChunkIndex returns the flat chunk index for (group, column).
func (v *View) ChunkIndex(group, col int) int { return group*v.numColumns + col }

// ChunkByteRange returns the file byte range of one column chunk — the
// paper's "byte ranges for each column are identified via an offsets
// array, followed by a targeted pread()".
func (v *View) ChunkByteRange(group, col int) (offset, size uint64) {
	i := v.ChunkIndex(group, col)
	return v.u64(secColumnOffsets, i), v.u64(secColumnSizes, i)
}

// ChunkPages returns the [first, first+count) global page index range of a
// chunk.
func (v *View) ChunkPages(group, col int) (first, count int) {
	i := v.ChunkIndex(group, col)
	f := int(v.u32(secChunkFirstPage, i))
	n := int(v.u32(secChunkFirstPage, i+1)) - f
	return f, n
}

// PageOffset returns the file offset of global page p.
func (v *View) PageOffset(p int) uint64 { return v.u64(secPageOffsets, p) }

// PageRows returns the row count of global page p.
func (v *View) PageRows(p int) int { return int(v.u32(secRowsPerPage, p)) }

// PageCompression returns the cascade scheme id recorded for page p.
func (v *View) PageCompression(p int) uint8 {
	return v.buf[v.off[secPageCompression]+p]
}

// GroupPages returns the page count of row group g.
func (v *View) GroupPages(g int) int { return int(v.u32(secPagesPerGroup, g)) }

// DeletionWord returns word w of the deletion bitmap.
func (v *View) DeletionWord(w int) uint64 { return v.u64(secDeletionVec, w) }

// DeletionWords returns the deletion bitmap length in words.
func (v *View) DeletionWords() int { return v.size[secDeletionVec] / 8 }

// RowDeleted reports whether global row r is marked deleted.
func (v *View) RowDeleted(r uint64) bool {
	w := int(r >> 6)
	if w >= v.DeletionWords() {
		return false
	}
	return v.u64(secDeletionVec, w)&(1<<(r&63)) != 0
}

// HasPageStats reports whether the file recorded per-page zone maps.
func (v *View) HasPageStats() bool { return v.size[secPageStats] != 0 }

// PageStat returns the zone map of global page p. ok is false when the
// writer recorded no statistics section; a present entry may still have
// zero flags (no usable bounds for that page).
func (v *View) PageStat(p int) (PageStat, bool) {
	if !v.HasPageStats() {
		return PageStat{}, false
	}
	base := v.off[secPageStats] + PageStatSize*p
	le := binary.LittleEndian
	return PageStat{
		Min:       int64(le.Uint64(v.buf[base:])),
		Max:       int64(le.Uint64(v.buf[base+8:])),
		NullCount: le.Uint32(v.buf[base+16:]),
		Flags:     le.Uint32(v.buf[base+20:]),
	}, true
}

// HasColumnStats reports whether the file recorded file-level column zone
// maps (v3 writers always do).
func (v *View) HasColumnStats() bool { return v.size[secColumnStats] != 0 }

// ColumnStat returns the file-level zone map of column c, or ok=false
// when the writer recorded no column-stats section (v2 files).
func (v *View) ColumnStat(c int) (ColumnStat, bool) {
	if !v.HasColumnStats() {
		return ColumnStat{}, false
	}
	base := v.off[secColumnStats] + ColumnStatSize*c
	le := binary.LittleEndian
	return ColumnStat{
		Min:       int64(le.Uint64(v.buf[base:])),
		Max:       int64(le.Uint64(v.buf[base+8:])),
		NullCount: le.Uint64(v.buf[base+16:]),
		Flags:     le.Uint32(v.buf[base+24:]),
	}, true
}

// framedEntry slices entry i out of a framed blob section (u32 offsets,
// then blob), returning nil for absent sections, empty entries, or
// corrupt offsets — a bad filter must read as "no filter", never panic.
func (v *View) framedEntry(sec, i, n int) []byte {
	size := v.size[sec]
	if size == 0 {
		return nil
	}
	base := v.off[sec]
	blobLen := size - 4*(n+1)
	le := binary.LittleEndian
	lo := int(le.Uint32(v.buf[base+4*i:]))
	hi := int(le.Uint32(v.buf[base+4*(i+1):]))
	if lo > hi || hi > blobLen {
		return nil
	}
	blobBase := base + 4*(n+1)
	return v.buf[blobBase+lo : blobBase+hi]
}

// ColumnBloom returns column c's serialized bloom filter, or nil when the
// file recorded none for it (non-byte-string columns, disabled blooms,
// v2 files).
func (v *View) ColumnBloom(c int) []byte {
	return v.framedEntry(secColumnBlooms, c, v.numColumns)
}

// PageBloom returns global page p's serialized bloom filter, or nil.
func (v *View) PageBloom(p int) []byte {
	return v.framedEntry(secPageBlooms, p, v.numPages)
}

// Checksum returns entry i of the checksum section (pages, then groups,
// then root).
func (v *View) Checksum(i int) uint64 { return v.u64(secChecksums, i) }

// RootChecksum returns the Merkle root.
func (v *View) RootChecksum() uint64 {
	return v.Checksum(v.numPages + v.numGroups)
}

// Materialize fully decodes the footer for mutation (the deletion path
// rewrites the deletion vector and checksums). Readers should stay on the
// View.
func (v *View) Materialize() (*Footer, error) {
	nChunks := v.numGroups * v.numColumns
	f := &Footer{
		Version:         v.version,
		NumRows:         v.numRows,
		NumColumns:      v.numColumns,
		NumGroups:       v.numGroups,
		Flags:           v.flags,
		PageCompression: append([]uint8(nil), v.buf[v.off[secPageCompression]:v.off[secPageCompression]+v.numPages]...),
		RowsPerPage:     make([]uint32, v.numPages),
		PageOffsets:     make([]uint64, v.numPages),
		PagesPerGroup:   make([]uint32, v.numGroups),
		GroupOffsets:    make([]uint64, v.numGroups),
		ChunkFirstPage:  make([]uint32, nChunks+1),
		ColumnOffsets:   make([]uint64, nChunks),
		ColumnSizes:     make([]uint64, nChunks),
		DeletionVec:     make([]uint64, v.DeletionWords()),
		Checksums:       make([]uint64, v.numPages+v.numGroups+1),
		Columns:         make([]Column, v.numColumns),
	}
	for i := range f.RowsPerPage {
		f.RowsPerPage[i] = v.u32(secRowsPerPage, i)
		f.PageOffsets[i] = v.u64(secPageOffsets, i)
	}
	for i := range f.PagesPerGroup {
		f.PagesPerGroup[i] = v.u32(secPagesPerGroup, i)
		f.GroupOffsets[i] = v.u64(secGroupOffsets, i)
	}
	for i := range f.ChunkFirstPage {
		f.ChunkFirstPage[i] = v.u32(secChunkFirstPage, i)
	}
	for i := 0; i < nChunks; i++ {
		f.ColumnOffsets[i] = v.u64(secColumnOffsets, i)
		f.ColumnSizes[i] = v.u64(secColumnSizes, i)
	}
	for i := range f.DeletionVec {
		f.DeletionVec[i] = v.u64(secDeletionVec, i)
	}
	for i := range f.Checksums {
		f.Checksums[i] = v.u64(secChecksums, i)
	}
	for i := range f.Columns {
		f.Columns[i] = Column{Name: v.ColumnName(i), Type: v.ColumnType(i)}
	}
	if v.HasPageStats() {
		f.PageStats = make([]PageStat, v.numPages)
		for i := range f.PageStats {
			f.PageStats[i], _ = v.PageStat(i)
		}
	}
	if v.HasColumnStats() {
		f.ColumnStats = make([]ColumnStat, v.numColumns)
		for i := range f.ColumnStats {
			f.ColumnStats[i], _ = v.ColumnStat(i)
		}
	}
	if v.size[secColumnBlooms] != 0 {
		f.ColumnBlooms = make([][]byte, v.numColumns)
		for i := range f.ColumnBlooms {
			f.ColumnBlooms[i] = append([]byte(nil), v.ColumnBloom(i)...)
		}
	}
	if v.size[secPageBlooms] != 0 {
		f.PageBlooms = make([][]byte, v.numPages)
		for i := range f.PageBlooms {
			f.PageBlooms[i] = append([]byte(nil), v.PageBloom(i)...)
		}
	}
	return f, nil
}
