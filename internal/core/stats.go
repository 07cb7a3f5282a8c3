package core

import (
	"math"

	"bullion/internal/enc"
	"bullion/internal/footer"
	"bullion/internal/quant"
)

// PageStats is the per-page zone map recorded by the writer: min/max over
// the page's non-null int64/int32 values (native order) or float64/float32
// values (math.Float64bits patterns flagged StatFloatBits), plus the null
// count. Pages of other types carry a flagless entry and are never skipped
// by range filters; byte-string pages carry a bloom filter instead
// (View.PageBloom).
type PageStats = footer.PageStat

// PageStats returns the zone map of global page p, or ok=false when the
// writer recorded no statistics section.
func (f *File) PageStats(p int) (PageStats, bool) { return f.view.PageStat(p) }

// computePageStats derives the zone map of one page's data before
// encoding. Bounds cover the values as the reader will decode them —
// quantized float32 pages are bounded after a quantize/dequantize round
// trip, since storage rounding can move a value past the raw input's
// extremes. Deletions only remove rows (Level-2 erasure masks with
// values already present in the page), so the bounds remain conservative
// for the page's live rows. NaN values constrain nothing: a page of only
// NaNs gets no bounds and is never pruned.
func computePageStats(f Field, data ColumnData) footer.PageStat {
	switch d := data.(type) {
	case Int64Data:
		st := footer.PageStat{Flags: footer.StatHasNullCount}
		if len(d) > 0 {
			st.Flags |= footer.StatHasMinMax
			st.Min, st.Max = d[0], d[0]
			for _, v := range d[1:] {
				if v < st.Min {
					st.Min = v
				}
				if v > st.Max {
					st.Max = v
				}
			}
		}
		return st
	case NullableInt64Data:
		st := footer.PageStat{Flags: footer.StatHasNullCount}
		seen := false
		for i, v := range d.Values {
			if !d.Valid[i] {
				st.NullCount++
				continue
			}
			if !seen {
				st.Min, st.Max = v, v
				seen = true
				continue
			}
			if v < st.Min {
				st.Min = v
			}
			if v > st.Max {
				st.Max = v
			}
		}
		if seen {
			st.Flags |= footer.StatHasMinMax
		}
		return st
	case Float64Data:
		return floatPageStats(d)
	case Float32Data:
		st := floatPageStats(d)
		if f.Type.Quant != quant.FP32 && st.Flags&footer.StatHasMinMax != 0 {
			// Quantization rounds to nearest, which is monotone, so the
			// decoded page's extremes are exactly the decoded raw extremes:
			// round-trip just those two values instead of the whole page
			// (the encoder quantizes the page once already).
			lo, hi := statFloatBounds(st.Min, st.Max)
			bits, err := quant.Quantize([]float32{float32(lo), float32(hi)}, f.Type.Quant)
			if err != nil {
				return footer.PageStat{Flags: footer.StatHasNullCount}
			}
			stored, err := quant.Dequantize(bits, f.Type.Quant)
			if err != nil {
				return footer.PageStat{Flags: footer.StatHasNullCount}
			}
			st.Min = int64(math.Float64bits(float64(stored[0])))
			st.Max = int64(math.Float64bits(float64(stored[1])))
		}
		return st
	}
	return footer.PageStat{}
}

// floatPageStats folds float values into a StatFloatBits zone map of
// their float64 widenings, skipping NaNs.
func floatPageStats[F float32 | float64](vs []F) footer.PageStat {
	st := footer.PageStat{Flags: footer.StatHasNullCount}
	seen := false
	var lo, hi float64
	for _, v := range vs {
		f := float64(v)
		if math.IsNaN(f) {
			continue
		}
		if !seen {
			lo, hi = f, f
			seen = true
			continue
		}
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	if seen {
		st.Flags |= footer.StatHasMinMax | footer.StatFloatBits
		st.Min = int64(math.Float64bits(lo))
		st.Max = int64(math.Float64bits(hi))
	}
	return st
}

// statFloatBounds decodes a stat's bounds as floats (valid when the entry
// is flagged StatHasMinMax|StatFloatBits).
func statFloatBounds(min, max int64) (float64, float64) {
	return math.Float64frombits(uint64(min)), math.Float64frombits(uint64(max))
}

// ColumnStats summarizes one column's physical storage.
type ColumnStats struct {
	Name            string
	Type            Type
	Sparse          bool
	Nullable        bool
	CompressedBytes uint64
	Pages           int
	// Encodings histograms the top-level cascade scheme across the
	// column's pages (multiple schemes appear when data shifts between
	// groups or after Level-2 rewrites).
	Encodings map[enc.SchemeID]int
	// Min/Max is the column-level zone map of an int64/int32 column: the
	// fold of every page's min/max statistics. HasMinMax is false when any
	// non-empty page of the column lacks recorded int bounds (non-int
	// columns, or statless files), in which case the bounds must not be
	// used for pruning. NullCount sums the per-page null counts.
	Min, Max  int64
	HasMinMax bool
	NullCount uint64
	// FloatMin/FloatMax is the column-level zone map of a float64/float32
	// column, valid only when HasFloatMinMax (v3 files).
	FloatMin, FloatMax float64
	HasFloatMinMax     bool
	// Bloom is the column's serialized split-block bloom filter over its
	// byte-string values (nil when absent: non-byte-string columns,
	// blooms disabled, v2 files). Probe with enc.OpenBloom.
	Bloom []byte
}

// FileStats summarizes a file's physical storage.
type FileStats struct {
	FileBytes   int64
	DataBytes   uint64
	FooterBytes int
	NumRows     uint64
	LiveRows    uint64
	NumGroups   int
	NumPages    int
	Compliance  Level
	Columns     []ColumnStats
}

// Stats walks the footer (no data reads) and reports per-column storage.
func (f *File) Stats() *FileStats {
	v := f.view
	s := &FileStats{
		FileBytes:   f.ftr.size,
		FooterBytes: f.ftr.footerLen,
		NumRows:     v.NumRows(),
		LiveRows:    f.NumLiveRows(),
		NumGroups:   v.NumGroups(),
		NumPages:    v.NumPages(),
		Compliance:  f.Compliance(),
		Columns:     make([]ColumnStats, v.NumColumns()),
	}
	for c := 0; c < v.NumColumns(); c++ {
		field := f.FieldByIndex(c)
		cs := ColumnStats{
			Name:      field.Name,
			Type:      field.Type,
			Sparse:    field.Sparse,
			Nullable:  field.Nullable,
			Encodings: map[enc.SchemeID]int{},
			Bloom:     v.ColumnBloom(c),
		}
		for g := 0; g < v.NumGroups(); g++ {
			_, size := v.ChunkByteRange(g, c)
			cs.CompressedBytes += size
			first, count := v.ChunkPages(g, c)
			cs.Pages += count
			for p := first; p < first+count; p++ {
				cs.Encodings[enc.SchemeID(v.PageCompression(p))]++
			}
		}
		st := columnStat(v, c)
		cs.NullCount = st.NullCount
		switch {
		case st.Flags&footer.StatHasMinMax == 0:
		case st.Flags&footer.StatFloatBits != 0:
			cs.FloatMin, cs.FloatMax = statFloatBounds(st.Min, st.Max)
			cs.HasFloatMinMax = true
		default:
			cs.Min, cs.Max, cs.HasMinMax = st.Min, st.Max, true
		}
		s.DataBytes += cs.CompressedBytes
		s.Columns[c] = cs
	}
	return s
}

// columnStat returns column c's file-level zone map: the writer's fold as
// a version-3 footer persists it, else the same fold over the column's
// page statistics.
func columnStat(v *footer.View, c int) footer.ColumnStat {
	if st, ok := v.ColumnStat(c); ok {
		return st
	}
	zone := newZoneFold()
	for g := 0; g < v.NumGroups(); g++ {
		first, count := v.ChunkPages(g, c)
		for p := first; p < first+count; p++ {
			st, ok := v.PageStat(p)
			zone.addPage(st, ok, v.PageRows(p))
		}
	}
	return zone.columnStat()
}

// maxStatsBloomBytes caps the bloom StatsFile copies into a statistics
// sidecar. A sidecar is written once, so the cap does not guard what a
// commit rewrites; it bounds what a filtered dataset scan reads per
// member before it can prune (64 KiB is about 43k distinct values at the
// default sizing), and version 1-2 dataset manifests, which inlined the
// same statistics, were written under it. A column over the cap loses
// only member-level membership pruning: the member's own footer bloom
// still prunes once the file is opened.
const maxStatsBloomBytes = 1 << 16

// StatsFile renders ftr's file-level statistics as a statistics sidecar:
// a footer-only file (MarshalFooterFile) with one column for each column
// of ftr whose statistics can prune — int bounds, finite float bounds, or
// a bloom of at most maxStatsBloomBytes — carrying those and the null
// count. Non-finite float bounds are left out, as the JSON zones of
// version 1-2 dataset manifests could not hold them; a missing bound only
// costs pruning. The statistics are columnStat's, so the footer a writer
// hands over in WrittenStats and the same file reopened yield the same
// bytes. StatsFile returns nil when no column qualifies.
func StatsFile(ftr *Footer) ([]byte, error) {
	v := ftr.view
	var (
		cols      []footer.Column
		stats     []footer.ColumnStat
		blooms    [][]byte
		haveBloom bool
	)
	for c := 0; c < v.NumColumns(); c++ {
		st := columnStat(v, c)
		out := footer.ColumnStat{NullCount: st.NullCount, Flags: footer.StatHasNullCount}
		bounded := st.Flags&footer.StatHasMinMax != 0
		if bounded && st.Flags&footer.StatFloatBits != 0 {
			lo, hi := statFloatBounds(st.Min, st.Max)
			bounded = !math.IsInf(lo, 0) && !math.IsNaN(lo) && !math.IsInf(hi, 0) && !math.IsNaN(hi)
		}
		if bounded {
			out.Flags |= st.Flags & (footer.StatHasMinMax | footer.StatFloatBits)
			out.Min, out.Max = st.Min, st.Max
		}
		bloom := v.ColumnBloom(c)
		if len(bloom) > maxStatsBloomBytes {
			bloom = nil
		}
		if !bounded && len(bloom) == 0 {
			continue
		}
		cols = append(cols, footer.Column{Name: v.ColumnName(c)})
		stats = append(stats, out)
		blooms = append(blooms, bloom)
		haveBloom = haveBloom || len(bloom) > 0
	}
	if len(cols) == 0 {
		return nil, nil
	}
	if !haveBloom {
		blooms = nil
	}
	return MarshalFooterFile(cols, stats, blooms)
}

// zoneFold folds page statistics into one column-level zone map, keeping
// the int and float domains apart. A column's bounds are only trustworthy
// when every non-empty page contributed bounds of one domain.
type zoneFold struct {
	seen       bool
	floatBits  bool
	min, max   int64
	fmin, fmax float64
	nullCount  uint64
	allBounded bool
}

func newZoneFold() *zoneFold { return &zoneFold{allBounded: true} }

// addPage folds one page's stat (ok=false when the file has no page-stats
// section).
func (z *zoneFold) addPage(st footer.PageStat, ok bool, pageRows int) {
	if !ok {
		z.allBounded = false
		return
	}
	z.nullCount += uint64(st.NullCount)
	if st.Flags&footer.StatHasMinMax == 0 {
		// An empty page (0 rows) constrains nothing; any other boundless
		// page poisons the column fold.
		if pageRows > 0 {
			z.allBounded = false
		}
		return
	}
	if st.Flags&footer.StatFloatBits != 0 {
		lo, hi := statFloatBounds(st.Min, st.Max)
		if !z.seen {
			z.seen, z.floatBits = true, true
			z.fmin, z.fmax = lo, hi
			return
		}
		if !z.floatBits {
			z.allBounded = false // mixed domains: never prune
			return
		}
		if lo < z.fmin {
			z.fmin = lo
		}
		if hi > z.fmax {
			z.fmax = hi
		}
		return
	}
	if !z.seen {
		z.seen = true
		z.min, z.max = st.Min, st.Max
		return
	}
	if z.floatBits {
		z.allBounded = false
		return
	}
	if st.Min < z.min {
		z.min = st.Min
	}
	if st.Max > z.max {
		z.max = st.Max
	}
}

// columnStat renders the fold as the footer's file-level entry.
func (z *zoneFold) columnStat() footer.ColumnStat {
	st := footer.ColumnStat{NullCount: z.nullCount, Flags: footer.StatHasNullCount}
	if z.seen && z.allBounded {
		st.Flags |= footer.StatHasMinMax
		if z.floatBits {
			st.Flags |= footer.StatFloatBits
			st.Min = int64(math.Float64bits(z.fmin))
			st.Max = int64(math.Float64bits(z.fmax))
		} else {
			st.Min, st.Max = z.min, z.max
		}
	}
	return st
}
