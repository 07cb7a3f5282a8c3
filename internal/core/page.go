package core

import (
	"fmt"

	"bullion/internal/bitutil"
	"bullion/internal/enc"
	"bullion/internal/quant"
	"bullion/internal/sparse"
)

// maskableAllowed is the cascade subset usable in Level-2 files: the
// schemes §2.1 enumerates as mask-friendly (bit-packing, varint, RLE,
// dictionary, FOR) plus the trivially safe ones. Delta, Gorilla/Chimp,
// Huffman and block compression (ChunkedBytes) are excluded — masking one
// value shifts their downstream state, so a re-encoded page could exceed
// its original size, violating the paper's size-consistency criterion.
// Compliance costs compression; the tradeoff is measured in the deletion
// experiment's ablation.
var maskableAllowed = map[enc.SchemeID]bool{
	enc.Plain: true, enc.BitPack: true, enc.Varint: true, enc.ZigZagVar: true,
	enc.RLE: true, enc.Dict: true, enc.FOR: true,
	enc.Constant: true, enc.MainlyConst: true,
	enc.PlainF: true, enc.ConstantF: true,
	enc.PlainB: true, enc.DictB: true, enc.ConstantB: true,
	enc.PlainBool: true, enc.SparseBool: true, enc.Roaring: true,
	enc.Nullable: true, enc.Sentinel: true,
}

// maskableEncOptions restricts base to the maskable scheme subset.
func maskableEncOptions(base *enc.Options) *enc.Options {
	c := *base
	if c.Allowed == nil {
		c.Allowed = maskableAllowed
		return &c
	}
	inter := map[enc.SchemeID]bool{}
	for id := range c.Allowed {
		if maskableAllowed[id] {
			inter[id] = true
		}
	}
	c.Allowed = inter
	return &c
}

// level2Slack returns the per-page padding reserved at Level 2 so that
// masked re-encodes with slightly different sub-stream choices still fit.
func level2Slack(payloadLen int) int { return 16 + payloadLen/32 }

// boolsToBitmap converts a validity slice to a bitmap.
func boolsToBitmap(valid []bool) *bitutil.Bitmap {
	b := bitutil.NewBitmap(len(valid))
	for i, v := range valid {
		if v {
			b.Set(i)
		}
	}
	return b
}

// Options configures the writer's encoding behaviour.
type Options struct {
	// RowsPerPage is the page granularity (the unit of in-place deletion
	// and checksum maintenance).
	RowsPerPage int
	// GroupRows is the row-group granularity.
	GroupRows int
	// Compliance selects the §2.1 deletion-compliance level the file is
	// written at (recorded per file; Level 2 files reserve dictionary mask
	// entries, which ours always do).
	Compliance Level
	// Enc configures the cascade selector for every stream of every
	// page, a sparse page's value stream included.
	Enc *enc.Options
	// Sparse configures the sliding-window codec of Sparse fields: its
	// window (MinOverlap, RestartInterval). Its Enc must be nil or Enc
	// itself; nil means sparse.DefaultOptions().
	Sparse *sparse.Options
	// QualityColumn, when set, names a float64 column; buffered rows are
	// presorted by it in descending order before each row group is cut
	// (§2.5's quality-aware data organization).
	QualityColumn string
	// EncodeWorkers bounds how many column-encode tasks (cascade selection
	// + page encoding + statistics + checksum leaves) run concurrently in
	// the writer's ingest pipeline. <= 0 means GOMAXPROCS. The file bytes
	// are identical at every setting: columns are encoded in file order
	// against per-column selector caches and serialized by a single
	// goroutine.
	EncodeWorkers int
	// MaxInflightGroups caps how many cut row groups (raw plus encoded
	// bytes) the ingest pipeline may hold at once, bounding writer memory.
	// <= 0 means EncodeWorkers + 2.
	MaxInflightGroups int
	// BloomBitsPerValue sizes the split-block bloom filters the writer
	// builds over byte-string (Binary/String) columns, per page and per
	// file, in bits per distinct value. 0 selects
	// enc.BloomDefaultBitsPerValue (12, ~0.5% false positives); negative
	// disables bloom filters entirely. Building a file-level filter keeps
	// the column's distinct value hashes in memory until Close (8 bytes
	// per distinct value).
	BloomBitsPerValue int
}

// resolveBloomBits normalizes Options.BloomBitsPerValue: the default
// sizing at 0, disabled (0) when negative.
func (o *Options) resolveBloomBits() int {
	switch {
	case o.BloomBitsPerValue < 0:
		return 0
	case o.BloomBitsPerValue == 0:
		return enc.BloomDefaultBitsPerValue
	default:
		return o.BloomBitsPerValue
	}
}

// Level is a deletion-compliance level (§2.1).
type Level uint8

// Compliance levels.
const (
	// Level0 behaves like a legacy columnar file: no deletion support.
	Level0 Level = 0
	// Level1 maintains a deletion vector; deleted rows are filtered at
	// read time but their bytes remain on disk.
	Level1 Level = 1
	// Level2 combines the deletion vector with in-place physical erasure
	// of the affected pages.
	Level2 Level = 2
)

// DefaultOptions returns the writer defaults.
func DefaultOptions() *Options {
	return &Options{
		RowsPerPage: 1024,
		GroupRows:   1 << 16,
		Compliance:  Level2,
		Enc:         enc.DefaultOptions(),
		Sparse:      sparse.DefaultOptions(),
	}
}

func (o *Options) clone() *Options {
	c := *o
	return &c
}

// SparsePageScheme is the PageCompression marker for sparse sliding-window
// pages (the codec is composite; no single cascade id describes it).
const SparsePageScheme = 0

// encodePage encodes one page (<= RowsPerPage rows) of a column, returning
// the representative cascade scheme recorded in the footer: the stream's
// own scheme for scalar pages, the value stream's scheme for list pages,
// and SparsePageScheme for sliding-window pages. Every stream encodes
// with opts.Enc, and so through the column's one selector cache.
func encodePage(f Field, data ColumnData, opts *Options) ([]byte, enc.SchemeID, error) {
	if opts.Enc.Cache != nil {
		opts.Enc.Cache.BeginPage()
	}
	switch d := data.(type) {
	case Int64Data:
		out, err := enc.EncodeInts(nil, d, opts.Enc)
		return out, enc.TopScheme(out), err
	case NullableInt64Data:
		valid := boolsToBitmap(d.Valid)
		out, err := enc.EncodeNullableInts(nil, d.Values, valid, opts.Enc)
		return out, enc.TopScheme(out), err
	case Float64Data:
		out, err := enc.EncodeFloats(nil, d, opts.Enc)
		return out, enc.TopScheme(out), err
	case Float32Data:
		bits, err := quant.Quantize(d, f.Type.Quant)
		if err != nil {
			return nil, 0, err
		}
		out, err := enc.EncodeInts(nil, bits, opts.Enc)
		return out, enc.TopScheme(out), err
	case BoolData:
		out, err := enc.EncodeBools(nil, d, opts.Enc)
		return out, enc.TopScheme(out), err
	case BytesData:
		out, err := enc.EncodeBytes(nil, d, opts.Enc)
		return out, enc.TopScheme(out), err
	case ListInt64Data:
		if f.Sparse {
			so := *opts.Sparse
			so.Enc = opts.Enc
			out, err := sparse.EncodeColumn(d, &so)
			return out, SparsePageScheme, err
		}
		return encodeList(d, opts, func(flat []int64) ([]byte, error) {
			return enc.EncodeInts(nil, flat, opts.Enc)
		})
	case ListFloat32Data:
		return encodeList(d, opts, func(flat []float32) ([]byte, error) {
			bits, err := quant.Quantize(flat, f.Type.Quant)
			if err != nil {
				return nil, err
			}
			return enc.EncodeInts(nil, bits, opts.Enc)
		})
	case ListFloat64Data:
		return encodeList(d, opts, func(flat []float64) ([]byte, error) {
			return enc.EncodeFloats(nil, flat, opts.Enc)
		})
	case ListBytesData:
		return encodeList(d, opts, func(flat [][]byte) ([]byte, error) {
			return enc.EncodeBytes(nil, flat, opts.Enc)
		})
	case ListListInt64Data:
		// The outer lengths, then the inner lists as a list<int64> page.
		lengths, lists := flatten(d)
		outer, err := enc.EncodeInts(nil, lengths, opts.Enc)
		if err != nil {
			return nil, 0, err
		}
		inner, scheme, err := encodeList(lists, opts, func(flat []int64) ([]byte, error) {
			return enc.EncodeInts(nil, flat, opts.Enc)
		})
		if err != nil {
			return nil, 0, err
		}
		return append(enc.AppendLengthPrefixed(nil, outer), inner...), scheme, nil
	}
	return nil, 0, fmt.Errorf("core: cannot encode column type %T", data)
}

// flatten returns each row's list length and every list's values
// concatenated in row order.
func flatten[E any](rows [][]E) ([]int64, []E) {
	lengths := make([]int64, len(rows))
	var flat []E
	for i, v := range rows {
		lengths[i] = int64(len(v))
		flat = append(flat, v...)
	}
	return lengths, flat
}

// encodeList encodes a list page as two streams: the list lengths, then
// the flattened values, encoded by values. It reports the values
// stream's scheme.
func encodeList[E any](rows [][]E, opts *Options, values func([]E) ([]byte, error)) ([]byte, enc.SchemeID, error) {
	lengths, flat := flatten(rows)
	lenStream, err := enc.EncodeInts(nil, lengths, opts.Enc)
	if err != nil {
		return nil, 0, err
	}
	valStream, err := values(flat)
	if err != nil {
		return nil, 0, err
	}
	out := enc.AppendLengthPrefixed(nil, lenStream)
	return enc.AppendLengthPrefixed(out, valStream), enc.TopScheme(valStream), nil
}

// fixedColumn is a fixed-width column type (int64 and int32, nullable
// int64, float64, quantized float32, bool): its pages decode in place,
// into storage sized before the first page is read.
type fixedColumn interface {
	ColumnData
	// decodeRows decodes a page stream of field f, hi-lo rows long, into
	// rows [lo,hi) of the receiver.
	decodeRows(f Field, payload []byte, lo, hi int) error
	// grow returns n rows of storage of the receiver's type: the
	// receiver's own when it is non-nil and its capacity holds n rows,
	// new storage otherwise.
	grow(n int) fixedColumn
}

// fixedType returns a zero-valued column of f's type when f is
// fixed-width, and nil otherwise. A zero value boxes without allocating,
// so the probe is free on the scan path.
func fixedType(f Field) fixedColumn {
	switch {
	case f.Nullable && f.Type.Kind == Int64:
		return NullableInt64Data{}
	case f.Type.Kind == Int64 || f.Type.Kind == Int32:
		return Int64Data(nil)
	case f.Type.Kind == Float64:
		return Float64Data(nil)
	case f.Type.Kind == Float32:
		return Float32Data(nil)
	case f.Type.Kind == Bool:
		return BoolData(nil)
	}
	return nil
}

func (d Int64Data) decodeRows(_ Field, payload []byte, lo, hi int) error {
	_, err := enc.DecodeIntsInto(d[lo:hi], payload)
	return err
}

func (d NullableInt64Data) decodeRows(_ Field, payload []byte, lo, hi int) error {
	return enc.DecodeNullableIntsInto(d.Values[lo:hi], d.Valid[lo:hi], payload)
}

func (d Float64Data) decodeRows(_ Field, payload []byte, lo, hi int) error {
	_, err := enc.DecodeFloatsInto(d[lo:hi], payload)
	return err
}

// decodeRows decodes the stored bit patterns into pooled staging and
// dequantizes them with the field's format.
func (d Float32Data) decodeRows(f Field, payload []byte, lo, hi int) error {
	bp := getPageInts(hi - lo)
	defer putPageInts(bp)
	bits, err := enc.DecodeIntsInto(*bp, payload)
	if err != nil {
		return err
	}
	_, err = quant.DequantizeInto(d[lo:hi], bits, f.Type.Quant)
	return err
}

func (d BoolData) decodeRows(_ Field, payload []byte, lo, hi int) error {
	_, err := enc.DecodeBoolsInto(d[lo:hi], payload)
	return err
}

func (d Int64Data) grow(n int) fixedColumn   { return growRows(d, n) }
func (d Float64Data) grow(n int) fixedColumn { return growRows(d, n) }
func (d Float32Data) grow(n int) fixedColumn { return growRows(d, n) }
func (d BoolData) grow(n int) fixedColumn    { return growRows(d, n) }

func (d NullableInt64Data) grow(n int) fixedColumn {
	return NullableInt64Data{Values: growRows(d.Values, n), Valid: growRows(d.Valid, n)}
}

// growRows returns d resliced to n rows when d is non-nil and has the
// capacity, and n new rows otherwise.
func growRows[S ~[]E, E any](d S, n int) S {
	if d != nil && cap(d) >= n {
		return d[:n]
	}
	return make(S, n)
}

// decodePage decodes a page of nRows rows.
func decodePage(f Field, payload []byte, nRows int) (ColumnData, error) {
	if d := fixedType(f); d != nil {
		d = d.grow(nRows)
		if err := d.decodeRows(f, payload, 0, nRows); err != nil {
			return nil, err
		}
		return d, nil
	}
	switch {
	case f.Type.Kind == Binary || f.Type.Kind == String:
		vs, err := enc.DecodeBytes(payload, nRows)
		if err != nil {
			return nil, err
		}
		return BytesData(vs), nil
	case f.Type.Kind == List && f.Type.Elem == Int64:
		if f.Sparse {
			vecs, err := sparse.DecodeColumn(payload)
			if err != nil {
				return nil, err
			}
			if len(vecs) != nRows {
				return nil, fmt.Errorf("core: sparse page has %d vectors, want %d", len(vecs), nRows)
			}
			return ListInt64Data(vecs), nil
		}
		lists, err := decodeList(payload, nRows, stream(enc.DecodeInts))
		return ListInt64Data(lists), err
	case f.Type.Kind == List && f.Type.Elem == Float32:
		lists, err := decodeList(payload, nRows, stream(func(s []byte, n int) ([]float32, error) {
			vs := make(Float32Data, n)
			return vs, vs.decodeRows(f, s, 0, n)
		}))
		return ListFloat32Data(lists), err
	case f.Type.Kind == List && f.Type.Elem == Float64:
		lists, err := decodeList(payload, nRows, stream(enc.DecodeFloats))
		return ListFloat64Data(lists), err
	case f.Type.Kind == List && f.Type.Elem == Binary:
		lists, err := decodeList(payload, nRows, stream(enc.DecodeBytes))
		return ListBytesData(lists), err
	case f.Type.Kind == ListList:
		lists, err := decodeList(payload, nRows, func(rest []byte, n int) ([][]int64, error) {
			return decodeList(rest, n, stream(enc.DecodeInts))
		})
		return ListListInt64Data(lists), err
	}
	return nil, fmt.Errorf("core: cannot decode field %q of type %v", f.Name, f.Type)
}

// maxListLen bounds per-page list cardinalities so hostile length streams
// cannot drive unbounded allocations (2^28 values ≈ 2 GB of int64s).
const maxListLen = 1 << 28

// decodeList decodes a list page written by encodeList into nRows lists.
// It bounds the lengths before values decodes the rest of the page to
// their sum, and each list slices that one flat result, capacity-capped so
// that appending to one list never writes into the next.
func decodeList[E any](payload []byte, nRows int, values func(rest []byte, n int) ([]E, error)) ([][]E, error) {
	lenStream, rest, err := enc.ReadLengthPrefixed(payload)
	if err != nil {
		return nil, err
	}
	lengths, err := enc.DecodeInts(lenStream, nRows)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, l := range lengths {
		if l < 0 || l > maxListLen {
			return nil, fmt.Errorf("core: list length %d out of range", l)
		}
		total += int(l)
		if total > maxListLen {
			return nil, fmt.Errorf("core: list cardinality overflow")
		}
	}
	flat, err := values(rest, total)
	if err != nil {
		return nil, err
	}
	out := make([][]E, nRows)
	pos := 0
	for i, l := range lengths {
		end := pos + int(l)
		out[i] = flat[pos:end:end]
		pos = end
	}
	return out, nil
}

// stream adapts a stream decoder to decode a list page's values: the one
// length-prefixed stream after its lengths.
func stream[E any](decode func([]byte, int) ([]E, error)) func([]byte, int) ([]E, error) {
	return func(rest []byte, n int) ([]E, error) {
		s, _, err := enc.ReadLengthPrefixed(rest)
		if err != nil {
			return nil, err
		}
		return decode(s, n)
	}
}
