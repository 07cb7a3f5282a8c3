// Package core implements the Bullion columnar file format: row groups of
// column-chunk pages, the compact footer of internal/footer, cascade
// encoding from internal/enc, sliding-window sparse codecs from
// internal/sparse, storage quantization from internal/quant, and the
// paper's three-level deletion-compliance model (§2.1).
//
// File layout:
//
//	BullionFile := RowGroup* Footer footerLen(u32) magic "BLN1"
//	RowGroup    := ColumnChunk*      // one chunk per column, in schema order
//	ColumnChunk := Page*
//	Page        := payload (self-describing encoded streams)
//
// Struct columns are flattened into leaf columns before reaching core
// (Alpha-style feature flattening); a struct<list<int64>,list<float>>
// feature becomes two columns "f.0" and "f.1".
package core

import (
	"fmt"

	"bullion/internal/footer"
	"bullion/internal/quant"
)

// Kind aliases the footer's physical type family.
type Kind = footer.Kind

// Re-exported kinds for schema construction.
const (
	Int64    = footer.KindInt64
	Int32    = footer.KindInt32
	Float64  = footer.KindFloat64
	Float32  = footer.KindFloat32
	Bool     = footer.KindBool
	Binary   = footer.KindBinary
	String   = footer.KindString
	List     = footer.KindList
	ListList = footer.KindListList
)

// Type is a column's logical type.
type Type struct {
	Kind  Kind
	Elem  Kind         // element kind for List / ListList
	Quant quant.Format // storage quantization for Float32 columns (FP32 = none)
}

// desc converts to the footer's fixed descriptor.
func (t Type) desc() footer.TypeDesc {
	return footer.TypeDesc{Kind: t.Kind, Elem: t.Elem, Quant: uint8(t.Quant)}
}

func typeFromDesc(d footer.TypeDesc) Type {
	return Type{Kind: d.Kind, Elem: d.Elem, Quant: quant.Format(d.Quant)}
}

// String renders the type.
func (t Type) String() string { return t.desc().String() }

// Field is one column of a schema.
type Field struct {
	Name string
	Type Type
	// Sparse selects the §2.2 sliding-window delta codec; valid only for
	// list<int64> columns (sequence features like clk_seq_cids).
	Sparse bool
	// Nullable permits nulls; valid for int64 scalar columns.
	Nullable bool
}

// Schema is an ordered set of fields.
type Schema struct {
	Fields []Field
}

// NewSchema validates and constructs a schema.
func NewSchema(fields ...Field) (*Schema, error) {
	names := make(map[string]bool, len(fields))
	for i, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("core: field %d has empty name", i)
		}
		if names[f.Name] {
			return nil, fmt.Errorf("core: duplicate field %q", f.Name)
		}
		names[f.Name] = true
		if err := validateType(f); err != nil {
			return nil, fmt.Errorf("core: field %q: %w", f.Name, err)
		}
	}
	return &Schema{Fields: fields}, nil
}

func validateType(f Field) error {
	t := f.Type
	switch t.Kind {
	case Int64, Int32, Float64, Bool, Binary, String:
		if t.Elem != footer.KindInvalid {
			return fmt.Errorf("scalar type %v must not set Elem", t.Kind)
		}
	case Float32:
		switch t.Quant {
		case quant.FP32, quant.TF32, quant.FP16, quant.BF16, quant.FP8E4M3, quant.FP8E5M2:
		default:
			return fmt.Errorf("float32 quant format %v unsupported", t.Quant)
		}
	case List:
		switch t.Elem {
		case Int64, Float32, Float64, Binary:
		default:
			return fmt.Errorf("list element %v unsupported", t.Elem)
		}
	case ListList:
		if t.Elem != Int64 {
			return fmt.Errorf("list<list<%v>> unsupported (only int64)", t.Elem)
		}
	default:
		return fmt.Errorf("kind %v unsupported", t.Kind)
	}
	if f.Sparse && !(t.Kind == List && t.Elem == Int64) {
		return fmt.Errorf("sparse codec requires list<int64>, got %v", t)
	}
	if f.Nullable && t.Kind != Int64 {
		return fmt.Errorf("nullable is only supported for int64 columns, got %v", t)
	}
	return nil
}

// Fingerprint returns a stable hex digest of the schema: field order,
// names, and full type descriptors (kind, element, quantization, sparse
// and nullable flags). Two schemas share a fingerprint iff a file written
// with one can be read as the other, so the dataset manifest layer uses it
// to verify member files without materializing their schemas.
func (s *Schema) Fingerprint() string {
	h := newFingerprint()
	for _, f := range s.Fields {
		fingerprintField(&h, f.Name, fieldDesc(f))
	}
	return h.String()
}

// fingerprint is the FNV-1a 64 digest behind Schema.Fingerprint, inlined so
// hashing a field allocates nothing.
type fingerprint uint64

func newFingerprint() fingerprint { return 14695981039346656037 }

func (h fingerprint) String() string { return fmt.Sprintf("%016x", uint64(h)) }

// fingerprintField folds one record into h: the name, the four descriptor
// bytes, and a zero separator.
func fingerprintField[S string | []byte](h *fingerprint, name S, d footer.TypeDesc) {
	const prime = 1099511628211
	x := uint64(*h)
	for i := 0; i < len(name); i++ {
		x = (x ^ uint64(name[i])) * prime
	}
	for _, b := range [5]byte{byte(d.Kind), byte(d.Elem), d.Quant, d.Flags, 0} {
		x = (x ^ uint64(b)) * prime
	}
	*h = fingerprint(x)
}

// Lookup returns the index of the named field.
func (s *Schema) Lookup(name string) (int, bool) {
	for i, f := range s.Fields {
		if f.Name == name {
			return i, true
		}
	}
	return 0, false
}

// ColumnData is a typed column of in-memory values. The interface is
// sealed: a new column type implements every method below, and
// checkColumnType, encodePage and computePageStats each get a case for
// it. A fixed-width type also implements fixedColumn (page.go) and gets a
// case in fixedType; any other type gets one in defaultColumn and
// decodePage.
type ColumnData interface {
	Len() int
	kind() Kind
	// slice returns rows [lo,hi), sharing storage with the receiver.
	slice(lo, hi int) ColumnData
	// gather returns a new column of the given rows, in order; a row may
	// repeat.
	gather(rows []int) ColumnData
	// concat appends src, which must have the receiver's dynamic type.
	concat(src ColumnData) ColumnData
}

// Int64Data is a non-null int64 column.
type Int64Data []int64

// NullableInt64Data is an int64 column with a validity mask. Valid[i]
// false means vs[i] is null (its value is ignored).
type NullableInt64Data struct {
	Values []int64
	Valid  []bool
}

// Float64Data is a float64 column.
type Float64Data []float64

// Float32Data is a float32 column (possibly stored quantized).
type Float32Data []float32

// BoolData is a boolean column.
type BoolData []bool

// BytesData is a binary/string column.
type BytesData [][]byte

// ListInt64Data is a list<int64> column.
type ListInt64Data [][]int64

// ListFloat32Data is a list<float> column.
type ListFloat32Data [][]float32

// ListFloat64Data is a list<double> column.
type ListFloat64Data [][]float64

// ListBytesData is a list<binary> column.
type ListBytesData [][][]byte

// ListListInt64Data is a list<list<int64>> column.
type ListListInt64Data [][][]int64

func (d Int64Data) Len() int         { return len(d) }
func (d NullableInt64Data) Len() int { return len(d.Values) }
func (d Float64Data) Len() int       { return len(d) }
func (d Float32Data) Len() int       { return len(d) }
func (d BoolData) Len() int          { return len(d) }
func (d BytesData) Len() int         { return len(d) }
func (d ListInt64Data) Len() int     { return len(d) }
func (d ListFloat32Data) Len() int   { return len(d) }
func (d ListFloat64Data) Len() int   { return len(d) }
func (d ListBytesData) Len() int     { return len(d) }
func (d ListListInt64Data) Len() int { return len(d) }

func (Int64Data) kind() Kind         { return Int64 }
func (NullableInt64Data) kind() Kind { return Int64 }
func (Float64Data) kind() Kind       { return Float64 }
func (Float32Data) kind() Kind       { return Float32 }
func (BoolData) kind() Kind          { return Bool }
func (BytesData) kind() Kind         { return Binary }
func (ListInt64Data) kind() Kind     { return List }
func (ListFloat32Data) kind() Kind   { return List }
func (ListFloat64Data) kind() Kind   { return List }
func (ListBytesData) kind() Kind     { return List }
func (ListListInt64Data) kind() Kind { return ListList }

func (d Int64Data) slice(lo, hi int) ColumnData         { return d[lo:hi] }
func (d Float64Data) slice(lo, hi int) ColumnData       { return d[lo:hi] }
func (d Float32Data) slice(lo, hi int) ColumnData       { return d[lo:hi] }
func (d BoolData) slice(lo, hi int) ColumnData          { return d[lo:hi] }
func (d BytesData) slice(lo, hi int) ColumnData         { return d[lo:hi] }
func (d ListInt64Data) slice(lo, hi int) ColumnData     { return d[lo:hi] }
func (d ListFloat32Data) slice(lo, hi int) ColumnData   { return d[lo:hi] }
func (d ListFloat64Data) slice(lo, hi int) ColumnData   { return d[lo:hi] }
func (d ListBytesData) slice(lo, hi int) ColumnData     { return d[lo:hi] }
func (d ListListInt64Data) slice(lo, hi int) ColumnData { return d[lo:hi] }

func (d Int64Data) gather(rows []int) ColumnData         { return gatherRows(d, rows) }
func (d Float64Data) gather(rows []int) ColumnData       { return gatherRows(d, rows) }
func (d Float32Data) gather(rows []int) ColumnData       { return gatherRows(d, rows) }
func (d BoolData) gather(rows []int) ColumnData          { return gatherRows(d, rows) }
func (d BytesData) gather(rows []int) ColumnData         { return gatherRows(d, rows) }
func (d ListInt64Data) gather(rows []int) ColumnData     { return gatherRows(d, rows) }
func (d ListFloat32Data) gather(rows []int) ColumnData   { return gatherRows(d, rows) }
func (d ListFloat64Data) gather(rows []int) ColumnData   { return gatherRows(d, rows) }
func (d ListBytesData) gather(rows []int) ColumnData     { return gatherRows(d, rows) }
func (d ListListInt64Data) gather(rows []int) ColumnData { return gatherRows(d, rows) }

func (d Int64Data) concat(src ColumnData) ColumnData         { return concatRows(d, src) }
func (d Float64Data) concat(src ColumnData) ColumnData       { return concatRows(d, src) }
func (d Float32Data) concat(src ColumnData) ColumnData       { return concatRows(d, src) }
func (d BoolData) concat(src ColumnData) ColumnData          { return concatRows(d, src) }
func (d BytesData) concat(src ColumnData) ColumnData         { return concatRows(d, src) }
func (d ListInt64Data) concat(src ColumnData) ColumnData     { return concatRows(d, src) }
func (d ListFloat32Data) concat(src ColumnData) ColumnData   { return concatRows(d, src) }
func (d ListFloat64Data) concat(src ColumnData) ColumnData   { return concatRows(d, src) }
func (d ListBytesData) concat(src ColumnData) ColumnData     { return concatRows(d, src) }
func (d ListListInt64Data) concat(src ColumnData) ColumnData { return concatRows(d, src) }

func (d NullableInt64Data) slice(lo, hi int) ColumnData {
	return NullableInt64Data{Values: d.Values[lo:hi], Valid: d.Valid[lo:hi]}
}

func (d NullableInt64Data) gather(rows []int) ColumnData {
	return NullableInt64Data{Values: gatherRows(d.Values, rows), Valid: gatherRows(d.Valid, rows)}
}

func (d NullableInt64Data) concat(src ColumnData) ColumnData {
	s := src.(NullableInt64Data)
	return NullableInt64Data{Values: append(d.Values, s.Values...), Valid: append(d.Valid, s.Valid...)}
}

// concatRows appends src, asserted to d's type, onto d.
func concatRows[S ~[]E, E any](d S, src ColumnData) S { return append(d, src.(S)...) }

// gatherRows returns d's elements at rows, in order, in a new slice.
func gatherRows[S ~[]E, E any](d S, rows []int) S {
	out := make(S, len(rows))
	for i, r := range rows {
		out[i] = d[r]
	}
	return out
}

// Batch is a set of column slices aligned with a schema.
type Batch struct {
	Schema  *Schema
	Columns []ColumnData
	// src is the scanner whose Next returned the batch, until the batch
	// is recycled; nil for every other batch.
	src *Scanner
}

// NewBatch validates column/shape agreement.
func NewBatch(schema *Schema, columns []ColumnData) (*Batch, error) {
	if len(columns) != len(schema.Fields) {
		return nil, fmt.Errorf("core: batch has %d columns, schema %d", len(columns), len(schema.Fields))
	}
	n := -1
	for i, c := range columns {
		if c == nil {
			return nil, fmt.Errorf("core: column %q is nil", schema.Fields[i].Name)
		}
		if err := checkColumnType(schema.Fields[i], c); err != nil {
			return nil, err
		}
		if n < 0 {
			n = c.Len()
		} else if c.Len() != n {
			return nil, fmt.Errorf("core: column %q has %d rows, others %d",
				schema.Fields[i].Name, c.Len(), n)
		}
	}
	return &Batch{Schema: schema, Columns: columns}, nil
}

// NumRows returns the row count of the batch.
func (b *Batch) NumRows() int {
	if len(b.Columns) == 0 {
		return 0
	}
	return b.Columns[0].Len()
}

func checkColumnType(f Field, c ColumnData) error {
	ok := false
	switch d := c.(type) {
	case Int64Data:
		ok = (f.Type.Kind == Int64 || f.Type.Kind == Int32) && !f.Nullable
	case NullableInt64Data:
		ok = f.Type.Kind == Int64 && f.Nullable
		if ok && len(d.Valid) != len(d.Values) {
			return fmt.Errorf("core: column %q validity length %d != values %d",
				f.Name, len(d.Valid), len(d.Values))
		}
	case Float64Data:
		ok = f.Type.Kind == Float64
	case Float32Data:
		ok = f.Type.Kind == Float32
	case BoolData:
		ok = f.Type.Kind == Bool
	case BytesData:
		ok = f.Type.Kind == Binary || f.Type.Kind == String
	case ListInt64Data:
		ok = f.Type.Kind == List && f.Type.Elem == Int64
	case ListFloat32Data:
		ok = f.Type.Kind == List && f.Type.Elem == Float32
	case ListFloat64Data:
		ok = f.Type.Kind == List && f.Type.Elem == Float64
	case ListBytesData:
		ok = f.Type.Kind == List && f.Type.Elem == Binary
	case ListListInt64Data:
		ok = f.Type.Kind == ListList
	}
	if !ok {
		return fmt.Errorf("core: column %q: data type %T does not match field type %v (nullable=%v)",
			f.Name, c, f.Type, f.Nullable)
	}
	return nil
}

// appendColumn concatenates src onto dst (same dynamic type); a nil dst
// yields src itself.
func appendColumn(dst, src ColumnData) ColumnData {
	if dst == nil {
		return src
	}
	return dst.concat(src)
}
