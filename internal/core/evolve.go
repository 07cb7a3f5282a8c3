package core

import "fmt"

// Schema evolution (paper §1: production datasets see "several hundred
// modifications monthly" — features in beta, experimental, active, and
// deprecated stages). Training jobs pin a feature projection; files
// written before a feature existed must still serve it (as default
// values), and deprecated features silently vanish from old projections
// when dropped from the requested schema.

// ProjectEvolved reads the requested fields from the file. Fields present
// in the file are read normally (their stored type must match); fields the
// file predates are materialized as default-valued columns of the
// requested type. This is the read-side half of additive schema evolution;
// dropping a feature is simply not requesting it.
func (f *File) ProjectEvolved(fields []Field) (*Batch, error) {
	nRows := int(f.NumLiveRows())
	cols := make([]ColumnData, len(fields))
	// Stored columns are read together in one pass: stored[j] lands at
	// output position at[j].
	var stored, at []int
	for i, want := range fields {
		ci, ok := f.LookupColumn(want.Name)
		if !ok {
			cols[i] = defaultColumn(want, nRows)
			continue
		}
		have := f.FieldByIndex(ci)
		if have.Type != want.Type || have.Nullable != want.Nullable {
			return nil, fmt.Errorf("core: column %q evolved incompatibly: stored %v (nullable=%v), requested %v (nullable=%v)",
				want.Name, have.Type, have.Nullable, want.Type, want.Nullable)
		}
		stored, at = append(stored, ci), append(at, i)
	}
	read, err := f.collect(stored, nil)
	if err != nil {
		return nil, err
	}
	for j, i := range at {
		cols[i] = read.Columns[j]
	}
	schema := &Schema{Fields: fields}
	return &Batch{Schema: schema, Columns: cols}, nil
}

// defaultColumn materializes n default-valued rows of the field's type:
// zero for scalars, null for nullable columns, empty for lists and
// strings. ProjectEvolved fills fields the file predates with it; n = 0
// is the typed empty column.
func defaultColumn(f Field, n int) ColumnData {
	if d := fixedType(f); d != nil {
		return d.grow(n)
	}
	switch {
	case f.Type.Kind == Binary || f.Type.Kind == String:
		return make(BytesData, n)
	case f.Type.Kind == List && f.Type.Elem == Int64:
		return make(ListInt64Data, n)
	case f.Type.Kind == List && f.Type.Elem == Float32:
		return make(ListFloat32Data, n)
	case f.Type.Kind == List && f.Type.Elem == Float64:
		return make(ListFloat64Data, n)
	case f.Type.Kind == List && f.Type.Elem == Binary:
		return make(ListBytesData, n)
	default:
		return make(ListListInt64Data, n)
	}
}
