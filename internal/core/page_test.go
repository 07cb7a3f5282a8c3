package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// A decoded list page's rows may share one backing array, but appending to
// one row must not write into another: every row is capacity-capped.
func TestDecodedListRowsDoNotAlias(t *testing.T) {
	lens := []int{3, 0, 2, 12, 12, 1, 0, 4}
	i64 := listsOf(lens, func(k int) int64 { return int64(k) })
	windows := make(ListInt64Data, len(lens)) // overlapping, so the sparse codec writes deltas
	for i := range windows {
		windows[i] = []int64{int64(i), 100, 101, 102, 103, 104, 105, 106, 107, 108}
	}
	cases := []struct {
		field Field
		data  ColumnData
		check func(t *testing.T, got ColumnData)
	}{
		{Field{Name: "list<int64>", Type: Type{Kind: List, Elem: Int64}}, ListInt64Data(i64),
			func(t *testing.T, got ColumnData) { appendEachRow(t, got.(ListInt64Data), -1) }},
		{Field{Name: "sparse list<int64>", Type: Type{Kind: List, Elem: Int64}, Sparse: true}, windows,
			func(t *testing.T, got ColumnData) { appendEachRow(t, got.(ListInt64Data), -1) }},
		{Field{Name: "list<float32>", Type: Type{Kind: List, Elem: Float32}},
			ListFloat32Data(listsOf(lens, func(k int) float32 { return float32(k) / 4 })),
			func(t *testing.T, got ColumnData) { appendEachRow(t, got.(ListFloat32Data), -1) }},
		{Field{Name: "list<float64>", Type: Type{Kind: List, Elem: Float64}},
			ListFloat64Data(listsOf(lens, func(k int) float64 { return float64(k) / 8 })),
			func(t *testing.T, got ColumnData) { appendEachRow(t, got.(ListFloat64Data), -1) }},
		{Field{Name: "list<binary>", Type: Type{Kind: List, Elem: Binary}},
			ListBytesData(listsOf(lens, func(k int) []byte { return []byte(fmt.Sprint("v", k)) })),
			func(t *testing.T, got ColumnData) { appendEachRow(t, got.(ListBytesData), []byte("appended")) }},
		{Field{Name: "list<list<int64>>", Type: Type{Kind: ListList, Elem: Int64}},
			ListListInt64Data(listsOf(lens, func(k int) []int64 { return i64[k%len(i64)] })),
			func(t *testing.T, got ColumnData) {
				rows := got.(ListListInt64Data)
				appendEachRow(t, rows, []int64{-1})
				for _, inner := range rows {
					appendEachRow(t, inner, -1)
				}
			}},
	}
	for _, c := range cases {
		t.Run(c.field.Name, func(t *testing.T) {
			payload, _, err := encodePage(c.field, c.data, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			got, err := decodePage(c.field, payload, c.data.Len())
			if err != nil {
				t.Fatal(err)
			}
			c.check(t, got)
		})
	}
}

// listsOf builds one list per length, its values val(0), val(1), ... in
// order across all lists.
func listsOf[E any](lens []int, val func(k int) E) [][]E {
	out := make([][]E, len(lens))
	k := 0
	for i, l := range lens {
		out[i] = make([]E, l)
		for j := range out[i] {
			out[i][j] = val(k)
			k++
		}
	}
	return out
}

// appendEachRow appends extra to each row in turn and fails if any other
// row changes.
func appendEachRow[E any](t *testing.T, rows [][]E, extra E) {
	t.Helper()
	for i := range rows {
		before := make([][]E, len(rows))
		for j, r := range rows {
			before[j] = slices.Clone(r)
		}
		_ = append(rows[i], extra)
		for j := range rows {
			if j != i && !reflect.DeepEqual(rows[j], before[j]) {
				t.Fatalf("appending to row %d changed row %d: %v, was %v", i, j, rows[j], before[j])
			}
		}
	}
}
