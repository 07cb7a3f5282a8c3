// Package legacy implements a Parquet-like columnar file: block-encoded
// data pages plus a footer serialized with a Thrift-compact-protocol-style
// encoding that must be deserialized in full — every column's metadata
// struct is allocated and parsed before the first byte of data can be
// located. It is the behavioural stand-in for Apache Parquet in the
// Figure 5 (wide-table metadata) and deletion experiments.
package legacy

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Thrift-compact-style wire types (subset).
const (
	tStop   = 0
	tTrue   = 1
	tFalse  = 2
	tI32    = 5
	tI64    = 6
	tBinary = 8
	tList   = 9
	tStruct = 12
)

var errThrift = errors.New("legacy: malformed thrift metadata")

// tWriter serializes compact-protocol structs.
type tWriter struct {
	buf    []byte
	lastID []int // field-id stack, one per open struct
}

func newTWriter() *tWriter { return &tWriter{lastID: []int{0}} }

func (w *tWriter) fieldHeader(id, typ int) {
	top := len(w.lastID) - 1
	delta := id - w.lastID[top]
	if delta > 0 && delta <= 15 {
		w.buf = append(w.buf, byte(delta<<4|typ))
	} else {
		w.buf = append(w.buf, byte(typ))
		w.buf = binary.AppendVarint(w.buf, int64(id))
	}
	w.lastID[top] = id
}

func (w *tWriter) writeI32(id int, v int32) {
	w.fieldHeader(id, tI32)
	w.buf = binary.AppendVarint(w.buf, int64(v))
}

func (w *tWriter) writeI64(id int, v int64) {
	w.fieldHeader(id, tI64)
	w.buf = binary.AppendVarint(w.buf, v)
}

func (w *tWriter) writeBinary(id int, v []byte) {
	w.fieldHeader(id, tBinary)
	w.buf = binary.AppendUvarint(w.buf, uint64(len(v)))
	w.buf = append(w.buf, v...)
}

func (w *tWriter) writeBool(id int, v bool) {
	if v {
		w.fieldHeader(id, tTrue)
	} else {
		w.fieldHeader(id, tFalse)
	}
}

// beginList writes a list field header; elements follow via the elem
// callbacks.
func (w *tWriter) beginList(id, elemType, n int) {
	w.fieldHeader(id, tList)
	if n < 15 {
		w.buf = append(w.buf, byte(n<<4|elemType))
	} else {
		w.buf = append(w.buf, byte(0xF0|elemType))
		w.buf = binary.AppendUvarint(w.buf, uint64(n))
	}
}

func (w *tWriter) beginStructField(id int) {
	w.fieldHeader(id, tStruct)
	w.beginStructElem()
}

// beginStructElem opens a struct in list-element position (no field header).
func (w *tWriter) beginStructElem() {
	w.lastID = append(w.lastID, 0)
}

func (w *tWriter) endStruct() {
	w.buf = append(w.buf, tStop)
	w.lastID = w.lastID[:len(w.lastID)-1]
}

// tReader deserializes compact-protocol structs.
type tReader struct {
	buf    []byte
	pos    int
	lastID []int
}

func newTReader(buf []byte) *tReader { return &tReader{buf: buf, lastID: []int{0}} }

func (r *tReader) byte() (byte, error) {
	if r.pos >= len(r.buf) {
		return 0, errThrift
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

func (r *tReader) varint() (int64, error) {
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		return 0, errThrift
	}
	r.pos += n
	return v, nil
}

func (r *tReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, errThrift
	}
	r.pos += n
	return v, nil
}

// fieldHeader reads the next field header; returns (0,tStop,nil) at the end
// of the struct.
func (r *tReader) fieldHeader() (id, typ int, err error) {
	b, err := r.byte()
	if err != nil {
		return 0, 0, err
	}
	if b == tStop {
		return 0, tStop, nil
	}
	typ = int(b & 0x0F)
	delta := int(b >> 4)
	top := len(r.lastID) - 1
	if delta == 0 {
		id64, err := r.varint()
		if err != nil {
			return 0, 0, err
		}
		id = int(id64)
	} else {
		id = r.lastID[top] + delta
	}
	r.lastID[top] = id
	return id, typ, nil
}

func (r *tReader) readBinary() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.buf)-r.pos) {
		return nil, errThrift
	}
	out := make([]byte, n) // allocate, as a real thrift decoder does
	copy(out, r.buf[r.pos:r.pos+int(n)])
	r.pos += int(n)
	return out, nil
}

func (r *tReader) listHeader() (elemType, n int, err error) {
	b, err := r.byte()
	if err != nil {
		return 0, 0, err
	}
	elemType = int(b & 0x0F)
	n = int(b >> 4)
	if n == 15 {
		n64, err := r.uvarint()
		if err != nil {
			return 0, 0, err
		}
		n = int(n64)
	}
	return elemType, n, nil
}

func (r *tReader) beginStruct() { r.lastID = append(r.lastID, 0) }
func (r *tReader) endStruct()   { r.lastID = r.lastID[:len(r.lastID)-1] }

// skip consumes a value of the given type (unknown fields).
func (r *tReader) skip(typ int) error {
	switch typ {
	case tTrue, tFalse:
		return nil
	case tI32, tI64:
		_, err := r.varint()
		return err
	case tBinary:
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		if n > uint64(len(r.buf)-r.pos) {
			return errThrift
		}
		r.pos += int(n)
		return nil
	case tList:
		elemType, n, err := r.listHeader()
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := r.skip(elemType); err != nil {
				return err
			}
		}
		return nil
	case tStruct:
		r.beginStruct()
		defer r.endStruct()
		for {
			_, ft, err := r.fieldHeader()
			if err != nil {
				return err
			}
			if ft == tStop {
				return nil
			}
			if err := r.skip(ft); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("%w: unknown type %d", errThrift, typ)
	}
}
