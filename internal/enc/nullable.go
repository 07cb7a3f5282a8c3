package enc

import (
	"encoding/binary"

	"bullion/internal/bitutil"
)

// Null handling (Table 2: Nullable, SparseBool-as-subcolumn, Sentinel).
//
// Nullable wraps any integer value stream with a validity sub-column: one
// stream of null indicators (typically SparseBool — nulls are rare in
// feature data) plus a dense stream of the non-null values.
//
// Sentinel instead designates an unused integer as the in-band null marker,
// keeping a single sub-column; it applies only when the domain has a free
// value.
//
//	Nullable payload := n(uvarint) childValidity(bool stream) childValues
//	Sentinel payload := sentinel(varint) childValues

// EncodeNullableInts encodes vs where valid.Get(i) reports whether vs[i] is
// non-null. Null positions in vs are ignored.
func EncodeNullableInts(dst []byte, vs []int64, valid *bitutil.Bitmap, opts *Options) ([]byte, error) {
	if valid.Len() != len(vs) {
		return nil, corruptf("nullable: validity length %d != values %d", valid.Len(), len(vs))
	}
	// Prefer Sentinel when the value domain leaves a gap; otherwise wrap.
	if s, ok := findSentinel(vs, valid); ok && opts.allows(Sentinel) {
		return encodeSentinelInts(dst, vs, valid, s, opts)
	}
	return encodeNullableInts(dst, vs, valid, opts)
}

// DecodeNullableInts decodes an n-value nullable stream, returning the
// values (null positions hold 0) and the validity bitmap.
func DecodeNullableInts(src []byte, n int) ([]int64, *bitutil.Bitmap, error) {
	vals := make([]int64, n)
	vp := getBoolScratch(n)
	defer putBoolScratch(vp)
	if err := DecodeNullableIntsInto(vals, *vp, src); err != nil {
		return nil, nil, err
	}
	valid := bitutil.NewBitmap(n)
	for i, ok := range *vp {
		if ok {
			valid.Set(i)
		}
	}
	return vals, valid, nil
}

// DecodeNullableIntsInto decodes a nullable stream of len(vals) values
// into vals and valid (which must have equal length); null positions hold
// 0. Every element of both slices is overwritten, so callers may pass
// recycled slices.
func DecodeNullableIntsInto(vals []int64, valid []bool, src []byte) error {
	if len(valid) != len(vals) {
		return corruptf("nullable: validity length %d != values %d", len(valid), len(vals))
	}
	if len(src) == 0 {
		return corruptf("nullable: empty stream")
	}
	id := SchemeID(src[0])
	payload := src[1:]
	switch id {
	case Nullable:
		return decodeNullableIntsInto(vals, valid, payload)
	case Sentinel:
		return decodeSentinelIntsInto(vals, valid, payload)
	default:
		// A plain value stream: everything valid.
		if _, err := DecodeIntsInto(vals, src); err != nil {
			return err
		}
		for i := range valid {
			valid[i] = true
		}
		return nil
	}
}

func encodeNullableInts(dst []byte, vs []int64, valid *bitutil.Bitmap, opts *Options) ([]byte, error) {
	dst = append(dst, byte(Nullable))
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	indicators := make([]bool, len(vs))
	var dense []int64
	for i, v := range vs {
		if valid.Get(i) {
			indicators[i] = true
			dense = append(dense, v)
		}
	}
	validityStream, err := EncodeBools(nil, indicators, opts)
	if err != nil {
		return nil, err
	}
	dst = appendChild(dst, validityStream)
	return encodeChildInts(dst, dense, opts, 1)
}

func decodeNullableIntsInto(vals []int64, valid []bool, src []byte) error {
	n := len(vals)
	n64, sz := binary.Uvarint(src)
	if sz <= 0 || int(n64) != n {
		return corruptf("nullable: count mismatch: stream %d, caller %d", n64, n)
	}
	src = src[sz:]
	validityStream, src, err := readChild(src)
	if err != nil {
		return err
	}
	valueStream, _, err := readChild(src)
	if err != nil {
		return err
	}
	if _, err := DecodeBoolsInto(valid, validityStream); err != nil {
		return err
	}
	nDense := 0
	for _, ok := range valid {
		if ok {
			nDense++
		}
	}
	dp := getInt64Scratch(nDense)
	defer putInt64Scratch(dp)
	dense, err := DecodeIntsInto(*dp, valueStream)
	if err != nil {
		return err
	}
	d := 0
	for i, ok := range valid {
		if ok {
			vals[i] = dense[d]
			d++
		} else {
			vals[i] = 0
		}
	}
	return nil
}

// findSentinel looks for a value absent from the valid values of vs,
// preferring small magnitudes so downstream varint/FOR stay cheap.
func findSentinel(vs []int64, valid *bitutil.Bitmap) (int64, bool) {
	present := make(map[int64]bool, len(vs))
	for i, v := range vs {
		if valid.Get(i) {
			present[v] = true
		}
	}
	for _, cand := range []int64{-1, 0, -9223372036854775808, 9223372036854775807} {
		if !present[cand] {
			return cand, true
		}
	}
	return 0, false
}

func encodeSentinelInts(dst []byte, vs []int64, valid *bitutil.Bitmap, sentinel int64, opts *Options) ([]byte, error) {
	dst = append(dst, byte(Sentinel))
	dst = binary.AppendVarint(dst, sentinel)
	filled := make([]int64, len(vs))
	for i, v := range vs {
		if valid.Get(i) {
			filled[i] = v
		} else {
			filled[i] = sentinel
		}
	}
	return encodeChildInts(dst, filled, opts, 1)
}

func decodeSentinelIntsInto(vals []int64, valid []bool, src []byte) error {
	sentinel, sz := binary.Varint(src)
	if sz <= 0 {
		return corruptf("sentinel: bad sentinel value")
	}
	valueStream, _, err := readChild(src[sz:])
	if err != nil {
		return err
	}
	if _, err := DecodeIntsInto(vals, valueStream); err != nil {
		return err
	}
	for i, v := range vals {
		if v != sentinel {
			valid[i] = true
		} else {
			valid[i] = false
			vals[i] = 0
		}
	}
	return nil
}
