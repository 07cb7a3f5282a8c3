package enc

import (
	"encoding/binary"

	"bullion/internal/bitutil"
)

// EncodeInts appends an encoded stream for vs to dst, choosing the scheme
// with the cascade selector.
func EncodeInts(dst []byte, vs []int64, opts *Options) ([]byte, error) {
	return encodeDepth(&intKind, dst, vs, opts, 0)
}

// EncodeIntsWith appends an encoded stream using the given scheme. Composite
// schemes still cascade for their sub-streams.
func EncodeIntsWith(dst []byte, id SchemeID, vs []int64, opts *Options) ([]byte, error) {
	return encodeIntsWithDepth(dst, id, vs, opts, 0)
}

// DecodeInts decodes an n-value integer stream.
func DecodeInts(src []byte, n int) ([]int64, error) {
	out := make([]int64, n)
	return DecodeIntsInto(out, src)
}

// DecodeIntsInto decodes len(dst) values from src into dst.
func DecodeIntsInto(dst []int64, src []byte) ([]int64, error) {
	if len(src) == 0 {
		if len(dst) == 0 {
			return dst, nil
		}
		return nil, corruptf("empty stream for %d values", len(dst))
	}
	id := SchemeID(src[0])
	payload := src[1:]
	switch id {
	case Plain:
		return decodePlainInts(dst, payload)
	case BitPack:
		return decodeBitPackInts(dst, payload)
	case Varint:
		return decodeVarints(dst, payload, false)
	case ZigZagVar:
		return decodeVarints(dst, payload, true)
	case RLE:
		return decodeRLEInts(dst, payload)
	case Dict:
		return decodeDictInts(dst, payload)
	case Delta:
		return decodeDeltaInts(dst, payload)
	case DeltaDelta:
		return decodeDeltaDeltaInts(dst, payload)
	case FOR:
		return decodeFORInts(dst, payload)
	case PFOR:
		return decodePFORInts(dst, payload)
	case FastBP128:
		return decodeBP128Ints(dst, payload)
	case Constant:
		return decodeConstantInts(dst, payload)
	case MainlyConst:
		return decodeMainlyConstInts(dst, payload)
	case Huffman:
		return decodeHuffmanInts(dst, payload)
	default:
		return nil, unsupported(id, "an integer")
	}
}

func encodeIntsWithDepth(dst []byte, id SchemeID, vs []int64, opts *Options, depth int) ([]byte, error) {
	dst = append(dst, byte(id))
	switch id {
	case Plain:
		return encodePlainInts(dst, vs), nil
	case BitPack:
		return encodeBitPackInts(dst, vs)
	case Varint:
		return encodeVarints(dst, vs, false)
	case ZigZagVar:
		return encodeVarints(dst, vs, true)
	case RLE:
		return encodeRLEInts(dst, vs, opts, depth)
	case Dict:
		return encodeDictInts(dst, vs, opts, depth)
	case Delta:
		return encodeDeltaInts(dst, vs, opts, depth)
	case DeltaDelta:
		return encodeDeltaDeltaInts(dst, vs, opts, depth)
	case FOR:
		return encodeFORInts(dst, vs)
	case PFOR:
		return encodePFORInts(dst, vs)
	case FastBP128:
		return encodeBP128Ints(dst, vs)
	case Constant:
		return encodeConstantInts(dst, vs)
	case MainlyConst:
		return encodeMainlyConstInts(dst, vs, opts, depth)
	case Huffman:
		return encodeHuffmanInts(dst, vs)
	default:
		return nil, unsupported(id, "an integer")
	}
}

// encodeChildInts encodes vs as a length-prefixed child stream.
func encodeChildInts(dst []byte, vs []int64, opts *Options, depth int) ([]byte, error) {
	child, err := encodeDepth(&intKind, nil, vs, opts, depth)
	if err != nil {
		return nil, err
	}
	return appendChild(dst, child), nil
}

// ---- Plain (Trivial) ----

func encodePlainInts(dst []byte, vs []int64) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

func decodePlainInts(dst []int64, src []byte) ([]int64, error) {
	if len(src) < 8*len(dst) {
		return nil, corruptf("plain ints: have %d bytes, need %d", len(src), 8*len(dst))
	}
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return dst, nil
}

// ---- FixedBitWidth (BitPack) ----
//
// payload := width(1B) packedBits
// Applicable to non-negative inputs only; the selector checks.

func encodeBitPackInts(dst []byte, vs []int64) ([]byte, error) {
	p := getUint64Scratch(len(vs))
	defer putUint64Scratch(p)
	us := *p
	for i, v := range vs {
		if v < 0 {
			return nil, ErrNotApplicable
		}
		us[i] = uint64(v)
	}
	w := bitutil.MaxWidth(us)
	dst = append(dst, byte(w))
	return bitutil.Pack(dst, us, w), nil
}

func decodeBitPackInts(dst []int64, src []byte) ([]int64, error) {
	if len(src) < 1 {
		return nil, corruptf("bitpack: missing width")
	}
	w := int(src[0])
	if err := bitutil.UnpackInt64(dst, src[1:], w, 0); err != nil {
		return nil, corruptf("bitpack: %v", err)
	}
	return dst, nil
}

// ---- Varint (LEB128) / ZigZag ----

func encodeVarints(dst []byte, vs []int64, zigzag bool) ([]byte, error) {
	for _, v := range vs {
		var u uint64
		if zigzag {
			u = bitutil.ZigZag(v)
		} else {
			u = uint64(v)
		}
		dst = binary.AppendUvarint(dst, u)
	}
	return dst, nil
}

func decodeVarints(dst []int64, src []byte, zigzag bool) ([]int64, error) {
	off := 0
	for i := range dst {
		u, sz := binary.Uvarint(src[off:])
		if sz <= 0 {
			return nil, corruptf("varint: truncated at value %d", i)
		}
		off += sz
		if zigzag {
			dst[i] = bitutil.UnZigZag(u)
		} else {
			dst[i] = int64(u)
		}
	}
	return dst, nil
}

// ---- Constant ----

func encodeConstantInts(dst []byte, vs []int64) ([]byte, error) {
	if len(vs) == 0 {
		return binary.AppendVarint(dst, 0), nil
	}
	c := vs[0]
	for _, v := range vs {
		if v != c {
			return nil, ErrNotApplicable
		}
	}
	return binary.AppendVarint(dst, c), nil
}

func decodeConstantInts(dst []int64, src []byte) ([]int64, error) {
	c, sz := binary.Varint(src)
	if sz <= 0 {
		return nil, corruptf("constant: bad value")
	}
	fillInt64(dst, c)
	return dst, nil
}

// fillInt64 sets every element of dst to v, memset-style: seed one element
// and double the initialized prefix with copy, which the runtime turns
// into wide memmove operations instead of a per-value store loop.
func fillInt64(dst []int64, v int64) {
	if len(dst) == 0 {
		return
	}
	if bitutil.ScalarKernels {
		for i := range dst {
			dst[i] = v
		}
		return
	}
	dst[0] = v
	for filled := 1; filled < len(dst); filled *= 2 {
		copy(dst[filled:], dst[:filled])
	}
}

// ---- MainlyConstant (Frequency) ----
//
// payload := constant(varint) nExceptions(uvarint) childPositions childValues

func encodeMainlyConstInts(dst []byte, vs []int64, opts *Options, depth int) ([]byte, error) {
	if len(vs) == 0 {
		return nil, ErrNotApplicable
	}
	c := majorityValue(vs)
	var pos, exc []int64
	for i, v := range vs {
		if v != c {
			pos = append(pos, int64(i))
			exc = append(exc, v)
		}
	}
	dst = binary.AppendVarint(dst, c)
	dst = binary.AppendUvarint(dst, uint64(len(pos)))
	var err error
	if dst, err = encodeChildInts(dst, pos, opts, depth+1); err != nil {
		return nil, err
	}
	return encodeChildInts(dst, exc, opts, depth+1)
}

func decodeMainlyConstInts(dst []int64, src []byte) ([]int64, error) {
	c, sz := binary.Varint(src)
	if sz <= 0 {
		return nil, corruptf("mainlyconst: bad constant")
	}
	src = src[sz:]
	nExc, sz := binary.Uvarint(src)
	if sz <= 0 || nExc > uint64(len(dst)) {
		return nil, corruptf("mainlyconst: bad exception count")
	}
	src = src[sz:]
	posStream, src, err := readChild(src)
	if err != nil {
		return nil, err
	}
	excStream, _, err := readChild(src)
	if err != nil {
		return nil, err
	}
	pp := getInt64Scratch(int(nExc))
	defer putInt64Scratch(pp)
	pos, err := DecodeIntsInto(*pp, posStream)
	if err != nil {
		return nil, err
	}
	ep := getInt64Scratch(int(nExc))
	defer putInt64Scratch(ep)
	exc, err := DecodeIntsInto(*ep, excStream)
	if err != nil {
		return nil, err
	}
	fillInt64(dst, c)
	for i, p := range pos {
		if p < 0 || p >= int64(len(dst)) {
			return nil, corruptf("mainlyconst: exception position %d out of range", p)
		}
		dst[p] = exc[i]
	}
	return dst, nil
}

// majorityValue returns the most frequent value in vs (ties arbitrary).
func majorityValue(vs []int64) int64 {
	counts := make(map[int64]int, 64)
	best, bestN := vs[0], 0
	for _, v := range vs {
		counts[v]++
		if counts[v] > bestN {
			best, bestN = v, counts[v]
		}
	}
	return best
}

// intStats summarizes a []int64 for the selector.
type intStats struct {
	n          int
	min, max   int64
	distinct   int  // exact up to cap, else cap+1
	runs       int  // number of value runs
	sorted     bool // non-decreasing
	hasNeg     bool
	majorityN  int   // occurrences of the most common value
	deltaMin   int64 // min of successive deltas (valid when n > 1)
	deltaMax   int64
	deltaSafe  bool // no delta overflowed int64
	rangeWidth int  // bit width of (max-min), 65 on overflow
	// counts is the histogram the distinct count comes from, exact while
	// distinct <= distinctCap.
	counts map[int64]int
}

const distinctCap = 1024

func statsOf(vs []int64) intStats {
	s := intStats{n: len(vs), sorted: true, deltaSafe: true}
	if len(vs) == 0 {
		return s
	}
	s.min, s.max = vs[0], vs[0]
	s.runs = 1
	counts := make(map[int64]int, min(len(vs), distinctCap+1))
	counts[vs[0]] = 1
	s.majorityN = 1
	for i := 1; i < len(vs); i++ {
		v := vs[i]
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
		if v != vs[i-1] {
			s.runs++
		}
		if v < vs[i-1] {
			s.sorted = false
		}
		d, ok := subOverflow(v, vs[i-1])
		if !ok {
			s.deltaSafe = false
		} else {
			if i == 1 || d < s.deltaMin {
				s.deltaMin = d
			}
			if i == 1 || d > s.deltaMax {
				s.deltaMax = d
			}
		}
		if len(counts) <= distinctCap {
			counts[v]++
			if counts[v] > s.majorityN {
				s.majorityN = counts[v]
			}
		}
	}
	s.distinct = len(counts)
	s.counts = counts
	s.hasNeg = s.min < 0
	if r, ok := subOverflow(s.max, s.min); ok {
		s.rangeWidth = bitutil.WidthOf(uint64(r))
	} else {
		s.rangeWidth = 65
	}
	return s
}

// subOverflow computes a-b, reporting whether it fit in int64.
func subOverflow(a, b int64) (int64, bool) {
	d := a - b
	// Overflow iff a and b have different signs and d's sign differs from a's.
	if (a >= 0) != (b >= 0) && (d >= 0) != (a >= 0) {
		return 0, false
	}
	return d, true
}
