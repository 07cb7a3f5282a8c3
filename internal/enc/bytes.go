package enc

import (
	"bytes"
	"encoding/binary"
	"math"
	"sort"
)

// EncodeBytes appends an encoded stream for the byte-string column vs,
// choosing the scheme with the cascade selector.
func EncodeBytes(dst []byte, vs [][]byte, opts *Options) ([]byte, error) {
	return encodeDepth(&bytesKind, dst, vs, opts, 0)
}

// EncodeBytesWith appends an encoded stream using the given scheme.
func EncodeBytesWith(dst []byte, id SchemeID, vs [][]byte, opts *Options) ([]byte, error) {
	return encodeBytesWithDepth(dst, id, vs, opts, 0)
}

// DecodeBytes decodes an n-value byte-string stream. The returned values
// may alias src.
func DecodeBytes(src []byte, n int) ([][]byte, error) {
	if len(src) == 0 && n == 0 {
		return nil, nil
	}
	return DecodeBytesInto(make([][]byte, n), src)
}

// DecodeBytesInto decodes len(dst) values from src, reusing dst's outer
// slice. Every element is overwritten, so callers may pass recycled
// slices; the decoded values themselves may alias src.
func DecodeBytesInto(dst [][]byte, src []byte) ([][]byte, error) {
	if len(src) == 0 {
		if len(dst) == 0 {
			return dst, nil
		}
		return nil, corruptf("empty stream for %d strings", len(dst))
	}
	id := SchemeID(src[0])
	payload := src[1:]
	switch id {
	case PlainB:
		return decodePlainBytes(dst, payload)
	case DictB:
		return decodeDictBytes(dst, payload)
	case ChunkedB:
		return decodeChunkedBytes(dst, payload)
	case ConstantB:
		return decodeConstantBytes(dst, payload)
	default:
		return nil, unsupported(id, "a bytes")
	}
}

func encodeBytesWithDepth(dst []byte, id SchemeID, vs [][]byte, opts *Options, depth int) ([]byte, error) {
	dst = append(dst, byte(id))
	switch id {
	case PlainB:
		return encodePlainBytes(dst, vs), nil
	case DictB:
		return encodeDictBytes(dst, vs, opts, depth)
	case ChunkedB:
		return encodeChunkedBytes(dst, vs, opts, depth)
	case ConstantB:
		return encodeConstantBytes(dst, vs)
	default:
		return nil, unsupported(id, "a bytes")
	}
}

// ---- Plain: uvarint length + raw bytes per value ----

func encodePlainBytes(dst []byte, vs [][]byte) []byte {
	for _, v := range vs {
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	}
	return dst
}

func decodePlainBytes(dst [][]byte, src []byte) ([][]byte, error) {
	for i := range dst {
		l, sz := binary.Uvarint(src)
		if sz <= 0 || l > uint64(len(src)-sz) {
			return nil, corruptf("plain bytes: truncated at value %d", i)
		}
		dst[i] = src[sz : sz+int(l)]
		src = src[sz+int(l):]
	}
	return dst, nil
}

// ---- Constant ----

func encodeConstantBytes(dst []byte, vs [][]byte) ([]byte, error) {
	if len(vs) == 0 {
		return binary.AppendUvarint(dst, 0), nil
	}
	for _, v := range vs {
		if !bytes.Equal(v, vs[0]) {
			return nil, ErrNotApplicable
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(vs[0])))
	return append(dst, vs[0]...), nil
}

func decodeConstantBytes(dst [][]byte, src []byte) ([][]byte, error) {
	l, sz := binary.Uvarint(src)
	if sz <= 0 || l > uint64(len(src)-sz) {
		return nil, corruptf("constant bytes: bad value")
	}
	v := src[sz : sz+int(l)]
	for i := range dst {
		dst[i] = v
	}
	return dst, nil
}

// ---- Dictionary ----
//
// payload := dictLen(uvarint) dictBlob(plain bytes) childCodes
//
// Codes are bit-packed wide enough for the reserved mask code (see Dict for
// integers); masked codes decode to an empty string.

func encodeDictBytes(dst []byte, vs [][]byte, opts *Options, depth int) ([]byte, error) {
	idx := make(map[string]int64, 64)
	var uniq []string
	for _, v := range vs {
		s := string(v)
		if _, ok := idx[s]; !ok {
			idx[s] = 0
			uniq = append(uniq, s)
		}
	}
	sort.Strings(uniq)
	for i, s := range uniq {
		idx[s] = int64(i)
	}
	codes := make([]int64, len(vs))
	for i, v := range vs {
		codes[i] = idx[string(v)]
	}
	dst = binary.AppendUvarint(dst, uint64(len(uniq)))
	blobs := make([][]byte, len(uniq))
	for i, s := range uniq {
		blobs[i] = []byte(s)
	}
	dict := encodePlainBytes(nil, blobs)
	dst = binary.AppendUvarint(dst, uint64(len(dict)))
	dst = append(dst, dict...)
	child, err := encodeBitPackWidth(nil, codes, maskCodeWidth(len(uniq)))
	if err != nil {
		return nil, err
	}
	return appendChild(dst, child), nil
}

func decodeDictBytes(dst [][]byte, src []byte) ([][]byte, error) {
	n := len(dst)
	dictLen, sz := binary.Uvarint(src)
	if sz <= 0 {
		return nil, corruptf("dictb: bad dict length")
	}
	if dictLen > uint64(n)+1 {
		return nil, corruptf("dictb: dictionary of %d entries for %d values", dictLen, n)
	}
	src = src[sz:]
	blobLen, sz := binary.Uvarint(src)
	if sz <= 0 || blobLen > uint64(len(src)-sz) {
		return nil, corruptf("dictb: bad blob length")
	}
	blobs, err := decodePlainBytes(make([][]byte, dictLen), src[sz:sz+int(blobLen)])
	if err != nil {
		return nil, err
	}
	codeStream, _, err := readChild(src[sz+int(blobLen):])
	if err != nil {
		return nil, err
	}
	cp := getInt64Scratch(n)
	defer putInt64Scratch(cp)
	codes, err := DecodeIntsInto(*cp, codeStream)
	if err != nil {
		return nil, err
	}
	for i, c := range codes {
		switch {
		case c >= 0 && c < int64(dictLen):
			dst[i] = blobs[c]
		case c == int64(dictLen): // compliance mask entry
			dst[i] = nil
		default:
			return nil, corruptf("dictb: code %d out of range", c)
		}
	}
	return dst, nil
}

// ---- Chunked: flate over concatenation + cascaded length sub-column ----

func encodeChunkedBytes(dst []byte, vs [][]byte, opts *Options, depth int) ([]byte, error) {
	lens := make([]int64, len(vs))
	total := 0
	for i, v := range vs {
		lens[i] = int64(len(v))
		total += len(v)
	}
	cat := make([]byte, 0, total)
	for _, v := range vs {
		cat = append(cat, v...)
	}
	var err error
	if dst, err = encodeChildInts(dst, lens, opts, depth+1); err != nil {
		return nil, err
	}
	dst = binary.AppendUvarint(dst, uint64(total))
	return appendFlateChunks(dst, cat)
}

func decodeChunkedBytes(dst [][]byte, src []byte) ([][]byte, error) {
	lenStream, src, err := readChild(src)
	if err != nil {
		return nil, err
	}
	lp := getInt64Scratch(len(dst))
	defer putInt64Scratch(lp)
	lens, err := DecodeIntsInto(*lp, lenStream)
	if err != nil {
		return nil, err
	}
	total, sz := binary.Uvarint(src)
	if sz <= 0 || total > math.MaxInt {
		return nil, corruptf("chunkedb: bad total length")
	}
	// The lengths must add up to total exactly; each step is checked
	// against what is left, so the sum cannot overflow.
	left := total
	for _, l := range lens {
		if l < 0 || uint64(l) > left {
			return nil, corruptf("chunkedb: lengths exceed total %d", total)
		}
		left -= uint64(l)
	}
	if left != 0 {
		return nil, corruptf("chunkedb: lengths sum to %d, total %d", total-left, total)
	}
	cat, err := readFlateChunks(src[sz:], int(total))
	if err != nil {
		return nil, err
	}
	off := 0
	for i, l := range lens {
		dst[i] = cat[off : off+int(l)]
		off += int(l)
	}
	return dst, nil
}
