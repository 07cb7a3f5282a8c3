package enc

import (
	"encoding/binary"
	"sort"

	"bullion/internal/bitutil"
)

// Dictionary (Table 2): unique values become integer codes. The dictionary
// is stored in the stream header (the paper stores it in the footer — the
// framing is the page's concern; the bytes are identical) and the code
// sub-column cascades, typically into bit-packing or RLE.
//
// Per §2.1, every dictionary reserves a mask entry: code len(dict) denotes
// a compliance-masked value. Encoders never emit it; the Level-2 deletion
// path repoints codes at it in place. Decoders materialize it as
// DictMaskValue.
//
// payload := dictLen(uvarint) childDictValues childCodes

// DictMaskValue is the value decoded for compliance-masked dictionary codes.
const DictMaskValue int64 = 0

func encodeDictInts(dst []byte, vs []int64, opts *Options, depth int) ([]byte, error) {
	uniq := make(map[int64]int64, 64)
	var dictVals []int64
	for _, v := range vs {
		if _, ok := uniq[v]; !ok {
			uniq[v] = 0
			dictVals = append(dictVals, v)
		}
	}
	// Sorted dictionaries compress better and make encoding deterministic.
	sort.Slice(dictVals, func(i, j int) bool { return dictVals[i] < dictVals[j] })
	for i, v := range dictVals {
		uniq[v] = int64(i)
	}
	codes := make([]int64, len(vs))
	for i, v := range vs {
		codes[i] = uniq[v]
	}
	dst = binary.AppendUvarint(dst, uint64(len(dictVals)))
	var err error
	if dst, err = encodeChildInts(dst, dictVals, opts, depth+1); err != nil {
		return nil, err
	}
	// Codes must remain in-place maskable at Level 2: the mask code is
	// len(dict), one beyond the largest real code, so codes are bit-packed
	// at a width wide enough to also represent the mask code rather than
	// letting the cascade pick a scheme that cannot hold an unseen value.
	child, err := encodeBitPackWidth(nil, codes, maskCodeWidth(len(dictVals)))
	if err != nil {
		return nil, err
	}
	return appendChild(dst, child), nil
}

// maskCodeWidth is the bit width holding codes 0..dictLen inclusive
// (dictLen itself being the reserved mask code).
func maskCodeWidth(dictLen int) int {
	w := 1
	for (1 << uint(w)) <= dictLen {
		w++
	}
	return w
}

// encodeBitPackWidth emits a complete BitPack stream at an explicit width.
func encodeBitPackWidth(dst []byte, vs []int64, w int) ([]byte, error) {
	p := getUint64Scratch(len(vs))
	defer putUint64Scratch(p)
	us := *p
	for i, v := range vs {
		if v < 0 || bitutil.WidthOf(uint64(v)) > w {
			return nil, ErrNotApplicable
		}
		us[i] = uint64(v)
	}
	dst = append(dst, byte(BitPack), byte(w))
	return bitutil.Pack(dst, us, w), nil
}

func decodeDictInts(dst []int64, src []byte) ([]int64, error) {
	dictLen, sz := binary.Uvarint(src)
	if sz <= 0 {
		return nil, corruptf("dict: bad dictionary length")
	}
	// A dictionary cannot have more distinct values than rows; hostile
	// lengths must not drive allocations.
	if dictLen > uint64(len(dst))+1 {
		return nil, corruptf("dict: dictionary of %d entries for %d values", dictLen, len(dst))
	}
	src = src[sz:]
	dictStream, src, err := readChild(src)
	if err != nil {
		return nil, err
	}
	codeStream, _, err := readChild(src)
	if err != nil {
		return nil, err
	}
	dp := getInt64Scratch(int(dictLen))
	defer putInt64Scratch(dp)
	dictVals, err := DecodeIntsInto(*dp, dictStream)
	if err != nil {
		return nil, err
	}
	// The codes decode straight into dst and are mapped in place.
	codes, err := DecodeIntsInto(dst, codeStream)
	if err != nil {
		return nil, err
	}
	for i, c := range codes {
		switch {
		case c >= 0 && c < int64(dictLen):
			dst[i] = dictVals[c]
		case c == int64(dictLen): // reserved compliance mask entry
			dst[i] = DictMaskValue
		default:
			return nil, corruptf("dict: code %d out of range [0,%d]", c, dictLen)
		}
	}
	return dst, nil
}
