package enc

import (
	"encoding/binary"
	"math/bits"
	"sort"

	"bullion/internal/bitutil"
)

// EncodeBools appends an encoded stream for the boolean column vs, choosing
// between bit-packing, sparse position lists, and roaring containers by
// density.
func EncodeBools(dst []byte, vs []bool, opts *Options) ([]byte, error) {
	id := chooseBoolScheme(vs, opts)
	return EncodeBoolsWith(dst, id, vs)
}

// EncodeBoolsWith appends an encoded stream using the given scheme.
func EncodeBoolsWith(dst []byte, id SchemeID, vs []bool) ([]byte, error) {
	dst = append(dst, byte(id))
	switch id {
	case PlainBool:
		return encodePlainBools(dst, vs), nil
	case SparseBool:
		return encodeSparseBools(dst, vs), nil
	case Roaring:
		return encodeRoaringBools(dst, vs), nil
	default:
		return nil, unsupported(id, "a bool")
	}
}

// DecodeBools decodes an n-value boolean stream.
func DecodeBools(src []byte, n int) ([]bool, error) {
	if len(src) == 0 && n == 0 {
		return nil, nil
	}
	return DecodeBoolsInto(make([]bool, n), src)
}

// DecodeBoolsInto decodes len(dst) values from src into dst. Every element
// of dst is overwritten, so callers may pass recycled slices.
func DecodeBoolsInto(dst []bool, src []byte) ([]bool, error) {
	if len(src) == 0 {
		if len(dst) == 0 {
			return dst, nil
		}
		return nil, corruptf("empty stream for %d bools", len(dst))
	}
	id := SchemeID(src[0])
	payload := src[1:]
	switch id {
	case PlainBool:
		return decodePlainBools(dst, payload)
	case SparseBool:
		return decodeSparseBools(dst, payload)
	case Roaring:
		return decodeRoaringBools(dst, payload)
	default:
		return nil, unsupported(id, "a bool")
	}
}

func chooseBoolScheme(vs []bool, opts *Options) SchemeID {
	ones := 0
	for _, v := range vs {
		if v {
			ones++
		}
	}
	minority := ones
	if len(vs)-ones < minority {
		minority = len(vs) - ones
	}
	// SparseBool: 4B/position beats 1 bit/value below ~3% density.
	if opts.allows(SparseBool) && len(vs) > 0 && minority*32 < len(vs) {
		return SparseBool
	}
	if opts.allows(Roaring) && len(vs) >= 4096 {
		return Roaring
	}
	if opts.allows(PlainBool) {
		return PlainBool
	}
	return PlainBool
}

// ---- PlainBool: bit-packed ----

func encodePlainBools(dst []byte, vs []bool) []byte {
	b := bitutil.NewBitmap(len(vs))
	for i, v := range vs {
		if v {
			b.Set(i)
		}
	}
	for _, w := range b.Words() {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

func decodePlainBools(dst []bool, src []byte) ([]bool, error) {
	words := (len(dst) + 63) / 64
	if len(src) < words*8 {
		return nil, corruptf("plainbool: have %d bytes, need %d", len(src), words*8)
	}
	for i := range dst {
		w := binary.LittleEndian.Uint64(src[(i>>6)*8:])
		dst[i] = w&(1<<uint(i&63)) != 0
	}
	return dst, nil
}

// ---- SparseBool: polarity bit + positions of the rare value ----
//
// payload := polarity(1B: the rare value) nPos(uvarint) positions(uvarint deltas)

func encodeSparseBools(dst []byte, vs []bool) []byte {
	ones := 0
	for _, v := range vs {
		if v {
			ones++
		}
	}
	rareIsTrue := ones*2 <= len(vs)
	var positions []int
	for i, v := range vs {
		if v == rareIsTrue {
			positions = append(positions, i)
		}
	}
	pol := byte(0)
	if rareIsTrue {
		pol = 1
	}
	dst = append(dst, pol)
	dst = binary.AppendUvarint(dst, uint64(len(positions)))
	prev := 0
	for _, p := range positions {
		dst = binary.AppendUvarint(dst, uint64(p-prev))
		prev = p
	}
	return dst
}

func decodeSparseBools(dst []bool, src []byte) ([]bool, error) {
	n := len(dst)
	if len(src) < 1 {
		return nil, corruptf("sparsebool: missing polarity")
	}
	rareIsTrue := src[0] == 1
	src = src[1:]
	nPos, sz := binary.Uvarint(src)
	if sz <= 0 || nPos > uint64(n) {
		return nil, corruptf("sparsebool: bad position count")
	}
	src = src[sz:]
	// Fill with the common value first: dst may be a recycled slice.
	for i := range dst {
		dst[i] = !rareIsTrue
	}
	pos := uint64(0)
	for i := uint64(0); i < nPos; i++ {
		d, sz := binary.Uvarint(src)
		if sz <= 0 {
			return nil, corruptf("sparsebool: truncated positions")
		}
		src = src[sz:]
		// Accumulate unsigned and reject wrap-around: a hostile delta must
		// not turn into a negative index.
		if pos += d; pos < d || pos >= uint64(n) {
			return nil, corruptf("sparsebool: position %d out of range", pos)
		}
		dst[pos] = rareIsTrue
	}
	return dst, nil
}

// ---- Roaring (Table 2, [13]) ----
//
// 16-bit-keyed containers over the set-bit positions; each container is the
// cheapest of an array (sorted uint16s), a bitmap (8 KB), or run list.
//
// payload := nContainers(uvarint)
//            { key(2B) type(1B) cardinality(uvarint) containerBytes }*

const (
	roaringArray  = 0
	roaringBitmap = 1
	roaringRun    = 2
)

func encodeRoaringBools(dst []byte, vs []bool) []byte {
	// Group set positions by high 16 bits.
	byKey := map[uint16][]uint16{}
	var keys []uint16
	for i, v := range vs {
		if !v {
			continue
		}
		k := uint16(i >> 16)
		if _, ok := byKey[k]; !ok {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], uint16(i&0xFFFF))
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		lows := byKey[k] // already sorted: produced in index order
		dst = binary.LittleEndian.AppendUint16(dst, k)
		// Count runs to decide representation.
		runs := 0
		for i := 0; i < len(lows); {
			j := i + 1
			for j < len(lows) && lows[j] == lows[j-1]+1 {
				j++
			}
			runs++
			i = j
		}
		arrCost := 2 * len(lows)
		bmpCost := 8192
		runCost := 4 * runs
		switch {
		case runCost <= arrCost && runCost <= bmpCost:
			dst = append(dst, roaringRun)
			dst = binary.AppendUvarint(dst, uint64(runs))
			for i := 0; i < len(lows); {
				j := i + 1
				for j < len(lows) && lows[j] == lows[j-1]+1 {
					j++
				}
				dst = binary.LittleEndian.AppendUint16(dst, lows[i])
				dst = binary.LittleEndian.AppendUint16(dst, uint16(j-i-1)) // length-1
				i = j
			}
		case arrCost <= bmpCost:
			dst = append(dst, roaringArray)
			dst = binary.AppendUvarint(dst, uint64(len(lows)))
			for _, l := range lows {
				dst = binary.LittleEndian.AppendUint16(dst, l)
			}
		default:
			dst = append(dst, roaringBitmap)
			dst = binary.AppendUvarint(dst, uint64(len(lows)))
			var words [1024]uint64
			for _, l := range lows {
				words[l>>6] |= 1 << uint(l&63)
			}
			for _, w := range words {
				dst = binary.LittleEndian.AppendUint64(dst, w)
			}
		}
	}
	return dst
}

func decodeRoaringBools(dst []bool, src []byte) ([]bool, error) {
	n := len(dst)
	clear(dst) // dst may be a recycled slice
	nC, sz := binary.Uvarint(src)
	if sz <= 0 {
		return nil, corruptf("roaring: bad container count")
	}
	src = src[sz:]
	setBit := func(key uint16, low uint16) error {
		i := int(key)<<16 | int(low)
		if i >= n {
			return corruptf("roaring: position %d out of range %d", i, n)
		}
		dst[i] = true
		return nil
	}
	for c := uint64(0); c < nC; c++ {
		if len(src) < 3 {
			return nil, corruptf("roaring: truncated container header")
		}
		key := binary.LittleEndian.Uint16(src)
		typ := src[2]
		src = src[3:]
		card, sz := binary.Uvarint(src)
		if sz <= 0 {
			return nil, corruptf("roaring: bad cardinality")
		}
		src = src[sz:]
		switch typ {
		case roaringArray:
			if len(src) < int(card)*2 {
				return nil, corruptf("roaring: truncated array container")
			}
			for i := uint64(0); i < card; i++ {
				if err := setBit(key, binary.LittleEndian.Uint16(src[2*i:])); err != nil {
					return nil, err
				}
			}
			src = src[card*2:]
		case roaringBitmap:
			if len(src) < 8192 {
				return nil, corruptf("roaring: truncated bitmap container")
			}
			for w := 0; w < 1024; w++ {
				word := binary.LittleEndian.Uint64(src[w*8:])
				for word != 0 {
					bitIdx := bits.TrailingZeros64(word)
					if err := setBit(key, uint16(w*64+bitIdx)); err != nil {
						return nil, err
					}
					word &= word - 1
				}
			}
			src = src[8192:]
		case roaringRun:
			for r := uint64(0); r < card; r++ {
				if len(src) < 4 {
					return nil, corruptf("roaring: truncated run container")
				}
				start := binary.LittleEndian.Uint16(src)
				length := int(binary.LittleEndian.Uint16(src[2:])) + 1
				src = src[4:]
				for i := 0; i < length; i++ {
					if err := setBit(key, start+uint16(i)); err != nil {
						return nil, err
					}
				}
			}
		default:
			return nil, corruptf("roaring: unknown container type %d", typ)
		}
	}
	return dst, nil
}
