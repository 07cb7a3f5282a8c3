package enc

import (
	"encoding/binary"
	"math"
	"math/bits"

	"bullion/internal/bitutil"
)

// Float64 streams get their own candidate table (floatKind in cascade.go:
// Gorilla/Chimp/ALP).
// Narrower float formats (FP32 and the quantized FP16/BF16/FP8 of §2.4)
// are stored as raw bit patterns through the *integer* cascade, which
// already handles fixed-width/dictionary compression of short bit strings
// well — see internal/quant.

// EncodeFloats appends an encoded stream for vs, choosing the scheme with
// the cascade selector.
func EncodeFloats(dst []byte, vs []float64, opts *Options) ([]byte, error) {
	return encodeDepth(&floatKind, dst, vs, opts, 0)
}

// EncodeFloatsWith appends an encoded stream using the given scheme.
func EncodeFloatsWith(dst []byte, id SchemeID, vs []float64, opts *Options) ([]byte, error) {
	return encodeFloatsWithDepth(dst, id, vs, opts, 0)
}

// DecodeFloats decodes an n-value float64 stream.
func DecodeFloats(src []byte, n int) ([]float64, error) {
	out := make([]float64, n)
	return DecodeFloatsInto(out, src)
}

// DecodeFloatsInto decodes len(dst) values from src into dst.
func DecodeFloatsInto(dst []float64, src []byte) ([]float64, error) {
	if len(src) == 0 {
		if len(dst) == 0 {
			return dst, nil
		}
		return nil, corruptf("empty stream for %d floats", len(dst))
	}
	id := SchemeID(src[0])
	payload := src[1:]
	switch id {
	case PlainF:
		return decodePlainFloats(dst, payload)
	case GorillaF:
		return decodeGorilla(dst, payload)
	case ChimpF:
		return decodeChimp(dst, payload)
	case ALPF:
		return decodeALP(dst, payload)
	case ConstantF:
		return decodeConstantFloats(dst, payload)
	default:
		return nil, unsupported(id, "a float")
	}
}

func encodeFloatsWithDepth(dst []byte, id SchemeID, vs []float64, opts *Options, depth int) ([]byte, error) {
	dst = append(dst, byte(id))
	switch id {
	case PlainF:
		return encodePlainFloats(dst, vs), nil
	case GorillaF:
		return encodeGorilla(dst, vs), nil
	case ChimpF:
		return encodeChimp(dst, vs), nil
	case ALPF:
		return encodeALP(dst, vs, opts, depth)
	case ConstantF:
		return encodeConstantFloats(dst, vs)
	default:
		return nil, unsupported(id, "a float")
	}
}

// ---- Plain ----

func encodePlainFloats(dst []byte, vs []float64) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

func decodePlainFloats(dst []float64, src []byte) ([]float64, error) {
	if len(src) < 8*len(dst) {
		return nil, corruptf("plain floats: have %d bytes, need %d", len(src), 8*len(dst))
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return dst, nil
}

// ---- Constant ----

func encodeConstantFloats(dst []byte, vs []float64) ([]byte, error) {
	if len(vs) == 0 {
		return binary.LittleEndian.AppendUint64(dst, 0), nil
	}
	c := math.Float64bits(vs[0])
	for _, v := range vs {
		if math.Float64bits(v) != c {
			return nil, ErrNotApplicable
		}
	}
	return binary.LittleEndian.AppendUint64(dst, c), nil
}

func decodeConstantFloats(dst []float64, src []byte) ([]float64, error) {
	if len(src) < 8 {
		return nil, corruptf("constant float: short payload")
	}
	c := math.Float64frombits(binary.LittleEndian.Uint64(src))
	fillFloat64(dst, c)
	return dst, nil
}

// fillFloat64 mirrors fillInt64's copy-doubling memset for float runs.
func fillFloat64(dst []float64, v float64) {
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

// ---- Gorilla (Table 2, [70]) ----
//
// XOR with the previous value; encode the meaningful (non-zero) window.
// Control bits: 0 → identical; 10 → reuse previous leading/trailing window;
// 11 → new window: 6-bit leading count, 6-bit meaningful length.

func encodeGorilla(dst []byte, vs []float64) []byte {
	w := bitutil.NewWriter(nil)
	var prev uint64
	prevLead, prevTrail := -1, -1
	for i, v := range vs {
		cur := math.Float64bits(v)
		if i == 0 {
			w.WriteBits(cur, 64)
			prev = cur
			continue
		}
		xor := cur ^ prev
		prev = cur
		if xor == 0 {
			w.WriteBit(false)
			continue
		}
		w.WriteBit(true)
		lead := bits.LeadingZeros64(xor)
		trail := bits.TrailingZeros64(xor)
		if lead > 63 {
			lead = 63
		}
		if prevLead >= 0 && lead >= prevLead && trail >= prevTrail {
			w.WriteBit(false)
			w.WriteBits(xor>>uint(prevTrail), 64-prevLead-prevTrail)
			continue
		}
		w.WriteBit(true)
		meaningful := 64 - lead - trail // in [1,64]; stored as meaningful-1
		w.WriteBits(uint64(lead), 6)
		w.WriteBits(uint64(meaningful-1), 6)
		w.WriteBits(xor>>uint(trail), meaningful)
		prevLead, prevTrail = lead, trail
	}
	return append(dst, w.Bytes()...)
}

// decodeGorilla reads the stream word-at-a-time: one Peek64 per value
// yields the control bits, the window header, and — for every mantissa
// narrow enough to share the peeked word (the overwhelmingly common case) —
// the meaningful bits themselves, so the per-value cost is a single
// unaligned load plus shifts. Values whose bits straddle the peek window
// or sit in the final 9 bytes fall back to ReadBitsAt. The Reader-based
// reference implementation survives as decodeGorillaScalar for the
// equivalence tests.
func decodeGorilla(dst []float64, src []byte) ([]float64, error) {
	if bitutil.ScalarKernels {
		return decodeGorillaScalar(dst, src)
	}
	if len(dst) == 0 {
		return dst, nil
	}
	first, ok := bitutil.ReadBitsAt(src, 0, 64)
	if !ok {
		return nil, corruptf("gorilla: truncated first value")
	}
	prev := first
	dst[0] = math.Float64frombits(first)
	bitPos := 64
	prevLead, prevTrail := 0, 0
	for i := 1; i < len(dst); i++ {
		w, wide := bitutil.Peek64(src, bitPos)
		if !wide {
			// Stream tail: per-field safe reads.
			b, ok := bitutil.ReadBitsAt(src, bitPos, 1)
			if !ok {
				return nil, corruptf("gorilla: truncated at value %d", i)
			}
			bitPos++
			if b == 0 {
				dst[i] = math.Float64frombits(prev)
				continue
			}
			nw, ok := bitutil.ReadBitsAt(src, bitPos, 1)
			if !ok {
				return nil, corruptf("gorilla: truncated at value %d", i)
			}
			bitPos++
			if nw == 1 {
				hdr, ok := bitutil.ReadBitsAt(src, bitPos, 12)
				if !ok {
					return nil, corruptf("gorilla: truncated window at value %d", i)
				}
				bitPos += 12
				prevLead = int(hdr & 0x3f)
				meaningful := int(hdr>>6) + 1
				if prevLead+meaningful > 64 {
					return nil, corruptf("gorilla: bad window lead=%d len=%d", prevLead, meaningful)
				}
				prevTrail = 64 - prevLead - meaningful
			}
			width := 64 - prevLead - prevTrail
			m, ok := bitutil.ReadBitsAt(src, bitPos, width)
			if !ok {
				return nil, corruptf("gorilla: truncated mantissa at value %d", i)
			}
			bitPos += width
			prev ^= m << uint(prevTrail)
			dst[i] = math.Float64frombits(prev)
			continue
		}
		if w&1 == 0 { // control bit 0: identical value
			bitPos++
			dst[i] = math.Float64frombits(prev)
			continue
		}
		used := 2
		if w&2 != 0 { // new leading/trailing window: 6+6 header bits
			prevLead = int(w>>2) & 0x3f
			meaningful := int(w>>8)&0x3f + 1
			if prevLead+meaningful > 64 {
				return nil, corruptf("gorilla: bad window lead=%d len=%d", prevLead, meaningful)
			}
			prevTrail = 64 - prevLead - meaningful
			used = 14
		}
		width := 64 - prevLead - prevTrail
		var m uint64
		if used+width <= 64 { // mantissa already in the peeked word
			m = (w >> uint(used)) & (uint64(1)<<uint(width) - 1)
			bitPos += used + width
		} else {
			var ok bool
			m, ok = bitutil.ReadBitsAt(src, bitPos+used, width)
			if !ok {
				return nil, corruptf("gorilla: truncated mantissa at value %d", i)
			}
			bitPos += used + width
		}
		prev ^= m << uint(prevTrail)
		dst[i] = math.Float64frombits(prev)
	}
	return dst, nil
}

func decodeGorillaScalar(dst []float64, src []byte) ([]float64, error) {
	r := bitutil.NewReader(src)
	var prev uint64
	prevLead, prevTrail := 0, 0
	for i := range dst {
		if i == 0 {
			v, err := r.ReadBits(64)
			if err != nil {
				return nil, corruptf("gorilla: %v", err)
			}
			prev = v
			dst[i] = math.Float64frombits(v)
			continue
		}
		same, err := r.ReadBit()
		if err != nil {
			return nil, corruptf("gorilla: %v", err)
		}
		if !same { // control bit 0: identical value
			dst[i] = math.Float64frombits(prev)
			continue
		}
		newWin, err := r.ReadBit()
		if err != nil {
			return nil, corruptf("gorilla: %v", err)
		}
		if newWin {
			lead64, err := r.ReadBits(6)
			if err != nil {
				return nil, corruptf("gorilla: %v", err)
			}
			mlen64, err := r.ReadBits(6)
			if err != nil {
				return nil, corruptf("gorilla: %v", err)
			}
			prevLead = int(lead64)
			meaningful := int(mlen64) + 1
			if prevLead+meaningful > 64 {
				return nil, corruptf("gorilla: bad window lead=%d len=%d", prevLead, meaningful)
			}
			prevTrail = 64 - prevLead - meaningful
		}
		width := 64 - prevLead - prevTrail
		m, err := r.ReadBits(width)
		if err != nil {
			return nil, corruptf("gorilla: %v", err)
		}
		prev ^= m << uint(prevTrail)
		dst[i] = math.Float64frombits(prev)
	}
	return dst, nil
}

// ---- Chimp (Table 2, [60]) ----
//
// Gorilla variant: 2-bit flags and a rounded 3-bit leading-zero code.
//
//	00 → xor == 0
//	01 → many trailing zeros: 3-bit lead code, 6-bit center length, center
//	10 → same leading count as previous: (64-lead) significant bits
//	11 → new leading count: 3-bit lead code, (64-lead) significant bits

var chimpLeadRound = [64]uint8{
	0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
	3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 7, 7, 7, 7, 7, 7,
	7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7,
	7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7,
}

var chimpLeadValue = [8]int{0, 8, 12, 16, 18, 20, 22, 24}

const chimpTrailThreshold = 6

func encodeChimp(dst []byte, vs []float64) []byte {
	w := bitutil.NewWriter(nil)
	var prev uint64
	prevLead := -1
	for i, v := range vs {
		cur := math.Float64bits(v)
		if i == 0 {
			w.WriteBits(cur, 64)
			prev = cur
			continue
		}
		xor := cur ^ prev
		prev = cur
		if xor == 0 {
			w.WriteBits(0b00, 2)
			prevLead = -1
			continue
		}
		lead := bits.LeadingZeros64(xor)
		if lead > 63 {
			lead = 63
		}
		leadCode := chimpLeadRound[lead]
		leadRounded := chimpLeadValue[leadCode]
		trail := bits.TrailingZeros64(xor)
		if trail > chimpTrailThreshold {
			center := 64 - leadRounded - trail
			w.WriteBits(0b01, 2)
			w.WriteBits(uint64(leadCode), 3)
			w.WriteBits(uint64(center), 6)
			w.WriteBits(xor>>uint(trail), center)
			prevLead = -1
			continue
		}
		if leadRounded == prevLead {
			w.WriteBits(0b10, 2)
			w.WriteBits(xor, 64-leadRounded)
			continue
		}
		w.WriteBits(0b11, 2)
		w.WriteBits(uint64(leadCode), 3)
		w.WriteBits(xor, 64-leadRounded)
		prevLead = leadRounded
	}
	return append(dst, w.Bytes()...)
}

// decodeChimp mirrors decodeGorilla's peek-based rewrite for the Chimp
// flag grammar: one Peek64 per value carries the 2-bit flag, the 3-bit
// lead code, the 6-bit center length, and usually the significant bits
// too; decodeChimpScalar is the Reader-based reference.
func decodeChimp(dst []float64, src []byte) ([]float64, error) {
	if bitutil.ScalarKernels {
		return decodeChimpScalar(dst, src)
	}
	if len(dst) == 0 {
		return dst, nil
	}
	first, ok := bitutil.ReadBitsAt(src, 0, 64)
	if !ok {
		return nil, corruptf("chimp: truncated first value")
	}
	prev := first
	dst[0] = math.Float64frombits(first)
	bitPos := 64
	prevLead := -1
	for i := 1; i < len(dst); i++ {
		w, wide := bitutil.Peek64(src, bitPos)
		if !wide {
			var ok bool
			if w, ok = bitutil.ReadBitsAt(src, bitPos, 2); !ok {
				return nil, corruptf("chimp: truncated at value %d", i)
			}
			// Fall through with only the flag bits peeked; the per-case
			// reads below re-fetch their fields through ReadBitsAt.
		}
		switch w & 0b11 {
		case 0b00:
			bitPos += 2
			prevLead = -1
		case 0b01:
			hdr, ok := bitutil.ReadBitsAt(src, bitPos+2, 9)
			if !ok {
				return nil, corruptf("chimp: truncated header at value %d", i)
			}
			lead := chimpLeadValue[hdr&0x7]
			center := int(hdr >> 3)
			if center == 0 || lead+center > 64 {
				return nil, corruptf("chimp: bad center lead=%d center=%d", lead, center)
			}
			var m uint64
			if wide && 11+center <= 64 {
				m = (w >> 11) & (uint64(1)<<uint(center) - 1)
			} else if m, ok = bitutil.ReadBitsAt(src, bitPos+11, center); !ok {
				return nil, corruptf("chimp: truncated center at value %d", i)
			}
			bitPos += 11 + center
			prev ^= m << uint(64-lead-center)
			prevLead = -1
		case 0b10:
			if prevLead < 0 {
				return nil, corruptf("chimp: flag 10 with no previous lead")
			}
			width := 64 - prevLead
			var m uint64
			var ok bool
			if wide && 2+width <= 64 {
				m = (w >> 2) & (uint64(1)<<uint(width) - 1)
			} else if m, ok = bitutil.ReadBitsAt(src, bitPos+2, width); !ok {
				return nil, corruptf("chimp: truncated xor at value %d", i)
			}
			bitPos += 2 + width
			prev ^= m
		case 0b11:
			var leadCode uint64
			var ok bool
			if wide {
				leadCode = (w >> 2) & 0x7
			} else if leadCode, ok = bitutil.ReadBitsAt(src, bitPos+2, 3); !ok {
				return nil, corruptf("chimp: truncated lead at value %d", i)
			}
			prevLead = chimpLeadValue[leadCode]
			width := 64 - prevLead
			var m uint64
			if wide && 5+width <= 64 {
				m = (w >> 5) & (uint64(1)<<uint(width) - 1)
			} else if m, ok = bitutil.ReadBitsAt(src, bitPos+5, width); !ok {
				return nil, corruptf("chimp: truncated xor at value %d", i)
			}
			bitPos += 5 + width
			prev ^= m
		}
		dst[i] = math.Float64frombits(prev)
	}
	return dst, nil
}

func decodeChimpScalar(dst []float64, src []byte) ([]float64, error) {
	r := bitutil.NewReader(src)
	var prev uint64
	prevLead := -1
	for i := range dst {
		if i == 0 {
			v, err := r.ReadBits(64)
			if err != nil {
				return nil, corruptf("chimp: %v", err)
			}
			prev = v
			dst[i] = math.Float64frombits(v)
			continue
		}
		flag, err := r.ReadBits(2)
		if err != nil {
			return nil, corruptf("chimp: %v", err)
		}
		switch flag {
		case 0b00:
			prevLead = -1
		case 0b01:
			leadCode, err := r.ReadBits(3)
			if err != nil {
				return nil, corruptf("chimp: %v", err)
			}
			center64, err := r.ReadBits(6)
			if err != nil {
				return nil, corruptf("chimp: %v", err)
			}
			lead := chimpLeadValue[leadCode]
			center := int(center64)
			if center == 0 || lead+center > 64 {
				return nil, corruptf("chimp: bad center lead=%d center=%d", lead, center)
			}
			trail := 64 - lead - center
			m, err := r.ReadBits(center)
			if err != nil {
				return nil, corruptf("chimp: %v", err)
			}
			prev ^= m << uint(trail)
			prevLead = -1
		case 0b10:
			if prevLead < 0 {
				return nil, corruptf("chimp: flag 10 with no previous lead")
			}
			m, err := r.ReadBits(64 - prevLead)
			if err != nil {
				return nil, corruptf("chimp: %v", err)
			}
			prev ^= m
		case 0b11:
			leadCode, err := r.ReadBits(3)
			if err != nil {
				return nil, corruptf("chimp: %v", err)
			}
			prevLead = chimpLeadValue[leadCode]
			m, err := r.ReadBits(64 - prevLead)
			if err != nil {
				return nil, corruptf("chimp: %v", err)
			}
			prev ^= m
		}
		dst[i] = math.Float64frombits(prev)
	}
	return dst, nil
}

// ---- ALP (Table 2, [20]) ----
//
// ALP losslessly encodes doubles that originated as decimals: one exponent
// per stream, round(v*10^e) as a cascaded integer sub-column, bit-exact
// exceptions patched from a side list.

const alpMaxExp = 18

// decimalFor returns the smallest exponent that reconstructs v exactly, or
// -1 if none does.
func decimalFor(v float64) (exp int, digits int64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1, 0
	}
	if v == 0 && math.Signbit(v) {
		return -1, 0 // -0 is not representable as digits/10^e
	}
	for e := 0; e <= alpMaxExp; e++ {
		scaled := v * pow10[e]
		if math.Abs(scaled) >= 1<<51 {
			return -1, 0
		}
		d := math.Round(scaled)
		if float64(int64(d))/pow10[e] == v {
			return e, int64(d)
		}
	}
	return -1, 0
}

// alpExact reports whether v reconstructs bit-exactly as round(v*10^e)/10^e
// and returns the integer digits when it does.
func alpExact(v float64, e int) (int64, bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, false
	}
	if v == 0 && math.Signbit(v) {
		return 0, false
	}
	if math.Abs(v*pow10[e]) >= 1<<51 {
		return 0, false
	}
	d := int64(math.Round(v * pow10[e]))
	if float64(d)/pow10[e] != v {
		return 0, false
	}
	return d, true
}

var pow10 = func() [alpMaxExp + 1]float64 {
	var p [alpMaxExp + 1]float64
	for i := range p {
		p[i] = math.Pow(10, float64(i))
	}
	return p
}()

// payload(ALP) := exp(1B) nExc(uvarint) childDigits excPos(child) excBits(8B each)

func encodeALP(dst []byte, vs []float64, opts *Options, depth int) ([]byte, error) {
	// One exponent for the stream: the max needed by encodable values.
	streamExp := 0
	encodable := 0
	for _, v := range vs {
		if e, _ := decimalFor(v); e >= 0 {
			encodable++
			if e > streamExp {
				streamExp = e
			}
		}
	}
	// ALP only pays off when most values are decimal.
	if encodable*10 < len(vs)*9 {
		return nil, ErrNotApplicable
	}
	digits := make([]int64, len(vs))
	var excPos []int64
	var excBits []uint64
	for i, v := range vs {
		if d, ok := alpExact(v, streamExp); ok {
			digits[i] = d
			continue
		}
		digits[i] = 0
		excPos = append(excPos, int64(i))
		excBits = append(excBits, math.Float64bits(v))
	}
	dst = append(dst, byte(streamExp))
	dst = binary.AppendUvarint(dst, uint64(len(excPos)))
	var err error
	if dst, err = encodeChildInts(dst, digits, opts, depth+1); err != nil {
		return nil, err
	}
	if dst, err = encodeChildInts(dst, excPos, opts, depth+1); err != nil {
		return nil, err
	}
	for _, b := range excBits {
		dst = binary.LittleEndian.AppendUint64(dst, b)
	}
	return dst, nil
}

func decodeALP(dst []float64, src []byte) ([]float64, error) {
	if len(src) < 1 {
		return nil, corruptf("alp: missing exponent")
	}
	exp := int(src[0])
	if exp > alpMaxExp {
		return nil, corruptf("alp: exponent %d out of range", exp)
	}
	src = src[1:]
	nExc, sz := binary.Uvarint(src)
	if sz <= 0 || nExc > uint64(len(dst)) {
		return nil, corruptf("alp: bad exception count")
	}
	src = src[sz:]
	digitStream, src, err := readChild(src)
	if err != nil {
		return nil, err
	}
	posStream, src, err := readChild(src)
	if err != nil {
		return nil, err
	}
	// Both child streams decode into pooled scratch: no allocation per page.
	dp := getInt64Scratch(len(dst))
	defer putInt64Scratch(dp)
	digits, err := DecodeIntsInto(*dp, digitStream)
	if err != nil {
		return nil, err
	}
	pp := getInt64Scratch(int(nExc))
	defer putInt64Scratch(pp)
	pos, err := DecodeIntsInto(*pp, posStream)
	if err != nil {
		return nil, err
	}
	if len(src) < int(nExc)*8 {
		return nil, corruptf("alp: short exception bits")
	}
	for i := range dst {
		dst[i] = float64(digits[i]) / pow10[exp]
	}
	for i, p := range pos {
		if p < 0 || p >= int64(len(dst)) {
			return nil, corruptf("alp: exception position %d out of range", p)
		}
		dst[p] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return dst, nil
}
