package bitutil

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// ScalarKernels routes Unpack/UnpackInt64/UnpackZigZagInt64 and the
// run-fill and float-decode loops in internal/enc through their
// byte-at-a-time reference
// implementations instead of the word-at-a-time kernels. It exists solely
// so equivalence tests can decode every stream through both paths and
// require byte-identical output. Not safe to flip concurrently with
// decoding; only tests touch it.
var ScalarKernels bool

// WidthOf returns the minimum number of bits needed to represent v.
// WidthOf(0) == 0 by convention; callers packing all-zero data should treat
// width 0 as "constant zero".
func WidthOf(v uint64) int { return bits.Len64(v) }

// MaxWidth returns the minimum bit width that can represent every value in
// vs, or 0 when vs is empty or all-zero.
func MaxWidth(vs []uint64) int {
	var m uint64
	for _, v := range vs {
		m |= v
	}
	return bits.Len64(m)
}

// PackedLen returns the number of bytes needed to store n values at the
// given bit width.
func PackedLen(n, width int) int {
	return (n*width + 7) / 8
}

// Pack appends n values from vs bit-packed at the given width to dst and
// returns the extended slice. Values must fit in width bits; Pack panics
// otherwise, since silently truncating stored data would corrupt the file.
func Pack(dst []byte, vs []uint64, width int) []byte {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitutil: invalid pack width %d", width))
	}
	if width == 0 {
		return dst
	}
	limit := ^uint64(0)
	if width < 64 {
		limit = (1 << uint(width)) - 1
	}
	start := len(dst)
	dst = append(dst, make([]byte, PackedLen(len(vs), width))...)
	buf := dst[start:]
	bitPos := 0
	for _, v := range vs {
		if v > limit {
			panic(fmt.Sprintf("bitutil: value %d exceeds width %d", v, width))
		}
		rem := width
		for rem > 0 {
			bitOff := bitPos & 7
			take := 8 - bitOff
			if take > rem {
				take = rem
			}
			buf[bitPos>>3] |= byte(v&((1<<uint(take))-1)) << uint(bitOff)
			v >>= uint(take)
			rem -= take
			bitPos += take
		}
	}
	return dst
}

// Unpack decodes n width-bit values from src into dst (which must have
// length >= n) and returns dst[:n]. It is the inverse of Pack.
//
// The hot path is a word-at-a-time kernel: every value is extracted from a
// single unaligned 64-bit load (plus one spill byte for widths > 57), with
// the inner loop processing byte-aligned 8-value groups so the group base
// advances exactly `width` bytes per iteration. Only the final values —
// where an 8-byte load would run past the buffer — fall back to the
// byte-at-a-time reference loop.
func Unpack(dst []uint64, src []byte, n, width int) ([]uint64, error) {
	if err := checkUnpack(len(src), n, width); err != nil {
		return nil, err
	}
	if ScalarKernels {
		unpackScalarRange(dst, src, 0, n, width)
		return dst[:n], nil
	}
	switch {
	case width == 0:
		clear(dst[:n])
	case width == 64:
		for i := 0; i < n; i++ {
			dst[i] = binary.LittleEndian.Uint64(src[8*i:])
		}
	case width <= 57:
		mask := uint64(1)<<uint(width) - 1
		i := 0
		// Full 8-value groups: group g starts at byte g*width; the last
		// value in the group starts at bit 7*width within it, so one
		// whole 8-byte load per value is safe while
		// base + (7*width)/8 + 8 <= len(src).
		base, lastOff := 0, (7*width)>>3
		for i+8 <= n && base+lastOff+8 <= len(src) {
			b := src[base:]
			bit := 0
			for j := 0; j < 8; j++ {
				w := binary.LittleEndian.Uint64(b[bit>>3:])
				dst[i+j] = (w >> uint(bit&7)) & mask
				bit += width
			}
			i += 8
			base += width
		}
		// Per-value fast path for the remainder while a full load fits.
		bitPos := i * width
		for i < n && bitPos>>3+8 <= len(src) {
			w := binary.LittleEndian.Uint64(src[bitPos>>3:])
			dst[i] = (w >> uint(bitPos&7)) & mask
			bitPos += width
			i++
		}
		unpackScalarRange(dst, src, i, n, width)
	default: // widths 58..63: value spans up to 70 bits — 8-byte load + spill byte
		mask := uint64(1)<<uint(width) - 1
		i, bitPos := 0, 0
		for i < n && bitPos>>3+9 <= len(src) {
			p := bitPos >> 3
			o := uint(bitPos & 7)
			v := binary.LittleEndian.Uint64(src[p:]) >> o
			v |= uint64(src[p+8]) << (64 - o) // shift of 64 when o==0 yields 0
			dst[i] = v & mask
			bitPos += width
			i++
		}
		unpackScalarRange(dst, src, i, n, width)
	}
	return dst[:n], nil
}

// UnpackInt64 decodes len(dst) width-bit values from src, writing base+v
// into dst — the FixedBitWidth/FOR/PFOR inner loop fused with the
// int64 conversion so decoders need no []uint64 staging buffer.
func UnpackInt64(dst []int64, src []byte, width int, base int64) error {
	n := len(dst)
	if err := checkUnpack(len(src), n, width); err != nil {
		return err
	}
	if ScalarKernels {
		unpackScalarInt64(dst, src, width, base)
		return nil
	}
	switch {
	case width == 0:
		for i := range dst {
			dst[i] = base
		}
	case width == 64:
		for i := 0; i < n; i++ {
			dst[i] = base + int64(binary.LittleEndian.Uint64(src[8*i:]))
		}
	case width <= 57:
		mask := uint64(1)<<uint(width) - 1
		i := 0
		gBase, lastOff := 0, (7*width)>>3
		for i+8 <= n && gBase+lastOff+8 <= len(src) {
			b := src[gBase:]
			bit := 0
			for j := 0; j < 8; j++ {
				w := binary.LittleEndian.Uint64(b[bit>>3:])
				dst[i+j] = base + int64((w>>uint(bit&7))&mask)
				bit += width
			}
			i += 8
			gBase += width
		}
		bitPos := i * width
		for i < n && bitPos>>3+8 <= len(src) {
			w := binary.LittleEndian.Uint64(src[bitPos>>3:])
			dst[i] = base + int64((w>>uint(bitPos&7))&mask)
			bitPos += width
			i++
		}
		for ; i < n; i++ {
			dst[i] = base + int64(unpackOne(src, i*width, width))
		}
	default:
		mask := uint64(1)<<uint(width) - 1
		i, bitPos := 0, 0
		for i < n && bitPos>>3+9 <= len(src) {
			p := bitPos >> 3
			o := uint(bitPos & 7)
			v := binary.LittleEndian.Uint64(src[p:]) >> o
			v |= uint64(src[p+8]) << (64 - o)
			dst[i] = base + int64(v&mask)
			bitPos += width
			i++
		}
		for ; i < n; i++ {
			dst[i] = base + int64(unpackOne(src, i*width, width))
		}
	}
	return nil
}

// UnpackZigZagInt64 decodes len(dst) width-bit zigzag values from src —
// the SIMDFastBP128 inner loop fused with UnZigZag.
func UnpackZigZagInt64(dst []int64, src []byte, width int) error {
	n := len(dst)
	if err := checkUnpack(len(src), n, width); err != nil {
		return err
	}
	if ScalarKernels {
		for i := range dst {
			dst[i] = UnZigZag(unpackOne(src, i*width, width))
		}
		return nil
	}
	switch {
	case width == 0:
		clear(dst)
	case width == 64:
		for i := 0; i < n; i++ {
			dst[i] = UnZigZag(binary.LittleEndian.Uint64(src[8*i:]))
		}
	case width <= 57:
		mask := uint64(1)<<uint(width) - 1
		i := 0
		gBase, lastOff := 0, (7*width)>>3
		for i+8 <= n && gBase+lastOff+8 <= len(src) {
			b := src[gBase:]
			bit := 0
			for j := 0; j < 8; j++ {
				w := binary.LittleEndian.Uint64(b[bit>>3:])
				dst[i+j] = UnZigZag((w >> uint(bit&7)) & mask)
				bit += width
			}
			i += 8
			gBase += width
		}
		bitPos := i * width
		for i < n && bitPos>>3+8 <= len(src) {
			w := binary.LittleEndian.Uint64(src[bitPos>>3:])
			dst[i] = UnZigZag((w >> uint(bitPos&7)) & mask)
			bitPos += width
			i++
		}
		for ; i < n; i++ {
			dst[i] = UnZigZag(unpackOne(src, i*width, width))
		}
	default:
		mask := uint64(1)<<uint(width) - 1
		i, bitPos := 0, 0
		for i < n && bitPos>>3+9 <= len(src) {
			p := bitPos >> 3
			o := uint(bitPos & 7)
			v := binary.LittleEndian.Uint64(src[p:]) >> o
			v |= uint64(src[p+8]) << (64 - o)
			dst[i] = UnZigZag(v & mask)
			bitPos += width
			i++
		}
		for ; i < n; i++ {
			dst[i] = UnZigZag(unpackOne(src, i*width, width))
		}
	}
	return nil
}

// UnpackScalar is the byte-at-a-time reference implementation of Unpack,
// kept for the kernel-vs-scalar equivalence tests (and used by the kernels
// for buffer-tail values).
func UnpackScalar(dst []uint64, src []byte, n, width int) ([]uint64, error) {
	if err := checkUnpack(len(src), n, width); err != nil {
		return nil, err
	}
	unpackScalarRange(dst, src, 0, n, width)
	return dst[:n], nil
}

func checkUnpack(srcLen, n, width int) error {
	if width < 0 || width > 64 {
		return fmt.Errorf("bitutil: invalid unpack width %d", width)
	}
	if need := PackedLen(n, width); srcLen < need {
		return fmt.Errorf("bitutil: packed data too short: have %d bytes, need %d", srcLen, need)
	}
	return nil
}

// unpackScalarRange decodes values [from, n) byte-at-a-time.
func unpackScalarRange(dst []uint64, src []byte, from, n, width int) {
	for i := from; i < n; i++ {
		dst[i] = unpackOne(src, i*width, width)
	}
}

func unpackScalarInt64(dst []int64, src []byte, width int, base int64) {
	for i := range dst {
		dst[i] = base + int64(unpackOne(src, i*width, width))
	}
}

// unpackOne extracts one width-bit value starting at bitPos, one byte at a
// time — correct at any alignment and any buffer tail.
func unpackOne(src []byte, bitPos, width int) uint64 {
	var v uint64
	shift := 0
	rem := width
	for rem > 0 {
		bitOff := bitPos & 7
		take := 8 - bitOff
		if take > rem {
			take = rem
		}
		chunk := uint64(src[bitPos>>3]>>uint(bitOff)) & ((1 << uint(take)) - 1)
		v |= chunk << uint(shift)
		shift += take
		rem -= take
		bitPos += take
	}
	return v
}

// Writer writes an MSB-agnostic little-endian bit stream. Bits are appended
// least-significant-first within each byte, matching Pack's layout.
type Writer struct {
	buf    []byte
	bitPos int
}

// NewWriter returns a bit writer appending to buf.
func NewWriter(buf []byte) *Writer {
	return &Writer{buf: buf, bitPos: len(buf) * 8}
}

// WriteBits appends the low `width` bits of v.
func (w *Writer) WriteBits(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitutil: invalid write width %d", width))
	}
	for width > 0 {
		if w.bitPos>>3 >= len(w.buf) {
			w.buf = append(w.buf, 0)
		}
		bitOff := w.bitPos & 7
		take := 8 - bitOff
		if take > width {
			take = width
		}
		w.buf[w.bitPos>>3] |= byte(v&((1<<uint(take))-1)) << uint(bitOff)
		v >>= uint(take)
		width -= take
		w.bitPos += take
	}
}

// WriteBit appends a single bit.
func (w *Writer) WriteBit(b bool) {
	if b {
		w.WriteBits(1, 1)
	} else {
		w.WriteBits(0, 1)
	}
}

// Bytes returns the accumulated bytes.
func (w *Writer) Bytes() []byte { return w.buf }

// Reader reads the bit stream produced by Writer.
type Reader struct {
	buf    []byte
	bitPos int
}

// NewReader returns a bit reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// ReadBits reads `width` bits, little-endian-first.
func (r *Reader) ReadBits(width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("bitutil: invalid read width %d", width)
	}
	if r.bitPos+width > len(r.buf)*8 {
		return 0, fmt.Errorf("bitutil: bit stream exhausted at bit %d (want %d more, have %d)", r.bitPos, width, len(r.buf)*8-r.bitPos)
	}
	var v uint64
	shift := 0
	rem := width
	for rem > 0 {
		bitOff := r.bitPos & 7
		take := 8 - bitOff
		if take > rem {
			take = rem
		}
		chunk := uint64(r.buf[r.bitPos>>3]>>uint(bitOff)) & ((1 << uint(take)) - 1)
		v |= chunk << uint(shift)
		shift += take
		rem -= take
		r.bitPos += take
	}
	return v, nil
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (bool, error) {
	v, err := r.ReadBits(1)
	return v == 1, err
}

// Peek64 returns the 64 bits starting at bitPos as one word, built from a
// single unaligned 64-bit load plus one spill byte. It reports false when
// fewer than 9 whole bytes remain past bitPos's byte — callers then finish
// with ReadBitsAt. This is the primitive behind the branch-reduced
// Gorilla/Chimp decode loops: one peek covers a value's control bits,
// window header, and (typically) its mantissa.
func Peek64(src []byte, bitPos int) (uint64, bool) {
	p := bitPos >> 3
	if p+9 > len(src) {
		return 0, false
	}
	o := uint(bitPos & 7)
	v := binary.LittleEndian.Uint64(src[p:]) >> o
	v |= uint64(src[p+8]) << (64 - o) // shift of 64 when o==0 yields 0
	return v, true
}

// ReadBitsAt extracts `width` bits (0..64) starting at bitPos, correct at
// any alignment and any buffer tail; false when the stream is exhausted.
func ReadBitsAt(src []byte, bitPos, width int) (uint64, bool) {
	if width < 0 || width > 64 || bitPos < 0 || bitPos+width > 8*len(src) {
		return 0, false
	}
	if v, ok := Peek64(src, bitPos); ok && !ScalarKernels {
		if width < 64 {
			v &= uint64(1)<<uint(width) - 1
		}
		return v, true
	}
	return unpackOne(src, bitPos, width), true
}

// ZigZag maps a signed integer to an unsigned integer so that small-magnitude
// values (positive or negative) become small unsigned values.
func ZigZag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// UnZigZag is the inverse of ZigZag.
func UnZigZag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
