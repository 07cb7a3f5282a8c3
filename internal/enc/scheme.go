// Package enc implements Bullion's cascading encoding framework (paper §2.6,
// Table 2): a catalog of column encodings behind modular, composable
// interfaces, plus a sampling-based selector that picks a scheme per stream
// and recurses into the integer/float/byte sub-streams that composite
// schemes (RLE, dictionary, delta, ...) produce.
//
// Every encoded stream is self-describing:
//
//	stream  := schemeID(1 byte) payload
//	child   := uvarint(len(stream)) stream      // embedded sub-streams
//
// Decoders receive the value count from the caller (pages record counts in
// their headers), never from the stream itself.
package enc

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// SchemeID identifies an encoding in the catalog. IDs are part of the file
// format; never renumber them.
type SchemeID uint8

// The encoding catalog (Table 2 of the paper). Retired IDs name schemes
// whose codecs are gone: every encoder and decoder refuses them with
// ErrUnknownScheme. They stay reserved and keep their names; never reuse
// a retired ID.
const (
	// Integer schemes.
	Plain       SchemeID = 1  // Trivial: raw little-endian 64-bit
	BitPack     SchemeID = 2  // FixedBitWidth over non-negative values
	Varint      SchemeID = 3  // LEB128
	ZigZagVar   SchemeID = 4  // ZigZag + LEB128
	RLE         SchemeID = 5  // run values + run lengths sub-streams
	Dict        SchemeID = 6  // dictionary + codes sub-streams
	Delta       SchemeID = 7  // first value + zigzag deltas sub-stream
	FOR         SchemeID = 8  // frame-of-reference + bit-packing
	PFOR        SchemeID = 9  // patched FOR, 128-value blocks
	FastBP128   SchemeID = 10 // per-128-block bit packing
	Constant    SchemeID = 11 // single repeated value
	MainlyConst SchemeID = 12 // constant + exceptions (a.k.a. Frequency)
	Huffman     SchemeID = 13 // canonical Huffman for small-range ints
	BitShuffle  SchemeID = 14 // retired: bit transpose + flate
	Chunked     SchemeID = 15 // retired: flate over raw little-endian ints
	DeltaDelta  SchemeID = 16 // zigzag delta-of-delta (timestamps, monotone ids)

	// Float schemes.
	PlainF    SchemeID = 32 // raw IEEE754 bits
	GorillaF  SchemeID = 33 // XOR leading/trailing-zero compression
	ChimpF    SchemeID = 34 // Chimp variant of Gorilla
	ALPF      SchemeID = 35 // adaptive lossless decimal-as-int, FOR cascade
	PseudoDec SchemeID = 36 // retired: pseudodecimal mantissa/exponent pairs
	ConstantF SchemeID = 37 // single repeated float
	ChunkedF  SchemeID = 38 // retired: flate over raw floats

	// Byte-string schemes.
	PlainB    SchemeID = 64 // uvarint length + bytes
	DictB     SchemeID = 65 // blob dictionary + codes
	FSST      SchemeID = 66 // retired: static symbol table substring compression
	ChunkedB  SchemeID = 67 // flate over concatenated blobs + length stream
	ConstantB SchemeID = 68 // single repeated blob

	// Boolean / bitmap schemes.
	PlainBool  SchemeID = 96 // bit-packed
	SparseBool SchemeID = 97 // positions of the rare polarity
	Roaring    SchemeID = 98 // roaring containers (array/bitmap/run)

	// Null-handling wrappers (Table 2: Nullable, Sentinel). These wrap a
	// value stream together with validity information.
	Nullable SchemeID = 120 // validity bitmap sub-stream + dense values
	Sentinel SchemeID = 121 // in-band sentinel marks nulls
)

// String returns the catalog name of the scheme.
func (id SchemeID) String() string {
	if n, ok := schemeNames[id]; ok {
		return n
	}
	return fmt.Sprintf("scheme(%d)", uint8(id))
}

var schemeNames = map[SchemeID]string{
	Plain: "Plain", BitPack: "FixedBitWidth", Varint: "Varint",
	ZigZagVar: "ZigZag", RLE: "RLE", Dict: "Dictionary", Delta: "Delta",
	FOR: "FOR", PFOR: "SIMDFastPFOR", FastBP128: "SIMDFastBP128",
	Constant: "Constant", MainlyConst: "MainlyConstant", Huffman: "Huffman",
	BitShuffle: "BitShuffle", Chunked: "Chunked", DeltaDelta: "DeltaDelta",
	PlainF: "PlainFloat", GorillaF: "Gorilla", ChimpF: "Chimp",
	ALPF: "ALP", PseudoDec: "Pseudodecimal", ConstantF: "ConstantFloat",
	ChunkedF: "ChunkedFloat",
	PlainB:   "PlainBytes", DictB: "DictionaryBytes", FSST: "FSST",
	ChunkedB: "ChunkedBytes", ConstantB: "ConstantBytes",
	PlainBool: "PlainBool", SparseBool: "SparseBool", Roaring: "RoaringBitmap",
	Nullable: "Nullable", Sentinel: "Sentinel",
}

// Errors shared across the package.
var (
	ErrUnknownScheme = errors.New("enc: unknown scheme id")
	ErrCorrupt       = errors.New("enc: corrupt stream")
	ErrNotApplicable = errors.New("enc: scheme not applicable to this data")
)

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// retired reports whether id is a retired, reserved scheme id.
func retired(id SchemeID) bool {
	switch id {
	case BitShuffle, Chunked, PseudoDec, ChunkedF, FSST:
		return true
	}
	return false
}

// unsupported is the error of a codec handed a scheme id outside its
// type's catalog: ErrUnknownScheme for a retired id, ErrCorrupt otherwise.
func unsupported(id SchemeID, typ string) error {
	if retired(id) {
		return fmt.Errorf("%w: %v (id %d) is retired", ErrUnknownScheme, id, uint8(id))
	}
	return corruptf("%v is not %s scheme", id, typ)
}

// Options steers the cascade selector. The zero value is NOT usable; call
// DefaultOptions.
type Options struct {
	// MaxDepth bounds encoding recursion. Depth 0 encodes the top-level
	// stream; sub-streams at depth >= MaxDepth use terminal schemes only.
	// The paper (and BtrBlocks) recommend 1-2 levels.
	MaxDepth int
	// SampleSize is the number of values trial-encoded when selecting.
	SampleSize int
	// Weights form Nimble's linear objective over compressed size and
	// relative encode/decode cost. Size weight is implicitly 1.
	WriteWeight float64 // weight on relative encode cost
	ReadWeight  float64 // weight on relative decode cost
	// Allowed restricts the candidate set when non-nil (catalog ablations).
	Allowed map[SchemeID]bool
	// Cache, when non-nil, amortizes top-level scheme selection across the
	// pages these Options encode (see SelectorCache). Because the cache is
	// stateful and not concurrency-safe, it must not be shared across
	// columns; the core writer clones Options per column and installs one
	// cache in each clone.
	Cache *SelectorCache
	// ResampleDrift is the relative encoded-size drift beyond which a
	// cached selector decision is re-sampled (0 selects
	// DefaultResampleDrift). A negative value tells the core writer not to
	// install selector caches at all, restoring per-page selection. The
	// core writer encodes every stream with its Options.Enc, a sparse
	// page's value stream included, so this one setting covers every
	// column.
	ResampleDrift float64
}

// DefaultOptions returns the selector configuration used by the Bullion
// writer unless overridden: two cascade levels, 1024-value samples, and a
// mildly read-optimized objective (training reads dominate ML workloads).
func DefaultOptions() *Options {
	return &Options{MaxDepth: 2, SampleSize: 1024, WriteWeight: 0.02, ReadWeight: 0.1}
}

func (o *Options) allows(id SchemeID) bool {
	return o.Allowed == nil || o.Allowed[id]
}

// appendChild embeds a complete child stream (length-prefixed).
func appendChild(dst, stream []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(stream)))
	return append(dst, stream...)
}

// readChild splits one length-prefixed child stream off src.
func readChild(src []byte) (stream, rest []byte, err error) {
	n, sz := binary.Uvarint(src)
	if sz <= 0 || n > uint64(len(src)-sz) {
		return nil, nil, corruptf("bad child stream length")
	}
	return src[sz : sz+int(n)], src[sz+int(n):], nil
}

// AppendLengthPrefixed appends stream to dst with a uvarint length prefix —
// the same framing composite schemes use for their sub-streams, exported
// for page layouts that compose multiple encoded streams.
func AppendLengthPrefixed(dst, stream []byte) []byte {
	return appendChild(dst, stream)
}

// ReadLengthPrefixed splits one length-prefixed stream off src.
func ReadLengthPrefixed(src []byte) (stream, rest []byte, err error) {
	return readChild(src)
}

// TopScheme returns the scheme id of an encoded stream (its first byte),
// for statistics and footer bookkeeping.
func TopScheme(stream []byte) SchemeID {
	if len(stream) == 0 {
		return 0
	}
	return SchemeID(stream[0])
}
