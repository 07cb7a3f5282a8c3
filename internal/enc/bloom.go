package enc

import (
	"encoding/binary"
	"fmt"
)

// This file implements a split-block Bloom filter (SBBF) over byte-string
// values — the membership half of the statistics system. The writer builds
// one filter per byte-string page and one per byte-string column; the
// footer persists them (v3) and the scan planner probes them to prove a
// string-equality predicate cannot match a page, a file, or (through the
// dataset manifest) a whole member file.
//
// The structure is the Parquet/Impala SBBF: the bit array is split into
// 256-bit blocks (8 x u32 words) and every value sets exactly one bit in
// each word of one block, chosen by eight odd "salt" multipliers over the
// value's 64-bit hash. A probe therefore touches a single cache line, and
// build order never matters — inserting the same value set in any order
// yields identical bits, which is what keeps the pipelined writer's output
// deterministic.
//
// Sizing: BloomDefaultBitsPerValue (12) bits per distinct value gives a
// false-positive rate of roughly 0.5% (Parquet's published SBBF curve:
// ~1% at 10.5 bits/value, ~0.4% at 12.5). False positives only cost a
// wasted read — membership pruning is conservative by construction.

// bloomMagic heads every serialized filter.
const bloomMagic = "SBF1"

// bloomHeaderSize is the serialized prefix: magic + u32 block count.
const bloomHeaderSize = 8

// bloomBlockBytes is the on-disk size of one 256-bit block.
const bloomBlockBytes = 32

// BloomDefaultBitsPerValue sizes a filter when the caller does not choose:
// ~0.5% false positives.
const BloomDefaultBitsPerValue = 12

// maxBloomBlocks bounds deserialized filters so a corrupt header cannot
// drive an unbounded allocation (1 << 20 blocks = 32 MiB).
const maxBloomBlocks = 1 << 20

// bloomSalts are the eight odd constants of the SBBF block hash; word i of
// the chosen block gets bit (h32 * bloomSalts[i]) >> 27.
var bloomSalts = [8]uint32{
	0x47b6137b, 0x44974d91, 0x8824ad5b, 0xa2b7289d,
	0x705495c7, 0x2df1424b, 0x9efc4947, 0x5c6bfb31,
}

// BloomHash is the 64-bit value hash every filter probe uses: FNV-64a
// over the bytes, then a splitmix64 finalizer. FNV alone avalanches too
// weakly for the multiply-shift block index (sequential keys land in
// correlated blocks and the measured false-positive rate blows past the
// sizing target); the finalizer restores full bit diffusion. Callers that
// probe many filters with the same value set should hash once and use
// AddHash/ContainsHash.
func BloomHash(v []byte) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, b := range v {
		h ^= uint64(b)
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// bloomBlockIndex maps a hash to a block by multiply-shift over the high
// 32 bits, so any block count works (no power-of-two requirement).
func bloomBlockIndex(h uint64, nBlocks int) int {
	return int((h >> 32) * uint64(nBlocks) >> 32)
}

// BloomBuilder accumulates values into an SBBF sized at construction.
type BloomBuilder struct {
	words []uint32 // 8 per block
}

// NewBloomBuilder sizes a filter for nDistinct values at bitsPerValue bits
// each (<= 0 selects BloomDefaultBitsPerValue). The block count is exact
// for the requested budget, minimum one block.
func NewBloomBuilder(nDistinct, bitsPerValue int) *BloomBuilder {
	if bitsPerValue <= 0 {
		bitsPerValue = BloomDefaultBitsPerValue
	}
	bits := nDistinct * bitsPerValue
	nBlocks := (bits + 8*bloomBlockBytes - 1) / (8 * bloomBlockBytes)
	if nBlocks < 1 {
		nBlocks = 1
	}
	if nBlocks > maxBloomBlocks {
		nBlocks = maxBloomBlocks
	}
	return &BloomBuilder{words: make([]uint32, 8*nBlocks)}
}

// Add inserts a value.
func (b *BloomBuilder) Add(v []byte) { b.AddHash(BloomHash(v)) }

// AddHash inserts a pre-hashed value.
func (b *BloomBuilder) AddHash(h uint64) {
	base := 8 * bloomBlockIndex(h, len(b.words)/8)
	x := uint32(h)
	for i, salt := range bloomSalts {
		b.words[base+i] |= 1 << ((x * salt) >> 27)
	}
}

// Marshal serializes the filter: magic, block count, then the block words
// little-endian. Append-friendly: the result is self-contained.
func (b *BloomBuilder) Marshal() []byte {
	out := make([]byte, bloomHeaderSize+4*len(b.words))
	copy(out, bloomMagic)
	binary.LittleEndian.PutUint32(out[4:], uint32(len(b.words)/8))
	for i, w := range b.words {
		binary.LittleEndian.PutUint32(out[bloomHeaderSize+4*i:], w)
	}
	return out
}

// Bloom is a zero-copy probe view over a serialized filter: Contains reads
// words straight out of the underlying buffer, so opening one per probe
// batch costs only the header validation.
type Bloom struct {
	data    []byte // word region, past the header
	nBlocks int
}

// OpenBloom validates the header and returns a probe view over data. The
// buffer is retained, not copied.
func OpenBloom(data []byte) (*Bloom, error) {
	if len(data) < bloomHeaderSize {
		return nil, fmt.Errorf("enc: bloom of %d bytes is shorter than its header", len(data))
	}
	if string(data[:4]) != bloomMagic {
		return nil, fmt.Errorf("enc: bad bloom magic %q", data[:4])
	}
	n := int(binary.LittleEndian.Uint32(data[4:]))
	if n < 1 || n > maxBloomBlocks {
		return nil, fmt.Errorf("enc: bloom block count %d out of range", n)
	}
	if want := bloomHeaderSize + n*bloomBlockBytes; len(data) != want {
		return nil, fmt.Errorf("enc: bloom is %d bytes, want %d for %d blocks", len(data), want, n)
	}
	return &Bloom{data: data[bloomHeaderSize:], nBlocks: n}, nil
}

// Contains reports whether v may have been added (false positives at the
// sizing target; never false negatives).
func (f *Bloom) Contains(v []byte) bool { return f.ContainsHash(BloomHash(v)) }

// ContainsHash probes with a pre-computed BloomHash.
func (f *Bloom) ContainsHash(h uint64) bool {
	base := 4 * 8 * bloomBlockIndex(h, f.nBlocks)
	x := uint32(h)
	for i, salt := range bloomSalts {
		w := binary.LittleEndian.Uint32(f.data[base+4*i:])
		if w&(1<<((x*salt)>>27)) == 0 {
			return false
		}
	}
	return true
}
