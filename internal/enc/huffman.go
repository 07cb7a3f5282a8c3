package enc

import (
	"encoding/binary"
	"math"
	"sort"

	"bullion/internal/bitutil"
)

// Huffman (Table 2): entropy coding for integers drawn from a small
// alphabet, assigning shorter codes to more frequent values. Canonical
// codes keep the header compact: only (symbol, code length) pairs are
// stored and both sides rebuild identical codebooks.
//
// payload := nSym(uvarint) { symbol(varint) codeLen(1B) }* bitstream
//
// Not applicable above maxHuffmanSymbols distinct values.

const maxHuffmanSymbols = 512

// huffCode is a canonical code assignment for one symbol.
type huffCode struct {
	sym    int64
	length int
	code   uint64 // MSB-first canonical code
}

// huffNode is a leaf (children -1) or a merged subtree; nodes live in one
// slice and refer to their children by index.
type huffNode struct {
	freq        int
	left, right int
}

// buildHuffmanCodes derives code lengths with the two-queue construction:
// leaves sorted by (frequency, symbol) form one queue, merged nodes —
// created in non-decreasing frequency order — the other, and each step
// merges the two cheapest fronts, preferring a leaf on a tie. Every tie is
// broken by position, never by map order, so equal inputs always get
// identical codes; inputs without ties have a unique Huffman tree, which
// this finds like any other construction.
func buildHuffmanCodes(vs []int64) ([]huffCode, bool) {
	freq := make(map[int64]int, maxHuffmanSymbols+1)
	for _, v := range vs {
		freq[v]++
		if len(freq) > maxHuffmanSymbols {
			return nil, false
		}
	}
	if len(freq) == 0 {
		return nil, true
	}
	codes := make([]huffCode, 0, len(freq))
	for sym := range freq {
		codes = append(codes, huffCode{sym: sym})
	}
	if len(codes) == 1 {
		// Single symbol: assign a 1-bit code.
		codes[0].length = 1
		return codes, true
	}
	sort.Slice(codes, func(i, j int) bool {
		fi, fj := freq[codes[i].sym], freq[codes[j].sym]
		if fi != fj {
			return fi < fj
		}
		return codes[i].sym < codes[j].sym
	})
	nLeaves := len(codes)
	nodes := make([]huffNode, nLeaves, 2*nLeaves-1)
	for i, c := range codes {
		nodes[i] = huffNode{freq: freq[c.sym], left: -1, right: -1}
	}
	leaf, merged := 0, nLeaves
	next := func() int {
		if leaf < nLeaves && (merged == len(nodes) || nodes[leaf].freq <= nodes[merged].freq) {
			leaf++
			return leaf - 1
		}
		merged++
		return merged - 1
	}
	for k := 1; k < nLeaves; k++ {
		a := next()
		b := next()
		nodes = append(nodes, huffNode{freq: nodes[a].freq + nodes[b].freq, left: a, right: b})
	}
	// Children precede their parent, so one backward pass from the root
	// (the last node) assigns every depth.
	depth := make([]int, len(nodes))
	for n := len(nodes) - 1; n >= nLeaves; n-- {
		depth[nodes[n].left] = depth[n] + 1
		depth[nodes[n].right] = depth[n] + 1
	}
	for i := range codes {
		codes[i].length = depth[i]
	}
	assignCanonical(codes)
	return codes, true
}

// assignCanonical sorts codes by (length, symbol) and assigns canonical
// code values.
func assignCanonical(codes []huffCode) {
	sort.Slice(codes, func(i, j int) bool {
		if codes[i].length != codes[j].length {
			return codes[i].length < codes[j].length
		}
		return codes[i].sym < codes[j].sym
	})
	var code uint64
	prevLen := 0
	for i := range codes {
		code <<= uint(codes[i].length - prevLen)
		codes[i].code = code
		code++
		prevLen = codes[i].length
	}
}

// huffmanLowerBound returns a lower bound on len(encodeHuffmanInts(vs))
// from the exact histogram of the n values of vs (statsOf's, whenever
// Huffman's gate passes): the codebook exactly, plus ⌈n·H/8⌉ bitstream
// bytes, where H is the histogram's Shannon entropy. No prefix code
// spends fewer than n·H bits. The entropy is computed in floating point,
// so a hair is taken off it before rounding up: where the Huffman code
// meets the entropy exactly, rounding error must not push the bound a
// byte past the real size.
func huffmanLowerBound(counts map[int64]int, n int) int {
	var buf [binary.MaxVarintLen64]byte
	size := len(binary.AppendUvarint(buf[:0], uint64(len(counts))))
	bits := 0.0
	for sym, f := range counts {
		size += len(binary.AppendVarint(buf[:0], sym)) + 1
		bits += float64(f) * math.Log2(float64(n)/float64(f))
	}
	if bits -= 1e-6; bits > 0 {
		size += int(math.Ceil(bits / 8))
	}
	return size
}

func encodeHuffmanInts(dst []byte, vs []int64) ([]byte, error) {
	codes, ok := buildHuffmanCodes(vs)
	if !ok {
		return nil, ErrNotApplicable
	}
	dst = binary.AppendUvarint(dst, uint64(len(codes)))
	bySym := make(map[int64]huffCode, len(codes))
	for _, c := range codes {
		dst = binary.AppendVarint(dst, c.sym)
		dst = append(dst, byte(c.length))
		bySym[c.sym] = c
	}
	w := bitutil.NewWriter(nil)
	for _, v := range vs {
		c := bySym[v]
		// Write MSB-first so canonical prefix decoding works.
		for b := c.length - 1; b >= 0; b-- {
			w.WriteBit(c.code&(1<<uint(b)) != 0)
		}
	}
	return append(dst, w.Bytes()...), nil
}

func decodeHuffmanInts(dst []int64, src []byte) ([]int64, error) {
	nSym, sz := binary.Uvarint(src)
	if sz <= 0 || nSym > maxHuffmanSymbols {
		return nil, corruptf("huffman: bad symbol count")
	}
	src = src[sz:]
	codes := make([]huffCode, nSym)
	for i := range codes {
		sym, sz := binary.Varint(src)
		if sz <= 0 || len(src) < sz+1 {
			return nil, corruptf("huffman: truncated codebook")
		}
		codes[i] = huffCode{sym: sym, length: int(src[sz])}
		if codes[i].length <= 0 || codes[i].length > 64 {
			return nil, corruptf("huffman: bad code length %d", codes[i].length)
		}
		src = src[sz+1:]
	}
	assignCanonical(codes)
	type key struct {
		length int
		code   uint64
	}
	table := make(map[key]int64, len(codes))
	for _, c := range codes {
		table[key{c.length, c.code}] = c.sym
	}
	r := bitutil.NewReader(src)
	for i := range dst {
		var code uint64
		length := 0
		for {
			bit, err := r.ReadBit()
			if err != nil {
				return nil, corruptf("huffman: bitstream exhausted at value %d", i)
			}
			code = code<<1 | b2u(bit)
			length++
			if sym, ok := table[key{length, code}]; ok {
				dst[i] = sym
				break
			}
			if length > 64 {
				return nil, corruptf("huffman: no code matches at value %d", i)
			}
		}
	}
	return dst, nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
