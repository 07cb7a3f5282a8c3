// Package sparse implements Bullion's delta encoding for long-sequence
// sparse features (paper §2.2, Figures 3–4).
//
// Sequence features such as clk_seq_cids (a list<int64> of recently
// clicked ad IDs per user) are written sorted by user and time, so
// consecutive vectors of the same user overlap in a sliding window: a few
// new IDs appear at the head, a few old ones fall off the tail, and the
// middle is shared verbatim with the previous vector.
//
// Following Figure 4, the first vector of a column chunk is stored whole
// (delta flag 0, the "base vector"); each subsequent vector is encoded as
//
//	<delta flag=1> <delta range into previous> <len(head), head data>
//	                                           <len(tail), tail data>
//
// meaning: current = head ++ previous[range] ++ tail. Feature metadata and
// indexes are placed at the beginning of the stream (varint/bit-packed,
// they are small); the bulk value data follows and is compressed with the
// integer cascade (the paper uses zstd — mini-batch training reads rarely
// filter, so bulk compression is cheap to afford).
package sparse

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"bullion/internal/enc"
)

// Options configures the sparse encoder.
type Options struct {
	// MinOverlap is the minimum shared-run length worth delta-encoding;
	// vectors with less overlap are stored as new base vectors.
	MinOverlap int
	// RestartInterval forces a base vector every N vectors so page-local
	// decodes never chase long delta chains. 0 disables forced restarts.
	RestartInterval int
	// Enc configures the cascade used for the bulk value stream; nil means
	// enc.DefaultOptions(). The core writer encodes a sparse page's value
	// stream with its column's Options.Enc, so it configures only the
	// window here and refuses a non-nil Enc other than that same pointer.
	Enc *enc.Options
}

// DefaultOptions returns the writer defaults: 8-element minimum overlap,
// restart every 64 vectors, and the cascade defaults (a nil Enc).
func DefaultOptions() *Options {
	return &Options{MinOverlap: 8, RestartInterval: 64}
}

// vectorMeta is the per-vector index entry (Figure 4's metadata section).
type vectorMeta struct {
	isDelta    bool
	rangeStart int // into the previous vector
	rangeLen   int
	headLen    int
	tailLen    int
	baseLen    int // for base vectors
}

// maxChunkValues bounds the values one column chunk decodes to, so a
// hostile header cannot drive unbounded allocations (2^24 int64s = 128
// MiB, 64× a 1,024-row page of 256-value windows). EncodeColumn refuses
// a chunk over the bound rather than write one DecodeColumn rejects.
const maxChunkValues = 1 << 24

// decodeScratch is DecodeColumn's staging: the chunk's vector metadata
// and its decoded value stream. Nothing DecodeColumn returns aliases it.
type decodeScratch struct {
	metas  []vectorMeta
	values []int64
}

var scratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

// The pool keeps up to 2^18 values (2 MiB: a 1,024-row page of 256-value
// windows stored whole) and 2^15 vectors' metadata (1.5 MiB); a buffer
// grown past that by an unusually large chunk is left to the collector
// rather than pinned by the pool.
const (
	maxPooledValues = 1 << 18
	maxPooledMetas  = 1 << 15
)

func putScratch(s *decodeScratch) {
	if cap(s.metas) > maxPooledMetas {
		s.metas = nil
	}
	if cap(s.values) > maxPooledValues {
		s.values = nil
	}
	scratchPool.Put(s)
}

// plan decides how each vector is stored: whole, as a base vector, or as
// a delta against its predecessor when they share a run of at least
// opts.MinOverlap values and no restart is due.
func plan(vectors [][]int64, opts *Options) ([]vectorMeta, error) {
	metas := make([]vectorMeta, len(vectors))
	var prev []int64
	sinceBase, total := 0, 0
	for i, cur := range vectors {
		if total += len(cur); total > maxChunkValues {
			return nil, fmt.Errorf("sparse: chunk of %d vectors holds more than %d values", len(vectors), maxChunkValues)
		}
		forceBase := prev == nil ||
			(opts.RestartInterval > 0 && sinceBase >= opts.RestartInterval)
		m := vectorMeta{baseLen: len(cur)}
		if !forceBase {
			if start, l, ok := longestCommonRun(prev, cur); ok && l >= opts.MinOverlap {
				curStart := indexOfRun(cur, prev[start:start+l])
				if curStart < 0 {
					return nil, fmt.Errorf("sparse: internal: common run not found in current vector %d", i)
				}
				m = vectorMeta{
					isDelta:    true,
					rangeStart: start,
					rangeLen:   l,
					headLen:    curStart,
					tailLen:    len(cur) - curStart - l,
				}
			}
		}
		if m.isDelta {
			sinceBase++
		} else {
			sinceBase = 0
		}
		metas[i] = m
		prev = cur
	}
	return metas, nil
}

// EncodeColumn encodes a column chunk of sequence vectors.
//
// Stream layout:
//
//	nVectors(uvarint)
//	meta: per vector — flag(1B) + varint fields
//	childValues: one cascaded int64 stream of all base/head/tail values
func EncodeColumn(vectors [][]int64, opts *Options) ([]byte, error) {
	if opts == nil {
		opts = DefaultOptions()
	}
	metas, err := plan(vectors, opts)
	if err != nil {
		return nil, err
	}
	var values []int64
	for i, m := range metas {
		cur := vectors[i]
		if m.isDelta {
			values = append(values, cur[:m.headLen]...)
			values = append(values, cur[m.headLen+m.rangeLen:]...)
		} else {
			values = append(values, cur...)
		}
	}

	dst := binary.AppendUvarint(nil, uint64(len(vectors)))
	for _, m := range metas {
		if m.isDelta {
			dst = append(dst, 1)
			dst = binary.AppendUvarint(dst, uint64(m.rangeStart))
			dst = binary.AppendUvarint(dst, uint64(m.rangeLen))
			dst = binary.AppendUvarint(dst, uint64(m.headLen))
			dst = binary.AppendUvarint(dst, uint64(m.tailLen))
		} else {
			dst = append(dst, 0)
			dst = binary.AppendUvarint(dst, uint64(m.baseLen))
		}
	}
	e := opts.Enc
	if e == nil {
		e = enc.DefaultOptions()
	}
	valueStream, err := enc.EncodeInts(nil, values, e)
	if err != nil {
		return nil, err
	}
	dst = binary.AppendUvarint(dst, uint64(len(valueStream)))
	return append(dst, valueStream...), nil
}

// DecodeColumn decodes a column chunk produced by EncodeColumn. The
// chunk's vectors share one backing array, each capacity-capped to its
// own values, so appending to one vector never writes into another.
func DecodeColumn(src []byte) ([][]int64, error) {
	s := scratchPool.Get().(*decodeScratch)
	defer putScratch(s)
	metas, stored, logical, stream, err := parseHeader(src, s.metas)
	if err != nil {
		return nil, err
	}
	s.metas = metas
	s.values = slices.Grow(s.values[:0], stored)[:stored]
	values, err := enc.DecodeIntsInto(s.values, stream)
	if err != nil {
		return nil, err
	}

	// values holds exactly the stored counts and arena exactly the decoded
	// lengths, and parseHeader has checked every delta's range against its
	// predecessor, so the copies below stay in bounds.
	arena := make([]int64, logical)
	out := make([][]int64, len(metas))
	var prev []int64
	pos, end := 0, 0
	for i, m := range metas {
		start := end
		if m.isDelta {
			end += copy(arena[end:], values[pos:pos+m.headLen])
			pos += m.headLen
			end += copy(arena[end:], prev[m.rangeStart:m.rangeStart+m.rangeLen])
			end += copy(arena[end:], values[pos:pos+m.tailLen])
			pos += m.tailLen
		} else {
			end += copy(arena[end:], values[pos:pos+m.baseLen])
			pos += m.baseLen
		}
		out[i] = arena[start:end:end]
		prev = out[i]
	}
	return out, nil
}

// ValueScheme returns the cascade scheme of a column chunk's value stream,
// the one stream EncodeColumn encodes with Options.Enc.
func ValueScheme(src []byte) (enc.SchemeID, error) {
	_, _, _, stream, err := parseHeader(src, nil)
	if err != nil {
		return 0, err
	}
	return enc.TopScheme(stream), nil
}

// parseHeader reads a column chunk's vector metadata, reusing dst's
// storage, and returns it with the number of values the value stream
// stores, the number the vectors decode to and the value stream. It
// rejects a delta with no base or a range outside its predecessor, and
// metadata whose vectors add up to more than maxChunkValues, so nothing is
// sized from a header that cannot decode.
func parseHeader(src []byte, dst []vectorMeta) (metas []vectorMeta, stored, logical int, stream []byte, err error) {
	n, sz := binary.Uvarint(src)
	if sz <= 0 {
		return nil, 0, 0, nil, fmt.Errorf("sparse: bad vector count")
	}
	src = src[sz:]
	// Every vector costs at least one metadata byte; hostile counts must
	// not drive allocations.
	if n > uint64(len(src)) {
		return nil, 0, 0, nil, fmt.Errorf("sparse: %d vectors cannot fit in %d bytes", n, len(src))
	}
	metas = slices.Grow(dst[:0], int(n))[:n]
	prevLen := -1 // no base vector yet
	for i := range metas {
		if len(src) < 1 {
			return nil, 0, 0, nil, fmt.Errorf("sparse: truncated metadata at vector %d", i)
		}
		flag := src[0]
		src = src[1:]
		var m vectorMeta
		if flag == 1 {
			m.isDelta = true
			fields := [4]*int{&m.rangeStart, &m.rangeLen, &m.headLen, &m.tailLen}
			for _, f := range fields {
				v, sz := binary.Uvarint(src)
				if sz <= 0 || v > maxChunkValues {
					return nil, 0, 0, nil, fmt.Errorf("sparse: bad delta meta at vector %d", i)
				}
				*f = int(v)
				src = src[sz:]
			}
			if prevLen < 0 {
				return nil, 0, 0, nil, fmt.Errorf("sparse: vector %d is a delta with no base", i)
			}
			if m.rangeStart+m.rangeLen > prevLen {
				return nil, 0, 0, nil, fmt.Errorf("sparse: vector %d range [%d,%d) outside previous of %d",
					i, m.rangeStart, m.rangeStart+m.rangeLen, prevLen)
			}
			stored += m.headLen + m.tailLen
			prevLen = m.headLen + m.rangeLen + m.tailLen
		} else {
			v, sz := binary.Uvarint(src)
			if sz <= 0 || v > maxChunkValues {
				return nil, 0, 0, nil, fmt.Errorf("sparse: bad base meta at vector %d", i)
			}
			m.baseLen = int(v)
			src = src[sz:]
			stored += m.baseLen
			prevLen = m.baseLen
		}
		if logical += prevLen; logical > maxChunkValues {
			return nil, 0, 0, nil, fmt.Errorf("sparse: chunk decodes to more than %d values", maxChunkValues)
		}
		metas[i] = m
	}
	streamLen, sz := binary.Uvarint(src)
	if sz <= 0 || streamLen > uint64(len(src)-sz) {
		return nil, 0, 0, nil, fmt.Errorf("sparse: bad value stream length")
	}
	return metas, stored, logical, src[sz : sz+int(streamLen)], nil
}

// longestCommonRun finds the longest contiguous run shared between prev and
// cur, returning its start in prev. Sliding windows make the common run
// almost always a small head/tail shift, so those alignments are probed
// first in O(k·n); the general O(n·m) search remains as the fallback for
// arbitrary drift.
func longestCommonRun(prev, cur []int64) (start, length int, ok bool) {
	if len(prev) == 0 || len(cur) == 0 {
		return 0, 0, false
	}
	// Fast path: probe shift alignments cur[c:] vs prev[p:] for small
	// c,p — the shapes a sliding window produces (new head elements, old
	// tail elements dropped). Accept when the aligned run covers most of
	// the shorter vector; anything weirder falls through to the DP.
	const maxShift = 8
	bestLen, bestStart := 0, 0
	// An alignment's run is at most min(len(cur)-c, len(prev)-p) long, a
	// bound that only falls as c or p grows; once it cannot beat bestLen
	// (a tie never wins), neither can any later p, nor any later c.
	for c := 0; c <= maxShift && c < len(cur) && len(cur)-c > bestLen; c++ {
		for p := 0; p <= maxShift && p < len(prev) && len(prev)-p > bestLen; p++ {
			l := 0
			for c+l < len(cur) && p+l < len(prev) && cur[c+l] == prev[p+l] {
				l++
			}
			if l > bestLen {
				bestLen, bestStart = l, p
			}
		}
	}
	minLen := len(prev)
	if len(cur) < minLen {
		minLen = len(cur)
	}
	if bestLen*4 >= minLen*3 { // covers >= 75% of the shorter vector
		return bestStart, bestLen, true
	}
	// dp[j] = length of common run ending at prev[i-1], cur[j-1].
	dp := make([]int, len(cur)+1)
	bestLen, bestPrevEnd := 0, 0
	for i := 1; i <= len(prev); i++ {
		prevDiag := 0
		for j := 1; j <= len(cur); j++ {
			cell := 0
			if prev[i-1] == cur[j-1] {
				cell = prevDiag + 1
			}
			prevDiag = dp[j]
			dp[j] = cell
			if cell > bestLen {
				bestLen, bestPrevEnd = cell, i
			}
		}
	}
	if bestLen == 0 {
		return 0, 0, false
	}
	return bestPrevEnd - bestLen, bestLen, true
}

// indexOfRun returns the position of run inside cur (first occurrence).
func indexOfRun(cur, run []int64) int {
	if len(run) == 0 {
		return 0
	}
outer:
	for i := 0; i+len(run) <= len(cur); i++ {
		for k := range run {
			if cur[i+k] != run[k] {
				continue outer
			}
		}
		return i
	}
	return -1
}

// Stats reports how a column chunk was encoded, for the fig4 experiment.
type Stats struct {
	Vectors      int
	BaseVectors  int
	DeltaVectors int
	ValuesStored int // values physically written (bases + heads + tails)
	ValuesTotal  int // logical values across all vectors
}

// Analyze reports how EncodeColumn stores vectors, from the same plan,
// without serializing.
func Analyze(vectors [][]int64, opts *Options) (Stats, error) {
	if opts == nil {
		opts = DefaultOptions()
	}
	metas, err := plan(vectors, opts)
	if err != nil {
		return Stats{}, err
	}
	s := Stats{Vectors: len(vectors)}
	for i, m := range metas {
		s.ValuesTotal += len(vectors[i])
		if m.isDelta {
			s.DeltaVectors++
			s.ValuesStored += m.headLen + m.tailLen
		} else {
			s.BaseVectors++
			s.ValuesStored += m.baseLen
		}
	}
	return s, nil
}
