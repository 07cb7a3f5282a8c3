package enc

import "math"

// The cascade selector. Following BtrBlocks and Procella, scheme selection
// is sampling-based: candidates are nominated from cheap distribution
// statistics, trial-encoded on a sample, and scored with a Nimble-style
// linear objective over compressed size and relative encode/decode cost
// (Options.WriteWeight / Options.ReadWeight). Composite winners cascade
// into their sub-streams up to Options.MaxDepth.
//
// One generic selector runs every value type. What differs per type is
// data: a kind[T] holding the type's Plain and Constant schemes, its
// sampler size, its encoder switch and an ordered candidate table. Adding
// a scheme to the selector is one table row — its id, its relative cost,
// whether it only nominates below MaxDepth, and an optional gate over the
// sample's statistics. Table order is the determinism contract: a later
// candidate wins only with a strictly lower score, so reordering rows can
// change which scheme — and which bytes — a tie produces.
//
// When the stream fits in one sample (every 128-row page and most sparse
// value streams), the sample *is* the stream, so the winning trial is
// already the stream's encoding: choose returns it and encodeChosen
// appends it instead of encoding the winner — and, for a composite winner,
// re-running its whole child selection — a second time. Encoding is
// deterministic, so the bytes are the same either way.

// relCost holds unit-less relative encode/decode costs per scheme, measured
// once against Plain=1 on this package's benchmarks. They only steer the
// linear objective; sizes come from real trial encodes.
type relCost struct{ enc, dec float64 }

// candidate is one row of a kind's nomination table.
type candidate struct {
	id   SchemeID
	cost relCost
	// nested candidates are composite or heavyweight schemes, nominated
	// only below Options.MaxDepth.
	nested bool
	// gate, when set, nominates the candidate only if the sample's
	// statistics pass it. Only kinds with a stats function have gates.
	gate func(s intStats) bool
	// bound, when set, is a lower bound on the candidate's trial size in
	// bytes, from the same statistics; it is computed only for a candidate
	// that passed its gate. choose skips the trial once the bound scores
	// no lower than the best so far: the trial could not win.
	bound func(s intStats) int
}

// kind describes one value type to the generic cascade.
type kind[T any] struct {
	plain, constant SchemeID
	// same is the constant scheme's own equality: a stream is constant
	// exactly when its encoder would accept it.
	same func(a, b T) bool
	// stats summarizes the sample for the candidate gates (nil when the
	// type's table has none).
	stats      func(sample []T) intStats
	sampleSize func(opts *Options) int
	rawSize    func(vs []T) float64 // bytes of the unencoded stream
	// encode appends vs in scheme id; set in init, because the composite
	// encoders reach back into the cascade for their child streams.
	encode func(dst []byte, id SchemeID, vs []T, opts *Options, depth int) ([]byte, error)
	cands  []candidate
}

var intKind = kind[int64]{
	plain:      Plain,
	constant:   Constant,
	same:       func(a, b int64) bool { return a == b },
	stats:      statsOf,
	sampleSize: func(opts *Options) int { return opts.SampleSize },
	rawSize:    func(vs []int64) float64 { return 8 * float64(len(vs)) },
	cands: []candidate{
		{id: Plain, cost: relCost{0.2, 0.2}},
		{id: BitPack, cost: relCost{0.6, 0.5}, gate: func(s intStats) bool { return !s.hasNeg }},
		{id: Varint, cost: relCost{0.8, 1.0}, gate: func(s intStats) bool { return !s.hasNeg }},
		{id: ZigZagVar, cost: relCost{0.9, 1.1}},
		{id: FOR, cost: relCost{0.7, 0.5}, gate: func(s intStats) bool { return s.rangeWidth <= 64 }},
		{id: PFOR, cost: relCost{1.1, 0.7}, gate: func(s intStats) bool { return s.rangeWidth <= 64 }},
		{id: FastBP128, cost: relCost{0.8, 0.6}},
		{id: Huffman, cost: relCost{3.0, 4.0},
			gate:  func(s intStats) bool { return s.distinct <= maxHuffmanSymbols/2 },
			bound: func(s intStats) int { return huffmanLowerBound(s.counts, s.n) }},
		{id: RLE, cost: relCost{0.7, 0.4}, nested: true, gate: func(s intStats) bool { return s.runs*2 <= s.n }},
		{id: Dict, cost: relCost{1.4, 0.6}, nested: true, gate: func(s intStats) bool {
			return s.distinct <= distinctCap && s.distinct*2 <= s.n
		}},
		{id: MainlyConst, cost: relCost{0.9, 0.3}, nested: true, gate: func(s intStats) bool { return s.majorityN*10 >= s.n*7 }},
		{id: Delta, cost: relCost{0.9, 0.8}, nested: true, gate: func(s intStats) bool { return s.deltaSafe }},
		// Second-order deltas only pay off when first-order deltas cluster
		// tightly (timestamps, monotone ids); the sortedness gate keeps
		// the trial-encode set lean on unordered streams.
		{id: DeltaDelta, cost: relCost{1.0, 0.7}, nested: true, gate: func(s intStats) bool {
			return s.deltaSafe && s.sorted && s.n >= 3
		}},
	},
}

var floatKind = kind[float64]{
	plain:    PlainF,
	constant: ConstantF,
	// Bitwise, as ConstantF stores one bit pattern: +0.0 == -0.0 and
	// NaN != NaN would both pick the wrong way under ==.
	same:       func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) },
	sampleSize: func(opts *Options) int { return opts.SampleSize },
	rawSize:    func(vs []float64) float64 { return 8 * float64(len(vs)) },
	cands: []candidate{
		{id: PlainF, cost: relCost{0.2, 0.2}},
		{id: GorillaF, cost: relCost{1.5, 1.5}},
		{id: ChimpF, cost: relCost{1.6, 1.6}},
		{id: ALPF, cost: relCost{1.2, 0.8}, nested: true},
	},
}

var bytesKind = kind[[]byte]{
	plain:    PlainB,
	constant: ConstantB,
	same:     func(a, b []byte) bool { return string(a) == string(b) },
	// Blobs are heavier than ints, so the sample is smaller.
	sampleSize: func(opts *Options) int { return max(opts.SampleSize/8, 16) },
	rawSize: func(vs [][]byte) float64 {
		raw := float64(len(vs))
		for _, v := range vs {
			raw += float64(len(v))
		}
		return raw
	},
	cands: []candidate{
		{id: PlainB, cost: relCost{0.2, 0.2}},
		{id: DictB, cost: relCost{1.4, 0.6}, nested: true},
		{id: ChunkedB, cost: relCost{6.0, 3.0}, nested: true},
	},
}

func init() {
	intKind.encode = encodeIntsWithDepth
	floatKind.encode = encodeFloatsWithDepth
	bytesKind.encode = encodeBytesWithDepth
}

// sample takes up to size values as a handful of strided contiguous runs,
// preserving local patterns (runs, deltas) that random point samples would
// destroy, and keeping a locally duplicate-heavy prefix (e.g. a masked
// page) from misrepresenting the whole stream. A stream that fits is its
// own sample.
func sample[T any](vs []T, size int) []T {
	if len(vs) <= size {
		return vs
	}
	const runs = 8
	runLen := max(size/runs, 1)
	out := make([]T, 0, runs*runLen)
	stride := (len(vs) - runLen) / (runs - 1)
	for r := 0; r < runs; r++ {
		lo := r * stride
		out = append(out, vs[lo:lo+runLen]...)
	}
	return out
}

// choose returns the lowest-cost scheme for vs at the given cascade depth.
// When the sample is vs itself it also returns the winning trial, which is
// then the complete encoding of vs; otherwise the returned stream is nil.
func choose[T any](k *kind[T], vs []T, opts *Options, depth int) (SchemeID, []byte) {
	if len(vs) == 0 {
		return k.plain, nil
	}
	if opts.allows(k.constant) && allSame(k, vs) {
		return k.constant, nil
	}
	sample := sample(vs, k.sampleSize(opts))
	var s intStats
	if k.stats != nil {
		s = k.stats(sample)
	}
	terminal := depth >= opts.MaxDepth
	best, bestScore := k.plain, -1.0
	var bestTrial []byte
	for i := range k.cands {
		c := &k.cands[i]
		if (c.nested && terminal) || !opts.allows(c.id) || (c.gate != nil && !c.gate(s)) {
			continue
		}
		if c.bound != nil && bestScore >= 0 && loses(float64(c.bound(s)), c.cost, opts, bestScore) {
			continue
		}
		trial, err := k.encode(nil, c.id, sample, opts, depth)
		if err != nil {
			continue
		}
		score := objective(float64(len(trial)), c.cost, opts)
		if bestScore < 0 || score < bestScore {
			best, bestScore, bestTrial = c.id, score, trial
		}
	}
	if len(sample) != len(vs) {
		bestTrial = nil
	}
	return best, bestTrial
}

func allSame[T any](k *kind[T], vs []T) bool {
	for _, v := range vs {
		if !k.same(v, vs[0]) {
			return false
		}
	}
	return true
}

// objective is the linear scoring function: size dominates, encode/decode
// costs contribute proportionally to their weights.
func objective(size float64, c relCost, opts *Options) float64 {
	return size * (1 + opts.WriteWeight*c.enc + opts.ReadWeight*c.dec)
}

// loses reports whether every trial of at least minSize bytes scores no
// lower than best. It holds only while the objective grows with size (its
// weights could make it shrink), and then a skipped trial could not have
// won, since a later candidate needs a strictly lower score.
func loses(minSize float64, c relCost, opts *Options, best float64) bool {
	return objective(1, c, opts) > 0 && objective(minSize, c, opts) >= best
}

// encodeDepth appends vs in the scheme the selector picks, going through
// the options' SelectorCache for top-level streams.
func encodeDepth[T any](k *kind[T], dst []byte, vs []T, opts *Options, depth int) ([]byte, error) {
	if depth == 0 && opts.Cache != nil {
		return cachedEncode(opts.Cache, k, dst, vs, opts)
	}
	_, out, err := encodeChosen(k, dst, vs, opts, depth)
	return out, err
}

// encodeChosen appends vs in the scheme the selector picks and returns
// that scheme. A winning trial that already covers all of vs is appended
// as is instead of being encoded again.
func encodeChosen[T any](k *kind[T], dst []byte, vs []T, opts *Options, depth int) (SchemeID, []byte, error) {
	id, trial := choose(k, vs, opts, depth)
	if trial != nil {
		return id, append(dst, trial...), nil
	}
	out, err := k.encode(dst, id, vs, opts, depth)
	return id, out, err
}
