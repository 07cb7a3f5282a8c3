package enc

// The cascade selector. Following BtrBlocks and Procella, scheme selection
// is sampling-based: candidates are nominated from cheap distribution
// statistics, trial-encoded on a sample, and scored with a Nimble-style
// linear objective over compressed size and relative encode/decode cost
// (Options.WriteWeight / Options.ReadWeight). Composite winners cascade
// into their sub-streams up to Options.MaxDepth.
//
// When the stream fits in one sample (every 128-row page and most sparse
// value streams), the sample *is* the stream, so the winning trial is
// already the stream's encoding: the choose* functions return it and the
// encoders append it instead of encoding the winner — and, for a composite
// winner, re-running its whole child selection — a second time. Encoding
// is deterministic, so the bytes are the same either way.

// relCost holds unit-less relative encode/decode costs per scheme, measured
// once against Plain=1 on this package's benchmarks. They only steer the
// linear objective; sizes come from real trial encodes.
type relCost struct{ enc, dec float64 }

var intCosts = map[SchemeID]relCost{
	Plain:       {0.2, 0.2},
	BitPack:     {0.6, 0.5},
	Varint:      {0.8, 1.0},
	ZigZagVar:   {0.9, 1.1},
	RLE:         {0.7, 0.4},
	Dict:        {1.4, 0.6},
	Delta:       {0.9, 0.8},
	DeltaDelta:  {1.0, 0.7},
	FOR:         {0.7, 0.5},
	PFOR:        {1.1, 0.7},
	FastBP128:   {0.8, 0.6},
	Constant:    {0.1, 0.05},
	MainlyConst: {0.9, 0.3},
	Huffman:     {3.0, 4.0},
	BitShuffle:  {5.0, 5.0},
	Chunked:     {6.0, 3.0},
}

var floatCosts = map[SchemeID]relCost{
	PlainF:    {0.2, 0.2},
	GorillaF:  {1.5, 1.5},
	ChimpF:    {1.6, 1.6},
	ALPF:      {1.2, 0.8},
	PseudoDec: {1.3, 0.9},
	ConstantF: {0.1, 0.05},
	ChunkedF:  {6.0, 3.0},
}

var bytesCosts = map[SchemeID]relCost{
	PlainB:    {0.2, 0.2},
	DictB:     {1.4, 0.6},
	FSST:      {3.0, 1.2},
	ChunkedB:  {6.0, 3.0},
	ConstantB: {0.1, 0.05},
}

// sampleInts takes up to opts.SampleSize values as a handful of contiguous
// runs, preserving local patterns (runs, deltas) that random point samples
// would destroy.
func sampleInts(vs []int64, size int) []int64 {
	if len(vs) <= size {
		return vs
	}
	const runs = 8
	runLen := size / runs
	out := make([]int64, 0, size)
	stride := (len(vs) - runLen) / (runs - 1)
	for r := 0; r < runs; r++ {
		lo := r * stride
		out = append(out, vs[lo:lo+runLen]...)
	}
	return out
}

// sampleFloats mirrors sampleInts for float streams.
func sampleFloats(vs []float64, size int) []float64 {
	if len(vs) <= size {
		return vs
	}
	const runs = 8
	runLen := size / runs
	out := make([]float64, 0, size)
	stride := (len(vs) - runLen) / (runs - 1)
	for r := 0; r < runs; r++ {
		lo := r * stride
		out = append(out, vs[lo:lo+runLen]...)
	}
	return out
}

// bytesSampleSize is the number of byte strings trial-encoded when
// selecting: blobs are heavier than ints, so the sample is smaller.
func bytesSampleSize(opts *Options) int { return max(opts.SampleSize/8, 16) }

// sampleBytes mirrors sampleInts for byte-string streams: strided
// contiguous runs, so a locally duplicate-heavy prefix (e.g. a masked
// page) cannot misrepresent the whole stream's cardinality.
func sampleBytes(vs [][]byte, size int) [][]byte {
	if len(vs) <= size {
		return vs
	}
	const runs = 8
	runLen := size / runs
	if runLen == 0 {
		runLen = 1
	}
	out := make([][]byte, 0, size)
	stride := (len(vs) - runLen) / (runs - 1)
	for r := 0; r < runs; r++ {
		lo := r * stride
		out = append(out, vs[lo:lo+runLen]...)
	}
	return out
}

// chooseIntScheme nominates candidates from statistics and returns the
// lowest-cost scheme for vs at the given cascade depth. When the sample is
// vs itself it also returns the winning trial, which is then the complete
// encoding of vs; otherwise the returned stream is nil.
func chooseIntScheme(vs []int64, opts *Options, depth int) (SchemeID, []byte) {
	if len(vs) == 0 {
		return Plain, nil
	}
	sample := sampleInts(vs, opts.SampleSize)
	s := statsOf(sample)

	if s.distinct == 1 && statsOf(vs).distinct == 1 && opts.allows(Constant) {
		return Constant, nil
	}

	terminal := depth >= opts.MaxDepth
	var cands []SchemeID
	add := func(id SchemeID) {
		if opts.allows(id) {
			cands = append(cands, id)
		}
	}

	add(Plain)
	if !s.hasNeg {
		add(BitPack)
		add(Varint)
	}
	add(ZigZagVar)
	if s.rangeWidth <= 64 {
		add(FOR)
		add(PFOR)
	}
	add(FastBP128)
	if s.distinct <= maxHuffmanSymbols/2 {
		add(Huffman)
	}
	if !terminal {
		if s.runs*2 <= s.n {
			add(RLE)
		}
		if s.distinct <= distinctCap && s.distinct*2 <= s.n {
			add(Dict)
		}
		if s.majorityN*10 >= s.n*7 {
			add(MainlyConst)
		}
		if s.deltaSafe {
			add(Delta)
			// Second-order deltas only pay off when first-order deltas
			// cluster tightly (timestamps, monotone ids); the sortedness
			// gate keeps the trial-encode set lean on unordered streams.
			if s.sorted && s.n >= 3 {
				add(DeltaDelta)
			}
		}
		add(BitShuffle)
		add(Chunked)
	}
	if len(cands) == 0 {
		return Plain, nil
	}

	best, bestScore := Plain, -1.0
	var bestTrial []byte
	for _, id := range cands {
		trial, err := encodeIntsWithDepth(nil, id, sample, opts, depth)
		if err != nil {
			continue
		}
		score := objective(float64(len(trial)), intCosts[id], opts)
		if bestScore < 0 || score < bestScore {
			best, bestScore, bestTrial = id, score, trial
		}
	}
	return best, wholeTrial(bestTrial, len(sample) == len(vs))
}

// wholeTrial returns the winning trial when the sample was the whole
// stream (the sample* functions return the stream itself whenever it fits)
// and nil otherwise.
func wholeTrial(trial []byte, whole bool) []byte {
	if !whole {
		return nil
	}
	return trial
}

// objective is the linear scoring function: size dominates, encode/decode
// costs contribute proportionally to their weights.
func objective(size float64, c relCost, opts *Options) float64 {
	return size * (1 + opts.WriteWeight*c.enc + opts.ReadWeight*c.dec)
}

// chooseFloatScheme mirrors chooseIntScheme for float64 streams.
func chooseFloatScheme(vs []float64, opts *Options, depth int) (SchemeID, []byte) {
	if len(vs) == 0 {
		return PlainF, nil
	}
	allConst := true
	for _, v := range vs {
		if v != vs[0] {
			allConst = false
			break
		}
	}
	if allConst && opts.allows(ConstantF) {
		return ConstantF, nil
	}
	sample := sampleFloats(vs, opts.SampleSize)
	var cands []SchemeID
	add := func(id SchemeID) {
		if opts.allows(id) {
			cands = append(cands, id)
		}
	}
	add(PlainF)
	add(GorillaF)
	add(ChimpF)
	if depth < opts.MaxDepth {
		add(ALPF)
		add(PseudoDec)
		add(ChunkedF)
	}
	best, bestScore := PlainF, -1.0
	var bestTrial []byte
	for _, id := range cands {
		trial, err := encodeFloatsWithDepth(nil, id, sample, opts, depth)
		if err != nil {
			continue
		}
		score := objective(float64(len(trial)), floatCosts[id], opts)
		if bestScore < 0 || score < bestScore {
			best, bestScore, bestTrial = id, score, trial
		}
	}
	return best, wholeTrial(bestTrial, len(sample) == len(vs))
}

// chooseBytesScheme mirrors chooseIntScheme for [][]byte streams.
func chooseBytesScheme(vs [][]byte, opts *Options, depth int) (SchemeID, []byte) {
	if len(vs) == 0 {
		return PlainB, nil
	}
	allConst := true
	for _, v := range vs {
		if string(v) != string(vs[0]) {
			allConst = false
			break
		}
	}
	if allConst && opts.allows(ConstantB) {
		return ConstantB, nil
	}
	sample := sampleBytes(vs, bytesSampleSize(opts))
	var cands []SchemeID
	add := func(id SchemeID) {
		if opts.allows(id) {
			cands = append(cands, id)
		}
	}
	add(PlainB)
	if depth < opts.MaxDepth {
		add(DictB)
		add(FSST)
		add(ChunkedB)
	}
	best, bestScore := PlainB, -1.0
	var bestTrial []byte
	for _, id := range cands {
		trial, err := encodeBytesWithDepth(nil, id, sample, opts, depth)
		if err != nil {
			continue
		}
		score := objective(float64(len(trial)), bytesCosts[id], opts)
		if bestScore < 0 || score < bestScore {
			best, bestScore, bestTrial = id, score, trial
		}
	}
	return best, wholeTrial(bestTrial, len(sample) == len(vs))
}
