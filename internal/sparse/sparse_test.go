package sparse

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"bullion/internal/enc"
)

// genSlidingWindows produces clk_seq_cids-style vectors: per "user", each
// step pushes a few new IDs at the head and drops as many from the tail.
func genSlidingWindows(rng *rand.Rand, nVectors, width int) [][]int64 {
	out := make([][]int64, 0, nVectors)
	cur := make([]int64, width)
	for i := range cur {
		cur[i] = rng.Int63n(1 << 32)
	}
	for len(out) < nVectors {
		cp := make([]int64, len(cur))
		copy(cp, cur)
		out = append(out, cp)
		churn := rng.Intn(3) // 0-2 new IDs per step
		for c := 0; c < churn; c++ {
			next := make([]int64, 0, width)
			next = append(next, rng.Int63n(1<<32))
			next = append(next, cur[:width-1]...)
			cur = next
		}
	}
	return out
}

func TestPaperFigure4Example(t *testing.T) {
	// The exact running example from Figures 3-4.
	base := []int64{92, 82, 66, 18, 67, 13, 96, 63, 33, 49, 80, 85, 59, 30, 47, 55}
	v2 := append([]int64{76}, base[:15]...)          // new 76 at head, overlap [0-14]
	v3 := append([]int64{}, v2...)                   // identical: overlap [0-15]
	v4 := append(append([]int64{}, base...), 55)[1:] // drifted window

	vectors := [][]int64{base, v2, v3, v4}
	opts := DefaultOptions()
	encoded, err := EncodeColumn(vectors, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeColumn(encoded)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vectors) {
		t.Fatalf("decoded %d vectors, want %d", len(got), len(vectors))
	}
	for i := range vectors {
		if len(got[i]) != len(vectors[i]) {
			t.Fatalf("vector %d length %d, want %d", i, len(got[i]), len(vectors[i]))
		}
		for j := range vectors[i] {
			if got[i][j] != vectors[i][j] {
				t.Fatalf("vector %d element %d = %d, want %d", i, j, got[i][j], vectors[i][j])
			}
		}
	}

	// Per Figure 4: vector 2 stores only the new head element, vector 3
	// stores nothing, vector 4 only its churn.
	s, err := Analyze(vectors, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.BaseVectors != 1 {
		t.Fatalf("base vectors = %d, want 1", s.BaseVectors)
	}
	if s.DeltaVectors != 3 {
		t.Fatalf("delta vectors = %d, want 3", s.DeltaVectors)
	}
	// base 16 + head 1 (v2) + 0 (v3) + churn (v4: window shifted by one,
	// new tail 55 appears once) = at most 19 stored values.
	if s.ValuesStored > 19 {
		t.Fatalf("stored %d values, want <= 19 (of %d logical)", s.ValuesStored, s.ValuesTotal)
	}
}

func TestSlidingWindowRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vectors := genSlidingWindows(rng, 500, 256)
	encoded, err := EncodeColumn(vectors, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeColumn(encoded)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vectors {
		for j := range vectors[i] {
			if got[i][j] != vectors[i][j] {
				t.Fatalf("vector %d element %d mismatch", i, j)
			}
		}
	}
}

// The headline §2.2 claim: substantial storage savings on sliding windows.
func TestSlidingWindowCompression(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vectors := genSlidingWindows(rng, 1000, 256)
	opts := DefaultOptions()
	encoded, err := EncodeColumn(vectors, opts)
	if err != nil {
		t.Fatal(err)
	}
	plainSize := 0
	for _, v := range vectors {
		plainSize += 8 * len(v)
	}
	ratio := float64(len(encoded)) / float64(plainSize)
	if ratio > 0.25 {
		t.Fatalf("sparse delta achieved only %.1f%% of plain (want < 25%%)", 100*ratio)
	}
	t.Logf("sparse delta: %d -> %d bytes (%.1f%%)", plainSize, len(encoded), 100*ratio)
}

func TestUnrelatedVectorsFallBackToBase(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vectors := make([][]int64, 20)
	for i := range vectors {
		v := make([]int64, 64)
		for j := range v {
			v[j] = rng.Int63()
		}
		vectors[i] = v
	}
	s, err := Analyze(vectors, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s.BaseVectors != len(vectors) {
		t.Fatalf("unrelated vectors produced %d bases of %d", s.BaseVectors, len(vectors))
	}
	encoded, err := EncodeColumn(vectors, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeColumn(encoded)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vectors {
		for j := range vectors[i] {
			if got[i][j] != vectors[i][j] {
				t.Fatalf("vector %d element %d mismatch", i, j)
			}
		}
	}
}

func TestRestartInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vectors := genSlidingWindows(rng, 200, 64)
	opts := DefaultOptions()
	opts.RestartInterval = 10
	s, err := Analyze(vectors, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.BaseVectors < len(vectors)/11 {
		t.Fatalf("restart interval ignored: %d bases for %d vectors", s.BaseVectors, s.Vectors)
	}
	encoded, err := EncodeColumn(vectors, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeColumn(encoded); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeCases(t *testing.T) {
	cases := [][][]int64{
		{},                      // no vectors
		{{}},                    // one empty vector
		{{1}},                   // one single-element vector
		{{}, {}, {}},            // all empty
		{{1, 2, 3}, {}, {1, 2}}, // empties interleaved
	}
	for i, vectors := range cases {
		encoded, err := EncodeColumn(vectors, DefaultOptions())
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		got, err := DecodeColumn(encoded)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(got) != len(vectors) {
			t.Fatalf("case %d: %d vectors, want %d", i, len(got), len(vectors))
		}
		for vi := range vectors {
			if len(got[vi]) != len(vectors[vi]) {
				t.Fatalf("case %d vector %d: length %d, want %d", i, vi, len(got[vi]), len(vectors[vi]))
			}
		}
	}
}

func TestLongestCommonRun(t *testing.T) {
	cases := []struct {
		prev, cur   []int64
		start, len_ int
		ok          bool
	}{
		{[]int64{1, 2, 3, 4}, []int64{9, 2, 3, 4}, 1, 3, true},
		{[]int64{1, 2, 3}, []int64{4, 5, 6}, 0, 0, false},
		{[]int64{1, 2, 3}, []int64{1, 2, 3}, 0, 3, true},
		{[]int64{5, 1, 2, 9}, []int64{1, 2}, 1, 2, true},
		{nil, []int64{1}, 0, 0, false},
	}
	for i, c := range cases {
		start, l, ok := longestCommonRun(c.prev, c.cur)
		if ok != c.ok || (ok && (start != c.start || l != c.len_)) {
			t.Errorf("case %d: got (%d,%d,%v), want (%d,%d,%v)", i, start, l, ok, c.start, c.len_, c.ok)
		}
	}
}

func TestDecodeCorrupt(t *testing.T) {
	vectors := [][]int64{{1, 2, 3}, {2, 3, 4}}
	encoded, err := EncodeColumn(vectors, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, 3, len(encoded) - 2} {
		if _, err := DecodeColumn(encoded[:cut]); err == nil {
			t.Errorf("truncation to %d decoded without error", cut)
		}
	}
}

// Headers that cannot decode are rejected before anything is sized from
// them, allocating under 1 MiB: vectors that add up to more than
// maxChunkValues (one huge base vector, or a small base repeated by delta
// vectors until the output would pass the bound), a delta whose range
// overruns its predecessor and a delta with no base. DecodeColumn sizes
// its one output buffer from the lengths a header claims, 64 MiB for the
// last two.
func TestDecodeRejectsOversizedChunk(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1)
	huge = append(huge, 0)
	huge = binary.AppendUvarint(huge, 1<<40)
	huge = binary.AppendUvarint(huge, 0)

	const width = 1 << 12
	nDeltas := maxChunkValues/width + 1
	bomb := binary.AppendUvarint(nil, uint64(1+nDeltas))
	bomb = append(bomb, 0)
	bomb = binary.AppendUvarint(bomb, width)
	for i := 0; i < nDeltas; i++ {
		bomb = append(bomb, 1, 0)
		bomb = binary.AppendUvarint(bomb, width)
		bomb = append(bomb, 0, 0)
	}
	stream, err := enc.EncodeInts(nil, make([]int64, width), enc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bomb = binary.AppendUvarint(bomb, uint64(len(stream)))
	bomb = append(bomb, stream...)

	const claimed = 1 << 23
	base, err := enc.EncodeInts(nil, make([]int64, 16), enc.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	overrun := binary.AppendUvarint(nil, 2)
	overrun = append(overrun, 0, 16, 1, 0)
	overrun = binary.AppendUvarint(overrun, claimed)
	overrun = append(overrun, 0, 0)
	overrun = binary.AppendUvarint(overrun, uint64(len(base)))
	overrun = append(overrun, base...)

	noBase := binary.AppendUvarint(nil, 1)
	noBase = append(noBase, 1, 0)
	noBase = binary.AppendUvarint(noBase, claimed)
	noBase = append(noBase, 0, 0, 0)

	for name, src := range map[string][]byte{
		"huge base": huge, "delta bomb": bomb, "range overrun": overrun, "delta with no base": noBase,
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeColumn(src)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: allocated %d bytes before refusing a %d-byte chunk", name, alloc, len(src))
		}
	}
	row := make([]int64, width)
	repeated := make([][]int64, nDeltas+1)
	for i := range repeated {
		repeated[i] = row
	}
	if _, err := EncodeColumn(repeated, nil); err == nil {
		t.Error("EncodeColumn wrote a chunk DecodeColumn rejects")
	}
}

// DecodeColumn allocates per chunk, not per vector: one backing array for
// every vector and one slice of row headers, with the value stream and
// the metadata staged in pooled scratch. The windows are the ads table's
// 32 values wide. The pool itself allocates twice after each collection,
// so a chunk whose output is a large share of this test's small heap
// (256-wide windows would be) reads one more.
func TestDecodeColumnAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{64, 1024} {
		encoded, err := EncodeColumn(genSlidingWindows(rng, n, 32), nil)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := DecodeColumn(encoded); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 3 {
			t.Errorf("%d-vector chunk: %.1f allocs per decode, want <= 3", n, allocs)
		}
	}
}

// Property: any vector sequence round-trips.
func TestSparseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50)
		vectors := make([][]int64, n)
		for i := range vectors {
			v := make([]int64, rng.Intn(40))
			for j := range v {
				v[j] = rng.Int63n(50) // small domain: accidental overlaps
			}
			vectors[i] = v
		}
		opts := DefaultOptions()
		opts.MinOverlap = 2
		encoded, err := EncodeColumn(vectors, opts)
		if err != nil {
			return false
		}
		got, err := DecodeColumn(encoded)
		if err != nil || len(got) != n {
			return false
		}
		for i := range vectors {
			if len(got[i]) != len(vectors[i]) {
				return false
			}
			for j := range vectors[i] {
				if got[i][j] != vectors[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Analyze must report what EncodeColumn stores: its counts are checked
// against the metadata parseHeader reads back from the encoded stream.
func TestAnalyzeMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tight := DefaultOptions()
	tight.MinOverlap, tight.RestartInterval = 2, 7
	for _, opts := range []*Options{DefaultOptions(), tight} {
		vectors := genSlidingWindows(rng, 300, 128)
		vectors = append(vectors, randomWindows(rng, 100, 40, 6)...)
		s, err := Analyze(vectors, opts)
		if err != nil {
			t.Fatal(err)
		}
		encoded, err := EncodeColumn(vectors, opts)
		if err != nil {
			t.Fatal(err)
		}
		metas, stored, _, _, err := parseHeader(encoded, nil)
		if err != nil {
			t.Fatal(err)
		}
		deltas := 0
		for _, m := range metas {
			if m.isDelta {
				deltas++
			}
		}
		if s.Vectors != len(metas) || s.DeltaVectors != deltas || s.BaseVectors != len(metas)-deltas {
			t.Fatalf("stats %+v, encoded %d vectors of which %d deltas", s, len(metas), deltas)
		}
		if s.ValuesStored != stored {
			t.Fatalf("Analyze says %d values stored, the encoded stream holds %d", s.ValuesStored, stored)
		}
		if s.ValuesStored >= s.ValuesTotal {
			t.Fatalf("no savings on sliding windows: %+v", s)
		}
	}
}

// A read-optimized cascade must still round-trip the bulk stream.
func TestCustomEncOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	vectors := genSlidingWindows(rng, 100, 64)
	opts := DefaultOptions()
	opts.Enc = &enc.Options{MaxDepth: 1, SampleSize: 256, ReadWeight: 1}
	encoded, err := EncodeColumn(vectors, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeColumn(encoded)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vectors {
		for j := range vectors[i] {
			if got[i][j] != vectors[i][j] {
				t.Fatalf("vector %d element %d mismatch", i, j)
			}
		}
	}
}

// randomWindows returns n sliding-window vectors over a small alphabet,
// so runs repeat and many shift alignments tie: each step pushes up to
// three values at the head and drops up to three from the tail, and a
// window is capped at width values.
func randomWindows(rng *rand.Rand, n, width int, alphabet int64) [][]int64 {
	out := make([][]int64, n)
	var cur []int64
	for i := range out {
		for k := rng.Intn(4); k > 0; k-- {
			cur = append([]int64{rng.Int63n(alphabet)}, cur...)
		}
		cur = cur[:max(0, min(len(cur)-rng.Intn(4), width))]
		out[i] = append([]int64{}, cur...)
	}
	return out
}

// longestCommonRunRef is longestCommonRun without the fast path's early
// exits: every shift alignment runs to the end of its common run.
func longestCommonRunRef(prev, cur []int64) (start, length int, ok bool) {
	if len(prev) == 0 || len(cur) == 0 {
		return 0, 0, false
	}
	const maxShift = 8
	bestLen, bestStart := 0, 0
	for c := 0; c <= maxShift && c < len(cur); c++ {
		for p := 0; p <= maxShift && p < len(prev); p++ {
			l := 0
			for c+l < len(cur) && p+l < len(prev) && cur[c+l] == prev[p+l] {
				l++
			}
			if l > bestLen {
				bestLen, bestStart = l, p
			}
		}
	}
	if bestLen*4 >= min(len(prev), len(cur))*3 {
		return bestStart, bestLen, true
	}
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

// TestLongestCommonRunMatchesReference checks the early-exiting search
// against the exhaustive one on random vectors and on consecutive
// sliding windows, both over small alphabets where alignments tie.
func TestLongestCommonRunMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	check := func(prev, cur []int64) {
		t.Helper()
		gs, gl, gok := longestCommonRun(prev, cur)
		ws, wl, wok := longestCommonRunRef(prev, cur)
		if gs != ws || gl != wl || gok != wok {
			t.Fatalf("longestCommonRun(%v, %v) = (%d,%d,%v), reference (%d,%d,%v)",
				prev, cur, gs, gl, gok, ws, wl, wok)
		}
	}
	random := func(n int, alphabet int64) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = rng.Int63n(alphabet)
		}
		return v
	}
	for i := 0; i < 20000; i++ {
		alphabet := int64(1 + rng.Intn(4))
		check(random(rng.Intn(24), alphabet), random(rng.Intn(24), alphabet))
	}
	for i := 0; i < 200; i++ {
		ws := randomWindows(rng, 100, 1+rng.Intn(40), int64(1+rng.Intn(5)))
		for j := 1; j < len(ws); j++ {
			check(ws[j-1], ws[j])
		}
	}
}

// FuzzSparseRoundTrip round-trips sliding windows shaped by the fuzz
// input, then feeds the raw input to the decoders, which must reject it
// or decode it without panicking.
func FuzzSparseRoundTrip(f *testing.F) {
	f.Add([]byte{1, 5, 9, 13, 17, 21, 25, 29, 33, 37, 41, 45, 3, 0, 0, 7}, uint8(8))
	f.Add([]byte{3, 2, 1}, uint8(2))
	f.Add([]byte{255, 0, 127, 128, 2}, uint8(0))
	f.Add([]byte{}, uint8(1))
	if seed, err := EncodeColumn([][]int64{{1, 2, 3}, {0, 1, 2, 3}, {}, {7}}, nil); err == nil {
		f.Add(seed, uint8(3))
	}
	f.Fuzz(func(t *testing.T, data []byte, minOverlap uint8) {
		vectors := fuzzWindows(data)
		opts := DefaultOptions()
		opts.MinOverlap = int(minOverlap % 16)
		encoded, err := EncodeColumn(vectors, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeColumn(encoded)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(vectors) {
			t.Fatalf("decoded %d vectors, want %d", len(got), len(vectors))
		}
		for i := range vectors {
			if !slices.Equal(got[i], vectors[i]) {
				t.Fatalf("vector %d = %v, want %v", i, got[i], vectors[i])
			}
		}
		raw, _ := DecodeColumn(data)
		for i, v := range append(got, raw...) {
			if cap(v) != len(v) {
				t.Fatalf("decoded vector %d has len %d but cap %d", i, len(v), cap(v))
			}
		}
		_, _ = ValueScheme(data)
	})
}

// fuzzWindows builds one vector per input byte: bit 0 pushes a value
// taken from the byte's high bits at the head (a small alphabet), bit 1
// drops the oldest value, and windows are capped at 32 values.
func fuzzWindows(data []byte) [][]int64 {
	out := make([][]int64, len(data))
	var window []int64
	for i, b := range data {
		if b&1 != 0 {
			window = append([]int64{int64(b >> 4)}, window...)
		}
		if b&2 != 0 && len(window) > 0 {
			window = window[:len(window)-1]
		}
		window = window[:min(len(window), 32)]
		out[i] = append([]int64{}, window...)
	}
	return out
}
