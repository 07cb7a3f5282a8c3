package enc

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCatalogCoverage asserts that every scheme id of the paper's Table 2
// catalog is distinct and named, the retired ones included: their names
// stay reserved with their ids.
func TestCatalogCoverage(t *testing.T) {
	all := []SchemeID{
		Plain, BitPack, Varint, ZigZagVar, RLE, Dict, Delta, DeltaDelta,
		FOR, PFOR, FastBP128, Constant, MainlyConst, Huffman, BitShuffle,
		Chunked,
		PlainF, GorillaF, ChimpF, ALPF, PseudoDec, ConstantF, ChunkedF,
		PlainB, DictB, FSST, ChunkedB, ConstantB,
		PlainBool, SparseBool, Roaring,
		Nullable, Sentinel,
	}
	seen := map[SchemeID]bool{}
	for _, id := range all {
		if seen[id] {
			t.Fatalf("duplicate scheme id %d (%v)", uint8(id), id)
		}
		seen[id] = true
		if strings.HasPrefix(id.String(), "scheme(") {
			t.Errorf("scheme %d has no catalog name", uint8(id))
		}
	}
	if len(all) != 33 {
		t.Fatalf("catalog has %d entries, want 33", len(all))
	}
}

// TestSelectorMatchesDistribution checks the selector nominates the
// expected family for hand-built distributions.
func TestSelectorMatchesDistribution(t *testing.T) {
	opts := DefaultOptions()
	rng := rand.New(rand.NewSource(17))
	cases := []struct {
		name string
		gen  func(*rand.Rand, int) []int64
		want map[SchemeID]bool // acceptable winners
	}{
		{"runs", genRuns, map[SchemeID]bool{RLE: true, Dict: true, Huffman: true}},
		{"sorted", genSorted, map[SchemeID]bool{Delta: true, FOR: true, PFOR: true, FastBP128: true}},
		{"lowcard", genLowCardinality, map[SchemeID]bool{Dict: true, RLE: true, Huffman: true}},
		{"mainly-const", genMainlyConstant, map[SchemeID]bool{MainlyConst: true, RLE: true, Dict: true, Huffman: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			vs := c.gen(rng, 8192)
			id, _ := choose(&intKind, vs, opts, 0)
			if !c.want[id] {
				t.Errorf("selector picked %v for %s data", id, c.name)
			}
		})
	}
}

// TestCascadeNeverMuchWorseThanPlain guards the selector's fallback: the
// chosen encoding must not exceed Plain by more than the framing overhead.
func TestCascadeNeverMuchWorseThanPlain(t *testing.T) {
	opts := DefaultOptions()
	rng := rand.New(rand.NewSource(23))
	for _, tc := range intSchemes {
		vs := tc.gen(rng, 4096)
		plain, _ := EncodeIntsWith(nil, Plain, vs, opts)
		chosen, err := EncodeInts(nil, vs, opts)
		if err != nil {
			t.Fatalf("%v data: %v", tc.id, err)
		}
		if float64(len(chosen)) > 1.1*float64(len(plain))+64 {
			t.Errorf("%v data: cascade produced %d bytes vs plain %d",
				tc.id, len(chosen), len(plain))
		}
	}
}

// TestCascadeDepthAblation verifies deeper cascades compress at least as
// well as depth 0 on composite-friendly data — the §2.6 recursion-depth
// question the paper raises.
func TestCascadeDepthAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	vs := genRuns(rng, 16384)
	var sizes []int
	for depth := 0; depth <= 3; depth++ {
		opts := DefaultOptions()
		opts.MaxDepth = depth
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
				t.Fatalf("depth %d: corrupted roundtrip", depth)
			}
		}
		sizes = append(sizes, len(encoded))
	}
	if sizes[1] > sizes[0] {
		t.Errorf("depth 1 (%d bytes) worse than depth 0 (%d bytes)", sizes[1], sizes[0])
	}
	t.Logf("cascade depth ablation on run data: %v bytes", sizes)
}

// TestAllowedRestriction checks catalog ablation support.
func TestAllowedRestriction(t *testing.T) {
	opts := DefaultOptions()
	opts.Allowed = map[SchemeID]bool{Plain: true, Varint: true}
	rng := rand.New(rand.NewSource(5))
	vs := genRuns(rng, 2048)
	encoded, err := EncodeInts(nil, vs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if id := SchemeID(encoded[0]); id != Plain && id != Varint {
		t.Fatalf("restricted selector picked %v", id)
	}
}

func TestObjectiveWeights(t *testing.T) {
	// A read-heavy objective should penalize Huffman (expensive decode)
	// relative to a size-only objective.
	sizeOnly := &Options{MaxDepth: 2, SampleSize: 1024}
	readHeavy := &Options{MaxDepth: 2, SampleSize: 1024, ReadWeight: 10}
	var c relCost
	for _, row := range intKind.cands {
		if row.id == Huffman {
			c = row.cost
		}
	}
	if objective(100, c, readHeavy) <= objective(100, c, sizeOnly) {
		t.Fatal("read weight did not increase Huffman's cost")
	}
}

// TestEveryCandidateWins: a candidate row costs a trial encode on every
// stream it is nominated for, so each row must be the top-level winner of
// at least one row of the selection golden (generators x lengths x
// option sets). A row that never wins is pure selection cost: retire it.
func TestEveryCandidateWins(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "selection.golden"))
	if err != nil {
		t.Fatal(err)
	}
	won := map[string]bool{} // "<type> <scheme>"
	for _, row := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		// "<type> <generator> n=<n> <options>: <scheme> len=<len> sha=<sha>"
		typ, _, _ := strings.Cut(row, " ")
		_, result, ok := strings.Cut(row, ": ")
		winner, _, _ := strings.Cut(result, " ")
		if !ok || winner == "" {
			t.Fatalf("malformed golden row %q", row)
		}
		won[typ+" "+winner] = true
	}
	var never []string
	for _, k := range []struct {
		typ   string
		cands []candidate
	}{{"int", intKind.cands}, {"float", floatKind.cands}, {"bytes", bytesKind.cands}} {
		for _, c := range k.cands {
			if !won[k.typ+" "+c.id.String()] {
				never = append(never, c.id.String())
			}
		}
	}
	if len(never) > 0 {
		t.Errorf("candidates that win no selection golden row: %s", strings.Join(never, ", "))
	}
}

// TestTrialReuseMatchesReencode: when the sample is the whole stream the
// encoders append the selector's winning trial instead of encoding again.
// On both sides of the sample-size boundary, with and without a
// SelectorCache, the output must equal a fresh encode with the chosen
// scheme, and the selector must hand back a trial only for a whole-stream
// sample.
func TestTrialReuseMatchesReencode(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	fresh := DefaultOptions()
	around := func(n int) []int { return []int{n - 1, n, n + 1} }
	for _, cached := range []bool{false, true} {
		for _, tc := range intSchemes {
			opts := trialOpts(cached)
			for _, n := range around(opts.SampleSize) {
				checkTrialReuse(t, &intKind, tc.id, tc.gen(rng, n), n <= opts.SampleSize, opts, fresh, EncodeInts)
			}
		}
		for _, tc := range floatSchemes {
			opts := trialOpts(cached)
			for _, n := range around(opts.SampleSize) {
				checkTrialReuse(t, &floatKind, tc.id, tc.gen(rng, n), n <= opts.SampleSize, opts, fresh, EncodeFloats)
			}
		}
		for _, tc := range bytesSchemes {
			opts := trialOpts(cached)
			size := bytesKind.sampleSize(opts)
			for _, n := range around(size) {
				checkTrialReuse(t, &bytesKind, tc.id, tc.gen(rng, n), n <= size, opts, fresh, EncodeBytes)
			}
		}
	}
}

// trialOpts returns default options, with a fresh selector cache when
// cached: the three lengths of one generator then run as successive pages
// of one column.
func trialOpts(cached bool) *Options {
	if cached {
		return cachedOpts()
	}
	return DefaultOptions()
}

func checkTrialReuse[T any](t *testing.T, k *kind[T], gen SchemeID, vs []T, whole bool, opts, fresh *Options,
	encode func([]byte, []T, *Options) ([]byte, error),
) {
	t.Helper()
	name := fmt.Sprintf("%v data, n=%d, cached=%v", gen, len(vs), opts.Cache != nil)
	if opts.Cache != nil {
		opts.Cache.BeginPage()
	}
	got, err := encode(nil, vs, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := k.encode(nil, TopScheme(got), vs, fresh, 0)
	if err != nil {
		t.Fatalf("%s: re-encode as %v: %v", name, TopScheme(got), err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: encoded %d bytes, a fresh %v encode %d bytes", name, len(got), TopScheme(got), len(want))
	}
	id, trial := choose(k, vs, fresh, 0)
	if opts.Cache == nil && id != TopScheme(got) {
		t.Errorf("%s: selector chose %v but the stream is %v", name, id, TopScheme(got))
	}
	if trial == nil && whole && id != k.constant {
		t.Errorf("%s: whole-stream sample returned no trial for %v", name, id)
	}
	if trial != nil && !whole {
		t.Errorf("%s: partial sample returned a trial", name)
	}
}

func TestSampleIntsPreservesRuns(t *testing.T) {
	vs := make([]int64, 100000)
	for i := range vs {
		vs[i] = int64(i / 100) // long runs
	}
	got := sample(vs, 1024)
	if len(got) > 1024 {
		t.Fatalf("sample too large: %d", len(got))
	}
	s := statsOf(got)
	if s.runs*3 > s.n {
		t.Fatalf("sampling destroyed run structure: %d runs in %d values", s.runs, s.n)
	}
	short := []int64{1, 2, 3}
	if got := sample(short, 1024); len(got) != 3 {
		t.Fatalf("short input should be returned whole")
	}
}
