package enc

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateSelection = flag.Bool("update", false, "rewrite testdata/selection.golden")

// selectionLengths straddles the page size (128), the byte sampler's
// default size (128) and the value sampler's (1024).
var selectionLengths = []int{1, 2, 3, 7, 127, 128, 129, 1023, 1024, 1025, 4096}

// selectionOptions are the settings the golden records each stream
// under. "cache" feeds every length of one generator through one
// SelectorCache, in order, as the successive pages of one column.
var selectionOptions = []struct {
	name string
	opts func() *Options
}{
	{"default", DefaultOptions},
	{"cache", cachedOpts},
	{"depth0", func() *Options { o := DefaultOptions(); o.MaxDepth = 0; return o }},
	{"depth1", func() *Options { o := DefaultOptions(); o.MaxDepth = 1; return o }},
	{"depth3", func() *Options { o := DefaultOptions(); o.MaxDepth = 3; return o }},
	{"read10", func() *Options { o := DefaultOptions(); o.ReadWeight = 10; return o }},
	{"sample128", func() *Options { o := DefaultOptions(); o.SampleSize = 128; return o }},
}

// TestSelectionGolden pins what the cascade selects: for every generator
// of the round-trip tables, at every length and option set, the top-level
// scheme, the stream length and a digest of the stream bytes. A selector
// change that moves any choice or byte shows up as a row diff here. Run
// with -update to rewrite the file after an intended change.
func TestSelectionGolden(t *testing.T) {
	var rows []string
	for _, o := range selectionOptions {
		for gi, g := range intSchemes {
			rows = appendSelectionRows(t, rows, "int", g.id.String(), o.name, o.opts(), func(n int) []int64 {
				return g.gen(selectionRand(0, gi, n), n)
			}, EncodeInts)
		}
		for gi, g := range floatSchemes {
			rows = appendSelectionRows(t, rows, "float", g.id.String(), o.name, o.opts(), func(n int) []float64 {
				return g.gen(selectionRand(1, gi, n), n)
			}, EncodeFloats)
		}
		for _, g := range floatEdges {
			rows = appendSelectionRows(t, rows, "float", g.name, o.name, o.opts(), g.gen, EncodeFloats)
		}
		for gi, g := range bytesSchemes {
			rows = appendSelectionRows(t, rows, "bytes", g.id.String(), o.name, o.opts(), func(n int) [][]byte {
				return g.gen(selectionRand(2, gi, n), n)
			}, EncodeBytes)
		}
	}
	got := strings.Join(rows, "\n") + "\n"
	path := filepath.Join("testdata", "selection.golden")
	if *updateSelection {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	wantSet := make(map[string]bool, len(want))
	for _, r := range want {
		wantSet[r] = true
	}
	gotSet := make(map[string]bool, len(rows))
	for _, r := range rows {
		gotSet[r] = true
		if !wantSet[r] {
			t.Errorf("new:  %s", r)
		}
	}
	for _, r := range want {
		if !gotSet[r] {
			t.Errorf("gone: %s", r)
		}
	}
	if !t.Failed() && got != string(raw) {
		t.Error("same rows in a different order")
	}
}

// floatEdges are float pages that compare constant under == but not
// bitwise, or the reverse.
var floatEdges = []struct {
	name string
	gen  func(n int) []float64
}{
	{"signed-zeros", func(n int) []float64 {
		vs := make([]float64, n)
		vs[n/2] = math.Copysign(0, -1)
		return vs
	}},
	{"nan", func(n int) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = math.NaN()
		}
		return vs
	}},
}

// selectionRand seeds each (type, generator, length) cell on its own, so
// a row's data does not depend on which rows ran before it.
func selectionRand(typ, gen, n int) *rand.Rand {
	return rand.New(rand.NewSource(int64(typ*1_000_000 + gen*10_000 + n)))
}

func appendSelectionRows[T any](t *testing.T, rows []string, typ, gen, optName string, opts *Options,
	data func(n int) []T, encode func([]byte, []T, *Options) ([]byte, error),
) []string {
	t.Helper()
	for _, n := range selectionLengths {
		if opts.Cache != nil {
			opts.Cache.BeginPage()
		}
		stream, err := encode(nil, data(n), opts)
		if err != nil {
			t.Fatalf("%s %s n=%d %s: %v", typ, gen, n, optName, err)
		}
		sum := sha256.Sum256(stream)
		rows = append(rows, fmt.Sprintf("%s %s n=%d %s: %v len=%d sha=%s",
			typ, gen, n, optName, TopScheme(stream), len(stream), hex.EncodeToString(sum[:8])))
	}
	return rows
}
