package enc

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// huffmanBoundStreams returns the streams the Huffman size bound is checked
// on: every intSchemes generator at lengths around the byte and sample
// boundaries, random streams of 1–256 distinct symbols (including extreme
// and negative ones) under uniform and skewed frequencies, and streams
// whose frequencies are powers of two, where a Huffman code meets the
// entropy exactly and the bound is tight.
func huffmanBoundStreams() [][]int64 {
	rng := rand.New(rand.NewSource(35))
	var out [][]int64
	for _, tc := range intSchemes {
		for _, n := range []int{1, 2, 3, 7, 127, 128, 129, 1023, 1024} {
			out = append(out, tc.gen(rng, n))
		}
	}
	for distinct := 1; distinct <= maxHuffmanSymbols/2; distinct++ {
		syms := make([]int64, distinct)
		for i := range syms {
			switch i {
			case 0:
				syms[i] = math.MinInt64
			case 1:
				syms[i] = math.MaxInt64
			case 2:
				syms[i] = -1
			default:
				syms[i] = int64(rng.Uint64()) >> uint(rng.Intn(64))
			}
		}
		for _, n := range []int{distinct, distinct + rng.Intn(1024)} {
			uniform := make([]int64, n)
			skewed := make([]int64, n)
			for i := range uniform {
				uniform[i] = syms[i%distinct]
				if i < distinct {
					skewed[i] = syms[i]
				} else {
					skewed[i] = syms[min(int(rng.ExpFloat64()*3), distinct-1)]
				}
			}
			rng.Shuffle(n, func(i, j int) { uniform[i], uniform[j] = uniform[j], uniform[i] })
			out = append(out, uniform, skewed)
		}
	}
	// Dyadic frequencies: symbol i occurs 2^(k-i) times, the last two
	// symbols once each, so code lengths equal -log2 of the probabilities.
	for k := 1; k <= 9; k++ {
		var vs []int64
		for i := 0; i <= k; i++ {
			reps := 1 << max(k-i, 1) >> 1
			for r := 0; r < reps; r++ {
				vs = append(vs, -int64(i))
			}
		}
		out = append(out, vs)
	}
	return out
}

// TestHuffmanLowerBoundSound: the bound of Huffman's candidate row, over
// statsOf's statistics, never exceeds the real encoding, so choose may skip a
// trial on it without changing the winner, and it is tight on some
// stream, so a bound a byte larger would be caught.
func TestHuffmanLowerBoundSound(t *testing.T) {
	var huffman *candidate
	for i := range intKind.cands {
		if intKind.cands[i].id == Huffman {
			huffman = &intKind.cands[i]
		}
	}
	checked, tight := 0, 0
	for _, vs := range huffmanBoundStreams() {
		s := statsOf(vs)
		if !huffman.gate(s) {
			continue // no trial, no bound
		}
		real, err := encodeHuffmanInts(nil, vs)
		if err != nil {
			t.Fatal(err)
		}
		bound := huffman.bound(s)
		if bound > len(real) {
			t.Fatalf("bound %d > Huffman size %d (n=%d, distinct=%d)", bound, len(real), len(vs), s.distinct)
		}
		checked++
		if bound == len(real) {
			tight++
		}
	}
	if checked < 600 || tight == 0 {
		t.Fatalf("checked %d streams, %d with a tight bound", checked, tight)
	}
}

// TestHuffmanBoundSkipKeepsChoice: choose with the bound-based skip picks
// the same scheme and returns the same trial as choose trial-encoding
// every row, under every option set of the selection golden.
func TestHuffmanBoundSkipKeepsChoice(t *testing.T) {
	unbounded := intKind
	unbounded.cands = append([]candidate(nil), intKind.cands...)
	for i := range unbounded.cands {
		unbounded.cands[i].bound = nil
	}
	streams := huffmanBoundStreams()
	for _, o := range selectionOptions {
		opts := o.opts()
		for i, vs := range streams {
			if (o.name == "default" && i%2 != 0) || (o.name != "default" && i%9 != 0) {
				continue // a subset of the streams per option set keeps this quick
			}
			gotID, gotTrial := choose(&intKind, vs, opts, 0)
			wantID, wantTrial := choose(&unbounded, vs, opts, 0)
			if gotID != wantID || !bytes.Equal(gotTrial, wantTrial) {
				t.Fatalf("%s stream %d: skip picked %v, full trials %v", o.name, i, gotID, wantID)
			}
		}
	}
}
