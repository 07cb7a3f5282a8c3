package enc

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// Focused edge cases at scheme boundaries: exact block sizes, exception
// floods, degenerate alphabets, and chunk limits.

func TestPFORExceptionFlood(t *testing.T) {
	// Half the values are far outliers: the 90th-percentile width heuristic
	// must still round-trip (exceptions carry the high bits).
	rng := rand.New(rand.NewSource(91))
	vs := make([]int64, 1000)
	for i := range vs {
		if i%2 == 0 {
			vs[i] = int64(rng.Intn(16))
		} else {
			vs[i] = int64(rng.Intn(1 << 40))
		}
	}
	encoded, err := EncodeIntsWith(nil, PFOR, vs, DefaultOptions())
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
}

func TestBP128ExactBlockBoundaries(t *testing.T) {
	for _, n := range []int{127, 128, 129, 255, 256, 257, 384} {
		vs := make([]int64, n)
		for i := range vs {
			vs[i] = int64(i * 7 % 1000)
		}
		encoded, err := EncodeIntsWith(nil, FastBP128, vs, DefaultOptions())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got, err := DecodeInts(encoded, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range vs {
			if got[i] != vs[i] {
				t.Fatalf("n=%d value %d mismatch", n, i)
			}
		}
	}
}

func TestHuffmanSingleSymbol(t *testing.T) {
	vs := make([]int64, 100)
	for i := range vs {
		vs[i] = 42
	}
	encoded, err := EncodeIntsWith(nil, Huffman, vs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeInts(encoded, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vs {
		if got[i] != 42 {
			t.Fatalf("value %d = %d", i, got[i])
		}
	}
}

func TestHuffmanRejectsWideAlphabet(t *testing.T) {
	vs := make([]int64, maxHuffmanSymbols+100)
	for i := range vs {
		vs[i] = int64(i) // more distinct symbols than the cap
	}
	if _, err := EncodeIntsWith(nil, Huffman, vs, DefaultOptions()); err == nil {
		t.Fatal("wide alphabet accepted")
	}
}

func TestHuffmanTiesAreDeterministic(t *testing.T) {
	// 40 equal-frequency symbols: 24 get 5-bit codes and 16 get 6-bit
	// codes, and which ones is decided purely by tie-breaking.
	vs := make([]int64, 40*25)
	for i := range vs {
		vs[i] = int64(i%40) * 1000
	}
	first, err := EncodeIntsWith(nil, Huffman, vs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 100; k++ {
		again, err := EncodeIntsWith(nil, Huffman, vs, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, first) {
			t.Fatalf("re-encode %d differs from the first", k)
		}
	}
	got, err := DecodeInts(first, len(vs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vs {
		if got[i] != vs[i] {
			t.Fatalf("value %d = %d, want %d", i, got[i], vs[i])
		}
	}
}

func TestChunkedMultiChunk(t *testing.T) {
	// > 256 KB of raw data forces multiple flate chunks.
	n := (ChunkSize/8)*2 + 1000
	rng := rand.New(rand.NewSource(92))
	vs := make([][]byte, n)
	for i := range vs {
		vs[i] = fmt.Appendf(nil, "%07d", rng.Intn(1000)) // compressible
	}
	encoded, err := EncodeBytesWith(nil, ChunkedB, vs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBytes(encoded, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 997 {
		if !bytes.Equal(got[i], vs[i]) {
			t.Fatalf("value %d mismatch", i)
		}
	}
}

func TestRoaringCrossContainerBoundary(t *testing.T) {
	// Bits straddling the 65536-position container boundary.
	n := 3 * 65536
	vs := make([]bool, n)
	for i := 65530; i < 65542; i++ {
		vs[i] = true
	}
	vs[131072] = true
	vs[n-1] = true
	encoded, err := EncodeBoolsWith(nil, Roaring, vs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBools(encoded, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vs {
		if got[i] != vs[i] {
			t.Fatalf("bit %d mismatch", i)
		}
	}
}

func TestDeltaAtSignedExtremes(t *testing.T) {
	// Deltas that individually fit int64 (monotone within range).
	vs := []int64{-1 << 62, 0, 1 << 62}
	encoded, err := EncodeIntsWith(nil, Delta, vs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeInts(encoded, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vs {
		if got[i] != vs[i] {
			t.Fatalf("value %d = %d", i, got[i])
		}
	}
	// Deltas that overflow must be refused.
	if _, err := EncodeIntsWith(nil, Delta, []int64{-1 << 63, 1<<63 - 1}, DefaultOptions()); err == nil {
		t.Fatal("overflowing delta accepted")
	}
}

func TestVarintMaxUint(t *testing.T) {
	vs := []int64{-1} // as uint64: max value, 10-byte varint
	encoded, err := EncodeIntsWith(nil, Varint, vs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeInts(encoded, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != -1 {
		t.Fatalf("got %d", got[0])
	}
}

func TestRLESingleRunWholePage(t *testing.T) {
	vs := make([]int64, 100000)
	for i := range vs {
		vs[i] = 7
	}
	encoded, err := EncodeIntsWith(nil, RLE, vs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(encoded) > 32 {
		t.Fatalf("single run took %d bytes", len(encoded))
	}
	got, err := DecodeInts(encoded, len(vs))
	if err != nil {
		t.Fatal(err)
	}
	if got[99999] != 7 {
		t.Fatal("mismatch")
	}
}

func TestMainlyConstAllExceptions(t *testing.T) {
	// Degenerate: no dominant value. Still round-trips (just not small).
	vs := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	encoded, err := EncodeIntsWith(nil, MainlyConst, vs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeInts(encoded, len(vs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vs {
		if got[i] != vs[i] {
			t.Fatalf("value %d mismatch", i)
		}
	}
}

func TestGorillaAllIdentical(t *testing.T) {
	vs := make([]float64, 10000)
	for i := range vs {
		vs[i] = 3.14159
	}
	encoded, err := EncodeFloatsWith(nil, GorillaF, vs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// First value 8 bytes + 1 bit per repeat ≈ 1258 bytes.
	if len(encoded) > 1400 {
		t.Fatalf("identical floats took %d bytes", len(encoded))
	}
	got, err := DecodeFloats(encoded, len(vs))
	if err != nil {
		t.Fatal(err)
	}
	if got[9999] != 3.14159 {
		t.Fatal("mismatch")
	}
}
