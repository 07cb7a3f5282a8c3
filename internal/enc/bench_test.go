package enc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Per-scheme decode microbenchmarks: a decode-bound scan (bench/README.md,
// enc.decode_mb_per_s) bottoms out in these inner loops, so each scheme gets a
// GB/s number (SetBytes counts decoded output bytes, 8 per value) and an
// allocs/op count. Fixed-width kernel decodes (FixedBitWidth, FOR,
// SIMDFastPFOR, SIMDFastBP128, DeltaDelta, Dictionary, ALP) must stay at 0
// allocs/op — CI enforces the ceiling on BenchmarkDecode/FixedBitWidth,
// BenchmarkDecode/FOR, BenchmarkDecode/Dictionary and BenchmarkDecode/ALP.
// Run with:
//
//	go test -run xxx -bench BenchmarkDecode -benchmem ./internal/enc
const decodeBenchN = 8192

// decodeBenchCases pairs every integer scheme with data it compresses
// well, mirroring intSchemes' live rows but sized for steady-state decode.
var decodeBenchCases = []struct {
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
	{DeltaDelta, genTimestamps},
	{FOR, genClustered},
	{PFOR, genClusteredWithOutliers},
	{FastBP128, genSmallSigned},
	{Constant, genConstant},
	{MainlyConst, genMainlyConstant},
	{Huffman, genLowCardinality},
}

func BenchmarkDecode(b *testing.B) {
	opts := DefaultOptions()
	for _, tc := range decodeBenchCases {
		b.Run(tc.id.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(41))
			vs := tc.gen(rng, decodeBenchN)
			encoded, err := EncodeIntsWith(nil, tc.id, vs, opts)
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]int64, decodeBenchN)
			b.SetBytes(8 * decodeBenchN)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeIntsInto(dst, encoded); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, fc := range []struct {
		id  SchemeID
		gen func(rng *rand.Rand, n int) []float64
	}{
		{PlainF, genFloatsUniform},
		{GorillaF, genFloatsWalk},
		{ChimpF, genFloatsWalk},
		{ALPF, genDecimals},
	} {
		b.Run(fc.id.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(43))
			vs := fc.gen(rng, decodeBenchN)
			encoded, err := EncodeFloatsWith(nil, fc.id, vs, opts)
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]float64, decodeBenchN)
			b.SetBytes(8 * decodeBenchN)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeFloatsInto(dst, encoded); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// genTimestamps produces millisecond-spaced timestamps with small jitter —
// the metrics-shaped workload delta-of-delta is built for.
func genTimestamps(rng *rand.Rand, n int) []int64 {
	vs := make([]int64, n)
	cur := int64(1_700_000_000_000)
	for i := range vs {
		cur += 1000 + int64(rng.Intn(9)) - 4
		vs[i] = cur
	}
	return vs
}

func genFloatsUniform(rng *rand.Rand, n int) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = math.Float64frombits(rng.Uint64())
	}
	return vs
}

// genFloatsWalk is a slowly drifting gauge: successive values share most
// mantissa bits, the regime Gorilla/Chimp compress.
func genFloatsWalk(rng *rand.Rand, n int) []float64 {
	vs := make([]float64, n)
	cur := 100.0
	for i := range vs {
		cur += float64(rng.Intn(17)-8) * 0.25
		vs[i] = cur
	}
	return vs
}

// BenchmarkUnpackWidths isolates the raw bit-unpack kernel per width
// band (the inner loop of FixedBitWidth/FOR/PFOR/FastBP128).
func BenchmarkUnpackWidths(b *testing.B) {
	for _, w := range []int{1, 7, 20, 33, 57, 63} {
		b.Run(fmt.Sprintf("width_%d", w), func(b *testing.B) {
			rng := rand.New(rand.NewSource(47))
			vs := make([]int64, decodeBenchN)
			limit := int64(1)<<uint(w) - 1
			if w == 63 {
				limit = math.MaxInt64
			}
			for i := range vs {
				vs[i] = rng.Int63n(limit + 1)
			}
			encoded, err := EncodeIntsWith(nil, BitPack, vs, DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]int64, decodeBenchN)
			b.SetBytes(8 * decodeBenchN)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeIntsInto(dst, encoded); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
