package bullion

// Ablation benchmarks for the paper's open design choices: cascade
// recursion depth (§2.6's open question), sparse restart interval, and the
// normalized-BF16 packing (§2.4 opportunity 2). The §2.5 column-reordering
// comparison is `go run ./cmd/experiments -exp reorder`.

import (
	"fmt"
	"math/rand"
	"testing"

	"bullion/internal/core"
	"bullion/internal/enc"
	"bullion/internal/quant"
	"bullion/internal/sparse"
	"bullion/internal/workload"
)

// BenchmarkAblationCascadeDepth answers §2.6's "what is the ideal recursion
// depth" with measurements: deeper cascades on composite-friendly data.
func BenchmarkAblationCascadeDepth(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(43))
	vs := genBenchRuns(rng, 65536)
	raw := 8 * len(vs)
	for depth := 0; depth <= 3; depth++ {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			opts := enc.DefaultOptions()
			opts.MaxDepth = depth
			var size int
			b.SetBytes(int64(raw))
			for i := 0; i < b.N; i++ {
				encoded, err := enc.EncodeInts(nil, vs, opts)
				if err != nil {
					b.Fatal(err)
				}
				size = len(encoded)
			}
			b.ReportMetric(100*float64(size)/float64(raw), "size_%ofplain")
		})
	}
}

// BenchmarkAblationSparseRestart sweeps the restart interval: shorter
// intervals bound delta chains (cheaper partial decode) at a size cost.
func BenchmarkAblationSparseRestart(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(44))
	vectors := workload.SlidingWindows(rng, 2048, 256, 0.4)
	raw := 0
	for _, v := range vectors {
		raw += 8 * len(v)
	}
	for _, interval := range []int{8, 32, 64, 256} {
		b.Run(fmt.Sprint(interval), func(b *testing.B) {
			b.ReportAllocs()
			opts := sparse.DefaultOptions()
			opts.RestartInterval = interval
			var size int
			b.SetBytes(int64(raw))
			for i := 0; i < b.N; i++ {
				encoded, err := sparse.EncodeColumn(vectors, opts)
				if err != nil {
					b.Fatal(err)
				}
				size = len(encoded)
			}
			b.ReportMetric(100*float64(size)/float64(raw), "size_%ofplain")
		})
	}
}

// BenchmarkNormalizedBF16 measures the §2.4 opportunity: 12-bit packing of
// normalized embeddings vs raw BF16 and the general cascade.
func BenchmarkNormalizedBF16(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(46))
	embs := workload.Embeddings(rng, 2048, 64)
	flat := make([]float32, 0, 2048*64)
	for _, e := range embs {
		flat = append(flat, e...)
	}
	rawBF16 := 2 * len(flat)

	b.Run("pack", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(4 * len(flat)))
		var size int
		for i := 0; i < b.N; i++ {
			size = len(quant.EncodeNormalizedEmbedding(flat))
		}
		b.ReportMetric(100*float64(size)/float64(rawBF16), "size_%ofbf16")
	})
	b.Run("unpack", func(b *testing.B) {
		b.ReportAllocs()
		encoded := quant.EncodeNormalizedEmbedding(flat)
		b.SetBytes(int64(4 * len(flat)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := quant.DecodeNormalizedEmbedding(encoded); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cascade-baseline", func(b *testing.B) {
		b.ReportAllocs()
		bits, err := quant.Quantize(flat, quant.BF16)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(4 * len(flat)))
		var size int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			encoded, err := enc.EncodeInts(nil, bits, enc.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			size = len(encoded)
		}
		b.ReportMetric(100*float64(size)/float64(rawBF16), "size_%ofbf16")
	})
}

// BenchmarkFooterRoundTrip measures the compact footer itself: marshal and
// zero-copy open at production widths.
func BenchmarkFooterOpen(b *testing.B) {
	b.ReportAllocs()
	for _, n := range []int{1000, 10000, 20000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			mf := buildWideBullion(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Open(mf, mf.Size()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
