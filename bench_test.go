package bullion

// One benchmark per table/figure in the paper's evaluation, mirroring the
// cmd/experiments harness (internal/experiments holds each experiment
// and prints paper-vs-measured tables). Run with:
//
//	go test -bench=. -benchmem
//
// Custom metrics report the shape the paper cares about (compressed size
// ratios, bytes written, bytes hashed) alongside ns/op.

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"bullion/internal/core"
	"bullion/internal/enc"
	"bullion/internal/iostats"
	"bullion/internal/legacy"
	"bullion/internal/merkle"
	"bullion/internal/multimodal"
	"bullion/internal/quant"
	"bullion/internal/sparse"
	"bullion/internal/workload"
)

type benchFile struct{ data []byte }

func (m *benchFile) Write(p []byte) (int, error) {
	m.data = append(m.data, p...)
	return len(p), nil
}

func (m *benchFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (m *benchFile) WriteAt(p []byte, off int64) (int, error) {
	return copy(m.data[off:], p), nil
}

func (m *benchFile) Size() int64 { return int64(len(m.data)) }

// ---- Figure 1: observational census (completeness) ----

func BenchmarkFig1Census(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c := workload.Figure1Census(); len(c) != 10 {
			b.Fatal("census size")
		}
	}
}

// ---- Figure 2: Merkle update vs monolithic re-checksum ----

func fig2Pages(b *testing.B) [][][]byte {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	gp := make([][][]byte, 16)
	for g := range gp {
		gp[g] = make([][]byte, 16)
		for p := range gp[g] {
			buf := make([]byte, 64<<10)
			rng.Read(buf)
			gp[g][p] = buf
		}
	}
	return gp
}

func BenchmarkFig2MerkleUpdate(b *testing.B) {
	b.ReportAllocs()
	gp := fig2Pages(b)
	tree := merkle.Build(gp)
	newPage := make([]byte, 64<<10)
	rand.New(rand.NewSource(9)).Read(newPage)
	tree.ResetCounter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tree.Update(i%16, (i/16)%16, newPage); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tree.HashedBytes())/float64(b.N), "hashed_B/op")
}

func BenchmarkFig2MonolithicChecksum(b *testing.B) {
	b.ReportAllocs()
	gp := fig2Pages(b)
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		_, n := merkle.MonolithicChecksum(gp)
		total += n
	}
	b.ReportMetric(float64(total)/float64(b.N), "hashed_B/op")
}

// ---- Table 1: ads schema generation and histogram ----

func BenchmarkTab1AdsSchema(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := workload.AdsSchema(10, true)
		if err != nil {
			b.Fatal(err)
		}
		if len(workload.SchemaBreakdown(s)) == 0 {
			b.Fatal("empty breakdown")
		}
	}
}

// ---- Figure 4: sparse sliding-window delta vs baselines ----

func fig4Vectors(b *testing.B) ([][]int64, []int64, int) {
	b.Helper()
	rng := rand.New(rand.NewSource(11))
	vectors := workload.SlidingWindows(rng, 2048, 256, 0.4)
	var flat []int64
	raw := 0
	for _, v := range vectors {
		flat = append(flat, v...)
		raw += 8 * len(v)
	}
	return vectors, flat, raw
}

func BenchmarkFig4SparseDeltaEncode(b *testing.B) {
	b.ReportAllocs()
	vectors, _, raw := fig4Vectors(b)
	b.SetBytes(int64(raw))
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := sparse.EncodeColumn(vectors, sparse.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		size = len(out)
	}
	b.ReportMetric(100*float64(size)/float64(raw), "size_%ofplain")
}

func BenchmarkFig4SparseDeltaDecode(b *testing.B) {
	b.ReportAllocs()
	vectors, _, raw := fig4Vectors(b)
	encoded, err := sparse.EncodeColumn(vectors, sparse.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(raw))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sparse.DecodeColumn(encoded); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4BaselineChunked(b *testing.B) {
	b.ReportAllocs()
	_, flat, raw := fig4Vectors(b)
	b.SetBytes(int64(raw))
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := enc.EncodeIntsWith(nil, enc.Chunked, flat, enc.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		size = len(out)
	}
	b.ReportMetric(100*float64(size)/float64(raw), "size_%ofplain")
}

func BenchmarkFig4BaselinePlain(b *testing.B) {
	b.ReportAllocs()
	_, flat, raw := fig4Vectors(b)
	b.SetBytes(int64(raw))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.EncodeIntsWith(nil, enc.Plain, flat, enc.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 5: metadata parsing vs feature count ----

func buildWideBullion(b *testing.B, n int) *benchFile {
	b.Helper()
	fields := make([]core.Field, n)
	cols := make([]core.ColumnData, n)
	vals := core.Int64Data{1, 2, 3, 4}
	for i := 0; i < n; i++ {
		fields[i] = core.Field{Name: fmt.Sprintf("feat_%06d", i), Type: core.Type{Kind: core.Int64}}
		cols[i] = vals
	}
	schema, err := core.NewSchema(fields...)
	if err != nil {
		b.Fatal(err)
	}
	mf := &benchFile{}
	opts := core.DefaultOptions()
	opts.Compliance = core.Level0
	w, err := core.NewWriter(mf, schema, opts)
	if err != nil {
		b.Fatal(err)
	}
	batch, err := core.NewBatch(schema, cols)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Write(batch); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return mf
}

func buildWideLegacy(b *testing.B, n int) *benchFile {
	b.Helper()
	schema := make([]legacy.SchemaElement, n)
	cols := make([]any, n)
	vals := []int64{1, 2, 3, 4}
	for i := 0; i < n; i++ {
		schema[i] = legacy.SchemaElement{Name: fmt.Sprintf("feat_%06d", i), Type: legacy.TypeInt64}
		cols[i] = vals
	}
	mf := &benchFile{}
	if err := legacy.NewWriter(schema).WriteFile(mf, cols, 4); err != nil {
		b.Fatal(err)
	}
	return mf
}

func BenchmarkFig5MetadataBullion(b *testing.B) {
	b.ReportAllocs()
	for _, n := range []int{1000, 5000, 10000, 20000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			mf := buildWideBullion(b, n)
			target := fmt.Sprintf("feat_%06d", n/2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := core.Open(mf, mf.Size())
				if err != nil {
					b.Fatal(err)
				}
				if _, ok := f.LookupColumn(target); !ok {
					b.Fatal("lookup failed")
				}
			}
		})
	}
}

func BenchmarkFig5MetadataLegacy(b *testing.B) {
	b.ReportAllocs()
	for _, n := range []int{1000, 5000, 10000, 20000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			mf := buildWideLegacy(b, n)
			target := fmt.Sprintf("feat_%06d", n/2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := legacy.Open(mf, mf.Size())
				if err != nil {
					b.Fatal(err)
				}
				if _, ok := f.LookupColumn(target); !ok {
					b.Fatal("lookup failed")
				}
			}
		})
	}
}

// ---- Figure 6: storage quantization ----

func fig6Embeddings(b *testing.B) []float32 {
	b.Helper()
	rng := rand.New(rand.NewSource(13))
	embs := workload.Embeddings(rng, 2048, 64)
	flat := make([]float32, 0, 2048*64)
	for _, e := range embs {
		flat = append(flat, e...)
	}
	return flat
}

func BenchmarkFig6Quantize(b *testing.B) {
	b.ReportAllocs()
	flat := fig6Embeddings(b)
	for _, f := range workload.QuantTargets() {
		b.Run(f.String(), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(4 * len(flat)))
			var stored int
			for i := 0; i < b.N; i++ {
				bits, err := quant.Quantize(flat, f)
				if err != nil {
					b.Fatal(err)
				}
				encoded, err := enc.EncodeInts(nil, bits, enc.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				stored = len(encoded)
			}
			b.ReportMetric(100*float64(stored)/float64(4*len(flat)), "size_%offp32")
		})
	}
}

func BenchmarkFig6Dequantize(b *testing.B) {
	b.ReportAllocs()
	flat := fig6Embeddings(b)
	for _, f := range workload.QuantTargets() {
		b.Run(f.String(), func(b *testing.B) {
			b.ReportAllocs()
			bits, err := quant.Quantize(flat, f)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(4 * len(flat)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := quant.Dequantize(bits, f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Figure 7: quality-aware multimodal reads ----

func fig7Dataset(b *testing.B, presort bool) (*core.File, *iostats.Counters) {
	b.Helper()
	rng := rand.New(rand.NewSource(17))
	samples := multimodal.GenerateSamples(rng, 8000)
	metaOut := &benchFile{}
	mediaOut := &benchFile{}
	if err := multimodal.WriteDataset(metaOut, mediaOut, samples, presort); err != nil {
		b.Fatal(err)
	}
	var c iostats.Counters
	c.Reset()
	f, err := core.Open(&iostats.ReaderAt{R: metaOut, C: &c}, metaOut.Size())
	if err != nil {
		b.Fatal(err)
	}
	return f, &c
}

func BenchmarkFig7QualityAwarePresorted(b *testing.B) {
	b.ReportAllocs()
	f, c := fig7Dataset(b, true)
	b.ResetTimer()
	var bytesRead int64
	for i := 0; i < b.N; i++ {
		before := c.Snapshot()
		stats, err := multimodal.TrainingRead(f, c, nil, nil, 0.7, 0, true)
		if err != nil {
			b.Fatal(err)
		}
		if stats.SamplesRead == 0 {
			b.Fatal("no samples selected")
		}
		bytesRead += c.Snapshot().Sub(before).ReadBytes
	}
	b.ReportMetric(float64(bytesRead)/float64(b.N), "read_B/op")
}

func BenchmarkFig7QualityAwareUnsorted(b *testing.B) {
	b.ReportAllocs()
	f, c := fig7Dataset(b, false)
	b.ResetTimer()
	var bytesRead int64
	for i := 0; i < b.N; i++ {
		before := c.Snapshot()
		stats, err := multimodal.TrainingRead(f, c, nil, nil, 0.7, 0, false)
		if err != nil {
			b.Fatal(err)
		}
		if stats.SamplesRead == 0 {
			b.Fatal("no samples selected")
		}
		bytesRead += c.Snapshot().Sub(before).ReadBytes
	}
	b.ReportMetric(float64(bytesRead)/float64(b.N), "read_B/op")
}

// ---- Table 2: encoding catalog ----

func benchIntScheme(b *testing.B, id enc.SchemeID, gen func(*rand.Rand, int) []int64) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(19))
	vs := gen(rng, 65536)
	raw := 8 * len(vs)
	opts := enc.DefaultOptions()
	encoded, err := enc.EncodeIntsWith(nil, id, vs, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(raw))
		for i := 0; i < b.N; i++ {
			if _, err := enc.EncodeIntsWith(nil, id, vs, opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(100*float64(len(encoded))/float64(raw), "size_%ofplain")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(raw))
		for i := 0; i < b.N; i++ {
			if _, err := enc.DecodeInts(encoded, len(vs)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func genBenchRuns(rng *rand.Rand, n int) []int64 {
	vs := make([]int64, n)
	for i := 0; i < n; {
		v := int64(rng.Intn(8))
		l := rng.Intn(30) + 1
		for j := 0; j < l && i < n; j++ {
			vs[i] = v
			i++
		}
	}
	return vs
}

func genBenchSorted(rng *rand.Rand, n int) []int64 {
	vs := make([]int64, n)
	cur := int64(0)
	for i := range vs {
		cur += int64(rng.Intn(50))
		vs[i] = cur
	}
	return vs
}

func genBenchSmall(rng *rand.Rand, n int) []int64 {
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = int64(rng.Intn(100000))
	}
	return vs
}

func genBenchClustered(rng *rand.Rand, n int) []int64 {
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = 1<<41 + int64(rng.Intn(1<<14))
	}
	return vs
}

func genBenchLowCard(rng *rand.Rand, n int) []int64 {
	domain := []int64{3, 1 << 20, -9, 42, 7777}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = domain[rng.Intn(len(domain))]
	}
	return vs
}

func BenchmarkTab2RLE(b *testing.B)        { benchIntScheme(b, enc.RLE, genBenchRuns) }
func BenchmarkTab2Dict(b *testing.B)       { benchIntScheme(b, enc.Dict, genBenchLowCard) }
func BenchmarkTab2Delta(b *testing.B)      { benchIntScheme(b, enc.Delta, genBenchSorted) }
func BenchmarkTab2FOR(b *testing.B)        { benchIntScheme(b, enc.FOR, genBenchClustered) }
func BenchmarkTab2PFOR(b *testing.B)       { benchIntScheme(b, enc.PFOR, genBenchClustered) }
func BenchmarkTab2BP128(b *testing.B)      { benchIntScheme(b, enc.FastBP128, genBenchSmall) }
func BenchmarkTab2BitPack(b *testing.B)    { benchIntScheme(b, enc.BitPack, genBenchSmall) }
func BenchmarkTab2Varint(b *testing.B)     { benchIntScheme(b, enc.Varint, genBenchSmall) }
func BenchmarkTab2Huffman(b *testing.B)    { benchIntScheme(b, enc.Huffman, genBenchLowCard) }
func BenchmarkTab2BitShuffle(b *testing.B) { benchIntScheme(b, enc.BitShuffle, genBenchSmall) }
func BenchmarkTab2Chunked(b *testing.B)    { benchIntScheme(b, enc.Chunked, genBenchRuns) }

func BenchmarkTab2Gorilla(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(21))
	vs := make([]float64, 65536)
	f := 100.0
	for i := range vs {
		// Sensor-style series: a quantized random walk, Gorilla's target
		// shape (matching the tab2 experiment).
		f += rng.NormFloat64()
		vs[i] = math.Round(f*4) / 4
	}
	raw := 8 * len(vs)
	opts := enc.DefaultOptions()
	encoded, err := enc.EncodeFloatsWith(nil, enc.GorillaF, vs, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(raw))
		for i := 0; i < b.N; i++ {
			if _, err := enc.EncodeFloatsWith(nil, enc.GorillaF, vs, opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(100*float64(len(encoded))/float64(raw), "size_%ofplain")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(raw))
		for i := 0; i < b.N; i++ {
			if _, err := enc.DecodeFloats(encoded, len(vs)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkTab2FSST(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(23))
	urls := make([][]byte, 8192)
	raw := 0
	for i := range urls {
		urls[i] = []byte(fmt.Sprintf("https://cdn.example.com/v/%08x?t=%d", rng.Uint32(), rng.Intn(600)))
		raw += len(urls[i])
	}
	opts := enc.DefaultOptions()
	encoded, err := enc.EncodeBytesWith(nil, enc.FSST, urls, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(raw))
		for i := 0; i < b.N; i++ {
			if _, err := enc.EncodeBytesWith(nil, enc.FSST, urls, opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(100*float64(len(encoded))/float64(raw), "size_%ofplain")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(raw))
		for i := 0; i < b.N; i++ {
			if _, err := enc.DecodeBytes(encoded, len(urls)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTab2Cascade measures the full selector (the adaptive path the
// writer actually uses).
func BenchmarkTab2Cascade(b *testing.B) {
	b.ReportAllocs()
	for _, tc := range []struct {
		name string
		gen  func(*rand.Rand, int) []int64
	}{
		{"runs", genBenchRuns}, {"sorted", genBenchSorted},
		{"clustered", genBenchClustered}, {"lowcard", genBenchLowCard},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(29))
			vs := tc.gen(rng, 65536)
			raw := 8 * len(vs)
			opts := enc.DefaultOptions()
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

// ---- §2.1 deletion: in-place vs rewrite ----

func deletionFixture(b *testing.B) (*benchFile, *core.Schema, *core.Batch, *core.Options) {
	b.Helper()
	const rows = 50000
	schema, err := core.NewSchema(
		core.Field{Name: "uid", Type: core.Type{Kind: core.Int64}},
		core.Field{Name: "ad_id", Type: core.Type{Kind: core.Int64}},
		core.Field{Name: "label", Type: core.Type{Kind: core.Float64}},
		core.Field{Name: "tag", Type: core.Type{Kind: core.String}},
	)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	uid := make(core.Int64Data, rows)
	adID := make(core.Int64Data, rows)
	label := make(core.Float64Data, rows)
	tag := make(core.BytesData, rows)
	for i := 0; i < rows; i++ {
		uid[i] = int64(i / 100)
		adID[i] = 1<<40 + int64(i)
		label[i] = rng.Float64()
		tag[i] = []byte(fmt.Sprintf("u%d-r%d", uid[i], i))
	}
	batch, err := core.NewBatch(schema, []core.ColumnData{uid, adID, label, tag})
	if err != nil {
		b.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.RowsPerPage = 512
	opts.GroupRows = 1 << 14
	opts.Compliance = core.Level2
	mf := &benchFile{}
	w, err := core.NewWriter(mf, schema, opts)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.Write(batch); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return mf, schema, batch, opts
}

func BenchmarkDeletionInPlace(b *testing.B) {
	b.ReportAllocs()
	master, _, _, _ := deletionFixture(b)
	del := make([]uint64, 1000) // 2% of rows, clustered (one user's span)
	for i := range del {
		del[i] = uint64(20000 + i)
	}
	b.ResetTimer()
	var written int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		mf := &benchFile{data: append([]byte{}, master.data...)}
		f, err := core.Open(mf, mf.Size())
		if err != nil {
			b.Fatal(err)
		}
		var c iostats.Counters
		c.Reset()
		b.StartTimer()
		if err := f.DeleteRows(&iostats.WriterAt{W: mf, C: &c}, del); err != nil {
			b.Fatal(err)
		}
		written += c.Snapshot().WriteBytes
	}
	b.ReportMetric(float64(written)/float64(b.N), "written_B/op")
}

func BenchmarkDeletionRewrite(b *testing.B) {
	b.ReportAllocs()
	master, _, _, opts := deletionFixture(b)
	f, err := core.Open(master, master.Size())
	if err != nil {
		b.Fatal(err)
	}
	del := make([]uint64, 1000)
	for i := range del {
		del[i] = uint64(20000 + i)
	}
	b.ResetTimer()
	var written int64
	for i := 0; i < b.N; i++ {
		var c iostats.Counters
		c.Reset()
		out := &iostats.Writer{W: &benchFile{}, C: &c}
		if _, err := f.RewriteWithoutRows(out, del, opts); err != nil {
			b.Fatal(err)
		}
		written += c.Snapshot().WriteBytes
	}
	b.ReportMetric(float64(written)/float64(b.N), "written_B/op")
}

// ---- Ablation: Level-2 maskable-cascade restriction cost ----
//
// Compliance costs compression: Level-2 files
// restrict the cascade to mask-safe schemes and reserve page slack. This
// bench quantifies that storage overhead against a Level-0 write.

func BenchmarkAblationComplianceOverhead(b *testing.B) {
	b.ReportAllocs()
	schema, err := core.NewSchema(
		core.Field{Name: "ts", Type: core.Type{Kind: core.Int64}},
		core.Field{Name: "val", Type: core.Type{Kind: core.Float64}},
	)
	if err != nil {
		b.Fatal(err)
	}
	const rows = 50000
	rng := rand.New(rand.NewSource(37))
	ts := make(core.Int64Data, rows)
	val := make(core.Float64Data, rows)
	cur := int64(1700000000)
	f := 100.0
	for i := 0; i < rows; i++ {
		cur += int64(rng.Intn(5))
		ts[i] = cur
		f += rng.NormFloat64()
		val[i] = f
	}
	batch, err := core.NewBatch(schema, []core.ColumnData{ts, val})
	if err != nil {
		b.Fatal(err)
	}
	sizes := map[core.Level]int64{}
	for _, level := range []core.Level{core.Level0, core.Level2} {
		opts := core.DefaultOptions()
		opts.Compliance = level
		mf := &benchFile{}
		w, err := core.NewWriter(mf, schema, opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Write(batch); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		sizes[level] = mf.Size()
	}
	for i := 0; i < b.N; i++ {
		_ = sizes
	}
	b.ReportMetric(float64(sizes[core.Level0]), "level0_B")
	b.ReportMetric(float64(sizes[core.Level2]), "level2_B")
	b.ReportMetric(100*float64(sizes[core.Level2]-sizes[core.Level0])/float64(sizes[core.Level0]), "overhead_%")
}

// ---- End-to-end: write/scan throughput of the full format ----

func BenchmarkEndToEndWrite(b *testing.B) {
	b.ReportAllocs()
	_, schema, batch, opts := deletionFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mf := &benchFile{}
		w, err := core.NewWriter(mf, schema, opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Write(batch); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEndToEndProject(b *testing.B) {
	b.ReportAllocs()
	master, _, _, _ := deletionFixture(b)
	f, err := core.Open(master, master.Size())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch, err := f.Project("uid", "label")
		if err != nil {
			b.Fatal(err)
		}
		if batch.NumRows() != 50000 {
			b.Fatal("row count")
		}
	}
}
