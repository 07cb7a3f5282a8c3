// Package experiments reproduces every table and figure in the paper's
// evaluation. Each runner prints the same rows/series the paper reports;
// cmd/experiments exposes them on the command line and the repository's
// benchmarks exercise the same code paths under testing.B.
//
// Absolute numbers will differ from the paper (laptop vs ByteDance's
// testbed; flate vs zstd; Go vs C++), but the shapes — who wins, by
// roughly what factor, where the crossovers fall — are the reproduction
// target. The end-to-end numbers this repository gates on come from the
// lifecycle benchmark instead; see bench/README.md.
package experiments

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

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

// memFile is an in-memory file for experiment I/O.
type memFile struct{ data []byte }

// NewMemFile returns an empty in-memory file.
func newMemFile() *memFile { return &memFile{} }

func (m *memFile) Write(p []byte) (int, error) {
	m.data = append(m.data, p...)
	return len(p), nil
}

func (m *memFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (m *memFile) WriteAt(p []byte, off int64) (int, error) {
	if int(off)+len(p) > len(m.data) {
		return 0, fmt.Errorf("memFile: WriteAt beyond end")
	}
	return copy(m.data[off:], p), nil
}

func (m *memFile) Size() int64 { return int64(len(m.data)) }

// Fig1 prints the top-10 ad-table size census (observational: reproduces
// the published distribution's shape; ByteDance's absolute bytes are not
// reproducible outside their fleet).
func Fig1(w io.Writer) error {
	fmt.Fprintln(w, "Figure 1: Top 10 Ad tables in CN region (synthetic census, paper-shaped)")
	fmt.Fprintln(w, "table  size_pb  bar")
	for _, t := range workload.Figure1Census() {
		bar := ""
		for i := 0; i < int(t.SizePB/2); i++ {
			bar += "#"
		}
		fmt.Fprintf(w, "%-6s %7.0f  %s\n", t.Name, t.SizePB, bar)
	}
	return nil
}

// Fig2 compares checksum-maintenance cost after a single page update:
// Merkle path recompute vs monolithic whole-file re-hash (Figure 2).
func Fig2(w io.Writer) error {
	fmt.Fprintln(w, "Figure 2: checksum maintenance after one page update")
	fmt.Fprintln(w, "groups pages/grp page_kb   merkle_bytes monolithic_bytes  reduction")
	rng := rand.New(rand.NewSource(7))
	for _, geo := range []struct{ groups, pages, pageKB int }{
		{4, 8, 64}, {16, 16, 64}, {16, 16, 256}, {64, 32, 256},
	} {
		gp := make([][][]byte, geo.groups)
		for g := range gp {
			gp[g] = make([][]byte, geo.pages)
			for p := range gp[g] {
				b := make([]byte, geo.pageKB<<10)
				rng.Read(b)
				gp[g][p] = b
			}
		}
		tree := merkle.Build(gp)
		tree.ResetCounter()
		newPage := make([]byte, geo.pageKB<<10)
		rng.Read(newPage)
		if err := tree.Update(geo.groups/2, geo.pages/2, newPage); err != nil {
			return err
		}
		incremental := tree.HashedBytes()
		_, monolithic := merkle.MonolithicChecksum(gp)
		fmt.Fprintf(w, "%6d %9d %7d %14d %16d %9.0fx\n",
			geo.groups, geo.pages, geo.pageKB, incremental, monolithic,
			float64(monolithic)/float64(incremental))
	}
	return nil
}

// Tab1 prints the generated ads schema's type histogram next to the
// paper's Table 1.
func Tab1(w io.Writer) error {
	fmt.Fprintln(w, "Table 1: column-type breakdown of the ads table")
	fmt.Fprintf(w, "%-38s %8s\n", "column type", "# columns")
	for _, r := range workload.Table1 {
		fmt.Fprintf(w, "%-38s %8d\n", r.TypeName, r.Count)
	}
	fmt.Fprintf(w, "%-38s %8d\n", "total (logical)", workload.Table1Total())
	schema, err := workload.AdsSchema(1, true)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ngenerated Bullion schema: %d leaf columns after Alpha-style struct\n", len(schema.Fields))
	fmt.Fprintln(w, "flattening; leaf histogram:")
	for _, r := range workload.SchemaBreakdown(schema) {
		fmt.Fprintf(w, "%-38s %8d\n", r.TypeName, r.Count)
	}
	return nil
}

// Fig4 measures the §2.2 sliding-window delta encoding against the
// general-purpose alternatives on clk_seq_cids-style data (Figures 3-4).
func Fig4(w io.Writer) error {
	fmt.Fprintln(w, "Figure 4 (and §2.2 claim): long-sequence sparse feature encoding")
	rng := rand.New(rand.NewSource(11))
	vectors := workload.SlidingWindows(rng, 4096, 256, 0.4)
	plainSize := 0
	for _, v := range vectors {
		plainSize += 8 * len(v)
	}

	encOpts := enc.DefaultOptions()
	flat := make([]int64, 0, plainSize/8)
	for _, v := range vectors {
		flat = append(flat, v...)
	}

	type row struct {
		name    string
		size    int
		encTime time.Duration
		decTime time.Duration
	}
	var rows []row

	// Bullion sparse delta.
	start := time.Now()
	sparseBytes, err := sparse.EncodeColumn(vectors, sparse.DefaultOptions())
	if err != nil {
		return err
	}
	encT := time.Since(start)
	start = time.Now()
	if _, err := sparse.DecodeColumn(sparseBytes); err != nil {
		return err
	}
	rows = append(rows, row{"bullion sparse delta", len(sparseBytes), encT, time.Since(start)})

	for _, alt := range []struct {
		name string
		id   enc.SchemeID
	}{
		{"plain", enc.Plain},
		{"dict", enc.Dict},
		{"fastbp128", enc.FastBP128},
	} {
		start = time.Now()
		encoded, err := enc.EncodeIntsWith(nil, alt.id, flat, encOpts)
		if err != nil {
			return err
		}
		encT := time.Since(start)
		start = time.Now()
		if _, err := enc.DecodeInts(encoded, len(flat)); err != nil {
			return err
		}
		// Alternatives also need the per-vector length stream; sliding
		// windows are fixed-width here so charge a token 1 byte/vector.
		rows = append(rows, row{alt.name + " (values only)", len(encoded) + len(vectors), encT, time.Since(start)})
	}
	// The general-purpose baseline: DEFLATE over the raw little-endian
	// values, stored as one ChunkedBytes blob.
	raw := make([]byte, 0, plainSize)
	for _, v := range flat {
		raw = binary.LittleEndian.AppendUint64(raw, uint64(v))
	}
	start = time.Now()
	encoded, err := enc.EncodeBytesWith(nil, enc.ChunkedB, [][]byte{raw}, encOpts)
	if err != nil {
		return err
	}
	encT = time.Since(start)
	start = time.Now()
	if _, err := enc.DecodeBytes(encoded, 1); err != nil {
		return err
	}
	rows = append(rows, row{"chunked (values only)", len(encoded) + len(vectors), encT, time.Since(start)})

	fmt.Fprintf(w, "%d vectors x 256 int64 = %d raw bytes\n\n", len(vectors), plainSize)
	fmt.Fprintf(w, "%-26s %12s %9s %10s %10s\n", "encoding", "bytes", "vs plain", "encode", "decode")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %12d %8.1f%% %10s %10s\n",
			r.name, r.size, 100*float64(r.size)/float64(plainSize), r.encTime.Round(time.Millisecond), r.decTime.Round(time.Millisecond))
	}
	st, err := sparse.Analyze(vectors, sparse.DefaultOptions())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nsparse codec: %d base + %d delta vectors; %d of %d values stored (%.1f%%)\n",
		st.BaseVectors, st.DeltaVectors, st.ValuesStored, st.ValuesTotal,
		100*float64(st.ValuesStored)/float64(st.ValuesTotal))
	return nil
}

// Fig5 measures metadata parsing for wide-table projection: time to open a
// file and locate one column, Bullion vs the Parquet-like baseline, as
// the column count grows (Figure 5; paper: Parquet ~52 ms at 10k columns
// and linear, Bullion ~1.2 ms and flat).
func Fig5(w io.Writer, featureCounts []int) error {
	if len(featureCounts) == 0 {
		featureCounts = []int{1000, 5000, 10000, 20000}
	}
	fmt.Fprintln(w, "Figure 5: metadata parsing overhead in feature projection")
	fmt.Fprintf(w, "%-10s %16s %16s %8s\n", "#features", "legacy(ms)", "bullion(ms)", "ratio")
	const iters = 20
	for _, n := range featureCounts {
		legacyFile, bullionFile, err := buildWideFiles(n)
		if err != nil {
			return err
		}
		target := fmt.Sprintf("feat_%06d", n/2)

		start := time.Now()
		for i := 0; i < iters; i++ {
			lf, err := legacy.Open(legacyFile, legacyFile.Size())
			if err != nil {
				return err
			}
			if _, ok := lf.LookupColumn(target); !ok {
				return fmt.Errorf("legacy lookup failed")
			}
		}
		legacyMS := float64(time.Since(start).Microseconds()) / 1000 / iters

		start = time.Now()
		for i := 0; i < iters; i++ {
			bf, err := core.Open(bullionFile, bullionFile.Size())
			if err != nil {
				return err
			}
			if _, ok := bf.LookupColumn(target); !ok {
				return fmt.Errorf("bullion lookup failed")
			}
		}
		bullionMS := float64(time.Since(start).Microseconds()) / 1000 / iters

		fmt.Fprintf(w, "%-10d %16.3f %16.3f %7.0fx\n", n, legacyMS, bullionMS, legacyMS/bullionMS)
	}
	return nil
}

// buildWideFiles writes matching n-feature files in both formats with a
// single tiny row group (the metadata, not the data, is the subject).
func buildWideFiles(n int) (*memFile, *memFile, error) {
	const rows = 8
	// Legacy.
	lSchema := make([]legacy.SchemaElement, n)
	lCols := make([]any, n)
	vals := make([]int64, rows)
	for r := range vals {
		vals[r] = int64(r)
	}
	for i := 0; i < n; i++ {
		lSchema[i] = legacy.SchemaElement{Name: fmt.Sprintf("feat_%06d", i), Type: legacy.TypeInt64}
		lCols[i] = vals
	}
	lf := newMemFile()
	if err := legacy.NewWriter(lSchema).WriteFile(lf, lCols, rows); err != nil {
		return nil, nil, err
	}

	// Bullion.
	bFields := make([]core.Field, n)
	bCols := make([]core.ColumnData, n)
	for i := 0; i < n; i++ {
		bFields[i] = core.Field{Name: fmt.Sprintf("feat_%06d", i), Type: core.Type{Kind: core.Int64}}
		bCols[i] = core.Int64Data(vals)
	}
	schema, err := core.NewSchema(bFields...)
	if err != nil {
		return nil, nil, err
	}
	bf := newMemFile()
	opts := core.DefaultOptions()
	opts.Compliance = core.Level0 // match the legacy file: no slack pages
	bw, err := core.NewWriter(bf, schema, opts)
	if err != nil {
		return nil, nil, err
	}
	batch, err := core.NewBatch(schema, bCols)
	if err != nil {
		return nil, nil, err
	}
	if err := bw.Write(batch); err != nil {
		return nil, nil, err
	}
	if err := bw.Close(); err != nil {
		return nil, nil, err
	}
	return lf, bf, nil
}

// Fig6 measures storage quantization: footprint and precision per Figure 6
// format on normalized embeddings.
func Fig6(w io.Writer) error {
	fmt.Fprintln(w, "Figure 6 / §2.4: storage quantization of embedding features")
	rng := rand.New(rand.NewSource(13))
	embs := workload.Embeddings(rng, 4096, 64)
	flat := make([]float32, 0, 4096*64)
	for _, e := range embs {
		flat = append(flat, e...)
	}
	rawFP32 := 4 * len(flat)
	encOpts := enc.DefaultOptions()

	fmt.Fprintf(w, "%d embeddings x 64 dims; FP32 raw = %d bytes\n\n", len(embs), rawFP32)
	fmt.Fprintf(w, "%-10s %6s %12s %9s %14s %13s\n",
		"format", "bits", "stored", "vs fp32", "max_rel_err", "mean_rel_err")
	for _, f := range workload.QuantTargets() {
		bits, err := quant.Quantize(flat, f)
		if err != nil {
			return err
		}
		encoded, err := enc.EncodeInts(nil, bits, encOpts)
		if err != nil {
			return err
		}
		back, err := quant.Dequantize(bits, f)
		if err != nil {
			return err
		}
		var maxRel, sumRel float64
		n := 0
		for i := range flat {
			if flat[i] == 0 {
				continue
			}
			rel := math.Abs(float64(back[i]-flat[i])) / math.Abs(float64(flat[i]))
			sumRel += rel
			n++
			if rel > maxRel {
				maxRel = rel
			}
		}
		fmt.Fprintf(w, "%-10s %6d %12d %8.1f%% %14.2e %13.2e\n",
			f, f.Bits(), len(encoded), 100*float64(len(encoded))/float64(rawFP32),
			maxRel, sumRel/float64(n))
	}

	// §2.4 opportunity 2: the BF16-specific 12-bit packing for normalized
	// embeddings.
	nbf16 := quant.EncodeNormalizedEmbedding(flat)
	fmt.Fprintf(w, "%-10s %6s %12d %8.1f%%  (12-bit normalized BF16 packing)\n",
		"nBF16", "12", len(nbf16), 100*float64(len(nbf16))/float64(rawFP32))

	// The dual-column decomposition (§2.4 opportunity 3).
	hi, lo := quant.SplitBF16Columns(flat)
	joined := quant.JoinBF16Columns(hi, lo)
	exact := true
	for i := range flat {
		if math.Float32bits(joined[i]) != math.Float32bits(flat[i]) {
			exact = false
			break
		}
	}
	hiEnc, err := enc.EncodeInts(nil, hi, encOpts)
	if err != nil {
		return err
	}
	loEnc, err := enc.EncodeInts(nil, lo, encOpts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ndual-column FP32 = BF16-hi + 16-bit residual: hi %d + lo %d bytes, 1:1 join exact = %v\n",
		len(hiEnc), len(loEnc), exact)
	return nil
}

// Fig7 measures the quality-aware multimodal layout: a thresholded
// training read against presorted vs unsorted meta tables (Figure 7 and
// §2.5's presorting claim). Both layouts are read by the same filtered
// scan; only the row order differs.
func Fig7(w io.Writer) error {
	fmt.Fprintln(w, "Figure 7 / §2.5: quality-aware multimodal training reads")
	const n = 20000
	rng := rand.New(rand.NewSource(17))
	samples := multimodal.GenerateSamples(rng, n)

	type layout struct {
		name  string
		meta  *core.File
		media *core.File
		io    *iostats.Counters
	}
	build := func(name string, presort bool) (layout, error) {
		metaOut := newMemFile()
		mediaOut := newMemFile()
		if err := multimodal.WriteDataset(metaOut, mediaOut, samples, presort); err != nil {
			return layout{}, err
		}
		l := layout{name: name, io: &iostats.Counters{}}
		l.io.Reset()
		var err error
		if l.meta, err = core.Open(&iostats.ReaderAt{R: metaOut, C: l.io}, metaOut.Size()); err != nil {
			return layout{}, err
		}
		if l.media, err = core.Open(mediaOut, mediaOut.Size()); err != nil {
			return layout{}, err
		}
		return l, nil
	}
	sorted, err := build("presort", true)
	if err != nil {
		return err
	}
	unsorted, err := build("unsorted", false)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%-10s %9s %9s %12s %9s %7s %13s\n",
		"threshold", "selected", "layout", "read_bytes", "read_ops", "seeks", "pages_skipped")
	for _, threshold := range []float64{0.9, 0.7, 0.5, 0.25} {
		label := fmt.Sprintf("%.2f", threshold)
		for _, l := range []layout{sorted, unsorted} {
			before := l.io.Snapshot()
			st, err := multimodal.TrainingRead(l.meta, l.media, threshold, 0.01)
			if err != nil {
				return err
			}
			seeks := l.io.Snapshot().Sub(before).Seeks
			fmt.Fprintf(w, "%-10s %9d %9s %12d %9d %7d %13d\n", label, st.SamplesRead, l.name,
				st.Scan.BytesRead, st.Scan.ReadOps, seeks, st.Scan.PagesSkipped)
			label = ""
		}
	}
	return nil
}

// Reorder measures §2.5's column-axis organization: a hot feature set
// projected from a wide table, with hot columns reordered to the front and
// adjacent chunks coalesced into single reads, vs the scattered layout.
func Reorder(w io.Writer) error {
	fmt.Fprintln(w, "§2.5 column reordering + coalesced reads (hot 10% feature set)")
	const nCols = 200
	const nRows = 20000
	rng := rand.New(rand.NewSource(41))

	hot := make([]string, 20)
	for i := range hot {
		hot[i] = fmt.Sprintf("feat_%03d", i*10) // scattered across the schema
	}

	build := func(reorder bool) (*core.File, *iostats.Counters, error) {
		fields := make([]core.Field, nCols)
		cols := make([]core.ColumnData, nCols)
		for i := 0; i < nCols; i++ {
			fields[i] = core.Field{Name: fmt.Sprintf("feat_%03d", i), Type: core.Type{Kind: core.Int64}}
			vs := make(core.Int64Data, nRows)
			for r := range vs {
				vs[r] = rng.Int63n(1 << 20)
			}
			cols[i] = vs
		}
		schema, err := core.NewSchema(fields...)
		if err != nil {
			return nil, nil, err
		}
		if reorder {
			reordered, perm, err := core.ReorderFields(schema, hot)
			if err != nil {
				return nil, nil, err
			}
			schema = reordered
			cols = core.ReorderBatchColumns(cols, perm)
		}
		batch, err := core.NewBatch(schema, cols)
		if err != nil {
			return nil, nil, err
		}
		mf := newMemFile()
		wr, err := core.NewWriter(mf, schema, core.DefaultOptions())
		if err != nil {
			return nil, nil, err
		}
		if err := wr.Write(batch); err != nil {
			return nil, nil, err
		}
		if err := wr.Close(); err != nil {
			return nil, nil, err
		}
		var c iostats.Counters
		c.Reset()
		f, err := core.Open(&iostats.ReaderAt{R: mf, C: &c}, mf.Size())
		if err != nil {
			return nil, nil, err
		}
		return f, &c, nil
	}

	fmt.Fprintf(w, "%-28s %9s %9s %7s\n", "layout/read path", "read_ops", "bytes", "seeks")
	for _, tc := range []struct {
		name      string
		reorder   bool
		perColumn bool // one single-column projection per hot column
	}{
		{"scattered + per-column", false, true},
		{"scattered + coalesced", false, false},
		{"hot-first + coalesced", true, false},
	} {
		f, c, err := build(tc.reorder)
		if err != nil {
			return err
		}
		before := c.Snapshot()
		if tc.perColumn {
			for _, name := range hot {
				if _, err := f.Project(name); err != nil {
					return err
				}
			}
		} else if _, err := f.Project(hot...); err != nil {
			return err
		}
		d := c.Snapshot().Sub(before)
		fmt.Fprintf(w, "%-28s %9d %9d %7d\n", tc.name, d.ReadOps, d.ReadBytes, d.Seeks)
	}
	return nil
}

// Tab2 exercises the full encoding catalog on its target distributions.
func Tab2(w io.Writer) error {
	fmt.Fprintln(w, "Table 2: encoding catalog on target distributions")
	rng := rand.New(rand.NewSource(19))
	opts := enc.DefaultOptions()
	n := 65536

	type gen struct {
		name string
		id   enc.SchemeID
		data []int64
	}
	sorted := make([]int64, n)
	cur := int64(0)
	for i := range sorted {
		cur += int64(rng.Intn(50))
		sorted[i] = cur
	}
	runs := make([]int64, n)
	for i := 0; i < n; {
		v := int64(rng.Intn(8))
		l := rng.Intn(30) + 1
		for j := 0; j < l && i < n; j++ {
			runs[i] = v
			i++
		}
	}
	lowcard := make([]int64, n)
	domain := []int64{3, 1 << 20, -9, 42, 7777}
	for i := range lowcard {
		lowcard[i] = domain[rng.Intn(len(domain))]
	}
	clustered := make([]int64, n)
	for i := range clustered {
		clustered[i] = (1 << 41) + int64(rng.Intn(1<<14))
	}
	mostly := make([]int64, n)
	for i := range mostly {
		if rng.Intn(50) > 0 {
			mostly[i] = 5
		} else {
			mostly[i] = rng.Int63n(1000)
		}
	}
	uniform := make([]int64, n)
	for i := range uniform {
		uniform[i] = int64(rng.Uint64())
	}
	small := make([]int64, n)
	for i := range small {
		small[i] = int64(rng.Intn(100000))
	}

	cases := []gen{
		{"Trivial/uniform", enc.Plain, uniform},
		{"FixedBitWidth/small", enc.BitPack, small},
		{"Varint/small", enc.Varint, small},
		{"ZigZag/small-signed", enc.ZigZagVar, small},
		{"RLE/runs", enc.RLE, runs},
		{"Dictionary/low-card", enc.Dict, lowcard},
		{"Delta/sorted", enc.Delta, sorted},
		{"FOR/clustered", enc.FOR, clustered},
		{"SIMDFastPFOR/clustered", enc.PFOR, clustered},
		{"SIMDFastBP128/small", enc.FastBP128, small},
		{"MainlyConstant/mostly", enc.MainlyConst, mostly},
		{"Huffman/low-card", enc.Huffman, lowcard},
	}
	fmt.Fprintf(w, "%-26s %12s %9s %12s %12s\n", "encoding/distribution", "bytes", "vs plain", "enc MB/s", "dec MB/s")
	for _, c := range cases {
		raw := 8 * len(c.data)
		start := time.Now()
		encoded, err := enc.EncodeIntsWith(nil, c.id, c.data, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		encT := time.Since(start)
		start = time.Now()
		if _, err := enc.DecodeInts(encoded, len(c.data)); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		decT := time.Since(start)
		fmt.Fprintf(w, "%-26s %12d %8.1f%% %12.0f %12.0f\n",
			c.name, len(encoded), 100*float64(len(encoded))/float64(raw),
			mbps(raw, encT), mbps(raw, decT))
	}

	// Float, bytes, and bool schemes. The time series is sensor-style:
	// a random walk quantized to 1/4 steps, so consecutive values share
	// mantissa structure (Gorilla/Chimp's target shape).
	ts := make([]float64, n)
	f := 100.0
	for i := range ts {
		f += rng.NormFloat64()
		ts[i] = math.Round(f*4) / 4
	}
	decimals := make([]float64, n)
	for i := range decimals {
		decimals[i] = float64(rng.Intn(1000000)) / 100
	}
	for _, c := range []struct {
		name string
		id   enc.SchemeID
		data []float64
	}{
		{"Gorilla/timeseries", enc.GorillaF, ts},
		{"Chimp/timeseries", enc.ChimpF, ts},
		{"ALP/decimal", enc.ALPF, decimals},
	} {
		raw := 8 * len(c.data)
		start := time.Now()
		encoded, err := enc.EncodeFloatsWith(nil, c.id, c.data, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		encT := time.Since(start)
		start = time.Now()
		if _, err := enc.DecodeFloats(encoded, len(c.data)); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		decT := time.Since(start)
		fmt.Fprintf(w, "%-26s %12d %8.1f%% %12.0f %12.0f\n",
			c.name, len(encoded), 100*float64(len(encoded))/float64(raw),
			mbps(raw, encT), mbps(raw, decT))
	}

	urls := make([][]byte, 8192)
	for i := range urls {
		urls[i] = []byte(fmt.Sprintf("https://cdn.example.com/v/%08x?t=%d", rng.Uint32(), rng.Intn(600)))
	}
	rawB := 0
	for _, u := range urls {
		rawB += len(u)
	}
	for _, c := range []struct {
		name string
		id   enc.SchemeID
	}{
		{"DictionaryBytes/urls", enc.DictB},
		{"ChunkedBytes/urls", enc.ChunkedB},
	} {
		start := time.Now()
		encoded, err := enc.EncodeBytesWith(nil, c.id, urls, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		encT := time.Since(start)
		start = time.Now()
		if _, err := enc.DecodeBytes(encoded, len(urls)); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		decT := time.Since(start)
		fmt.Fprintf(w, "%-26s %12d %8.1f%% %12.0f %12.0f\n",
			c.name, len(encoded), 100*float64(len(encoded))/float64(rawB),
			mbps(rawB, encT), mbps(rawB, decT))
	}

	bools := make([]bool, n)
	for i := range bools {
		bools[i] = rng.Intn(100) == 0
	}
	for _, c := range []struct {
		name string
		id   enc.SchemeID
	}{
		{"SparseBool/1%", enc.SparseBool},
		{"Roaring/1%", enc.Roaring},
		{"PlainBool/1%", enc.PlainBool},
	} {
		encoded, err := enc.EncodeBoolsWith(nil, c.id, bools)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		if _, err := enc.DecodeBools(encoded, len(bools)); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		fmt.Fprintf(w, "%-26s %12d %8.1f%% %12s %12s\n",
			c.name, len(encoded), 100*float64(len(encoded))/float64(n/8), "-", "-")
	}
	return nil
}

func mbps(bytes int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / (1 << 20)
}

// Deletion measures the §2.1 in-text claim: I/O written by in-place
// Level-2 deletion vs a full rewrite, sweeping the deleted fraction
// (clustered, as user-sorted tables produce).
func Deletion(w io.Writer) error {
	fmt.Fprintln(w, "§2.1: deletion-compliance I/O (clustered rows, user-sorted table)")
	const rows = 200000
	schema, err := core.NewSchema(
		core.Field{Name: "uid", Type: core.Type{Kind: core.Int64}},
		core.Field{Name: "ad_id", Type: core.Type{Kind: core.Int64}},
		core.Field{Name: "label", Type: core.Type{Kind: core.Float64}},
		core.Field{Name: "tag", Type: core.Type{Kind: core.String}},
	)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(23))
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
		return err
	}

	fmt.Fprintf(w, "%-9s %12s %14s %14s %9s\n", "deleted", "file_bytes", "inplace_bytes", "rewrite_bytes", "savings")
	for _, frac := range []float64{0.005, 0.01, 0.02, 0.05} {
		mf := newMemFile()
		opts := core.DefaultOptions()
		opts.RowsPerPage = 1024
		opts.GroupRows = 1 << 15
		opts.Compliance = core.Level2
		cw, err := core.NewWriter(mf, schema, opts)
		if err != nil {
			return err
		}
		if err := cw.Write(batch); err != nil {
			return err
		}
		if err := cw.Close(); err != nil {
			return err
		}
		f, err := core.Open(mf, mf.Size())
		if err != nil {
			return err
		}
		nDel := int(float64(rows) * frac)
		del := make([]uint64, nDel)
		base := uint64(rows / 3)
		for i := range del {
			del[i] = base + uint64(i)
		}
		var c iostats.Counters
		c.Reset()
		if err := f.DeleteRows(&iostats.WriterAt{W: mf, C: &c}, del); err != nil {
			return err
		}
		inPlace := c.Snapshot().WriteBytes

		var rw iostats.Counters
		rw.Reset()
		if _, err := f.RewriteWithoutRows(&iostats.Writer{W: newMemFile(), C: &rw}, nil, opts); err != nil {
			return err
		}
		rewrite := rw.Snapshot().WriteBytes
		fmt.Fprintf(w, "%7.1f%% %12d %14d %14d %8.1fx\n",
			frac*100, mf.Size(), inPlace, rewrite, float64(rewrite)/float64(inPlace))
	}
	fmt.Fprintln(w, "\n(the paper reports up to 50x at 2% for production-size files; the footer")
	fmt.Fprintln(w, "rewrite is a fixed cost that amortizes as files grow)")
	return nil
}

// All runs every experiment in paper order.
func All(w io.Writer) error {
	for _, run := range []struct {
		name string
		fn   func(io.Writer) error
	}{
		{"fig1", Fig1}, {"fig2", Fig2}, {"tab1", Tab1}, {"fig4", Fig4},
		{"fig5", func(w io.Writer) error { return Fig5(w, nil) }},
		{"fig6", Fig6}, {"fig7", Fig7}, {"reorder", Reorder},
		{"tab2", Tab2}, {"deletion", Deletion},
	} {
		fmt.Fprintf(w, "\n==== %s ====\n", run.name)
		if err := run.fn(w); err != nil {
			return fmt.Errorf("%s: %w", run.name, err)
		}
	}
	return nil
}
