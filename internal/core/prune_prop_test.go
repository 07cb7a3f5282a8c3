package core_test

// Property-based harness for the statistics system: "pruning never drops
// rows". Each case generates a random schema, random data (including
// quantized float32 columns, NaN/Inf floats, nullable ints, deletions,
// and misaligned page/group/batch geometries) and a random predicate set,
// then runs the scan twice:
//
//	reference — no filters (the property is about pruning, so the
//	            unfiltered scan is the reference);
//	pruned    — the filters installed.
//
// Applying the predicates exactly to both outputs must yield identical
// row sequences: statistics pruning (page zone maps, page blooms, the
// file-level short-circuit, and — for the dataset cases — manifest zone
// maps and member blooms) may only drop rows that provably cannot match.
// The harness runs at page, file, and manifest level: most cases scan a
// single file; every fourth case routes the same table through a sharded
// dataset and scans it through the manifest.
//
// The CI race step runs this test, so the 1000 cases also hammer the
// concurrent scanner under -race.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"bullion/internal/core"
	"bullion/internal/dataset"
	"bullion/internal/quant"
)

// propMemFile is an in-memory ReaderAt/WriterAt for the deletion path.
type propMemFile struct{ data []byte }

func (m *propMemFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (m *propMemFile) WriteAt(p []byte, off int64) (int, error) {
	if off+int64(len(p)) > int64(len(m.data)) {
		return 0, fmt.Errorf("propMemFile: WriteAt beyond end")
	}
	return copy(m.data[off:], p), nil
}

// propCase is one generated table + predicate set.
type propCase struct {
	schema  *core.Schema
	batch   *core.Batch
	opts    *core.Options
	filters []core.ColumnFilter
	batchRows,
	workers int
	deletions []uint64
	vocab     []string // the string column's value universe
}

func genPropCase(t *testing.T, rng *rand.Rand) *propCase {
	quants := []quant.Format{quant.FP32, quant.FP16, quant.BF16}
	schema, err := core.NewSchema(
		core.Field{Name: "k_int", Type: core.Type{Kind: core.Int64}},
		core.Field{Name: "k_nul", Type: core.Type{Kind: core.Int64}, Nullable: true},
		core.Field{Name: "k_f64", Type: core.Type{Kind: core.Float64}},
		core.Field{Name: "k_f32", Type: core.Type{Kind: core.Float32, Quant: quants[rng.Intn(len(quants))]}},
		core.Field{Name: "k_str", Type: core.Type{Kind: core.String}},
		core.Field{Name: "k_bool", Type: core.Type{Kind: core.Bool}},
	)
	if err != nil {
		t.Fatal(err)
	}
	n := 50 + rng.Intn(550)
	vocab := make([]string, 2+rng.Intn(24))
	for i := range vocab {
		vocab[i] = fmt.Sprintf("tag-%d-%d", i, rng.Intn(1000))
	}
	kInt := make(core.Int64Data, n)
	kNul := core.NullableInt64Data{Values: make([]int64, n), Valid: make([]bool, n)}
	kF64 := make(core.Float64Data, n)
	kF32 := make(core.Float32Data, n)
	kStr := make(core.BytesData, n)
	kBool := make(core.BoolData, n)
	intRange := int64(1 << uint(2+rng.Intn(20)))
	for i := 0; i < n; i++ {
		kInt[i] = rng.Int63n(2*intRange) - intRange
		kNul.Valid[i] = rng.Intn(4) != 0
		kNul.Values[i] = rng.Int63n(intRange)
		switch rng.Intn(20) {
		case 0:
			kF64[i] = math.NaN()
		case 1:
			kF64[i] = math.Inf(1 - 2*rng.Intn(2))
		default:
			kF64[i] = (rng.Float64() - 0.5) * float64(intRange)
		}
		kF32[i] = float32((rng.Float64() - 0.5) * 100)
		kStr[i] = []byte(vocab[rng.Intn(len(vocab))])
		kBool[i] = rng.Intn(2) == 0
	}
	batch, err := core.NewBatch(schema, []core.ColumnData{kInt, kNul, kF64, kF32, kStr, kBool})
	if err != nil {
		t.Fatal(err)
	}

	pc := &propCase{
		schema: schema,
		batch:  batch,
		vocab:  vocab,
		opts: &core.Options{
			RowsPerPage:   []int{16, 64, 256}[rng.Intn(3)],
			GroupRows:     []int{64, 256, 1000}[rng.Intn(3)],
			Compliance:    []core.Level{core.Level1, core.Level2}[rng.Intn(2)],
			EncodeWorkers: rng.Intn(5),
		},
		batchRows: []int{17, 64, 128, 500}[rng.Intn(4)],
		workers:   1 + rng.Intn(4),
	}
	if rng.Intn(3) == 0 {
		for i := 0; i < n/10; i++ {
			pc.deletions = append(pc.deletions, uint64(rng.Intn(n)))
		}
	}

	// 1-3 predicates, bounds drawn to straddle the data so some cases
	// prune pages, some prune whole files, and some prune nothing.
	nFilters := 1 + rng.Intn(3)
	for i := 0; i < nFilters; i++ {
		switch rng.Intn(4) {
		case 0:
			lo := rng.Int63n(2*intRange) - intRange
			hi := lo + rng.Int63n(intRange)
			cf := core.ColumnFilter{Column: "k_int"}
			if rng.Intn(4) != 0 {
				cf.Min = &lo
			}
			if rng.Intn(4) != 0 {
				cf.Max = &hi
			}
			pc.filters = append(pc.filters, cf)
		case 1:
			lo := rng.Int63n(intRange)
			hi := lo + rng.Int63n(intRange)
			pc.filters = append(pc.filters, core.ColumnFilter{Column: "k_nul", Min: &lo, Max: &hi})
		case 2:
			col := []string{"k_f64", "k_f32"}[rng.Intn(2)]
			span := float64(intRange)
			if col == "k_f32" {
				span = 100
			}
			lo := (rng.Float64() - 0.5) * span * 1.2
			hi := lo + rng.Float64()*span
			cf := core.ColumnFilter{Column: col}
			if rng.Intn(4) != 0 {
				cf.FloatMin = &lo
			}
			if rng.Intn(4) != 0 {
				cf.FloatMax = &hi
			}
			pc.filters = append(pc.filters, cf)
		default:
			var in [][]byte
			for k := 0; k < 1+rng.Intn(3); k++ {
				if rng.Intn(3) == 0 {
					in = append(in, []byte(fmt.Sprintf("absent-%d", rng.Intn(1000))))
				} else {
					in = append(in, []byte(pc.vocab[rng.Intn(len(pc.vocab))]))
				}
			}
			pc.filters = append(pc.filters, core.ColumnFilter{Column: "k_str", ValueIn: in})
		}
	}
	return pc
}

// rowMatches applies the predicate set exactly to row r of a decoded
// batch (the projection order is the full schema). Nulls and NaNs never
// match a range; ValueIn is exact byte equality.
func rowMatches(b *core.Batch, r int, filters []core.ColumnFilter) bool {
	for _, cf := range filters {
		ci, ok := b.Schema.Lookup(cf.Column)
		if !ok {
			panic("filter column missing from projection")
		}
		switch d := b.Columns[ci].(type) {
		case core.Int64Data:
			v := d[r]
			if (cf.Min != nil && v < *cf.Min) || (cf.Max != nil && v > *cf.Max) {
				return false
			}
		case core.NullableInt64Data:
			if !d.Valid[r] {
				return false
			}
			v := d.Values[r]
			if (cf.Min != nil && v < *cf.Min) || (cf.Max != nil && v > *cf.Max) {
				return false
			}
		case core.Float64Data:
			v := d[r]
			if math.IsNaN(v) && (cf.FloatMin != nil || cf.FloatMax != nil) {
				return false
			}
			if (cf.FloatMin != nil && v < *cf.FloatMin) || (cf.FloatMax != nil && v > *cf.FloatMax) {
				return false
			}
		case core.Float32Data:
			v := float64(d[r])
			if math.IsNaN(v) && (cf.FloatMin != nil || cf.FloatMax != nil) {
				return false
			}
			if (cf.FloatMin != nil && v < *cf.FloatMin) || (cf.FloatMax != nil && v > *cf.FloatMax) {
				return false
			}
		case core.BytesData:
			if len(cf.ValueIn) == 0 {
				continue
			}
			hit := false
			for _, want := range cf.ValueIn {
				if bytes.Equal(d[r], want) {
					hit = true
					break
				}
			}
			if !hit {
				return false
			}
		}
	}
	return true
}

// renderRow serializes one row of a batch for exact comparison.
func renderRow(sb *strings.Builder, b *core.Batch, r int) {
	for _, col := range b.Columns {
		switch d := col.(type) {
		case core.Int64Data:
			fmt.Fprintf(sb, "%d|", d[r])
		case core.NullableInt64Data:
			if d.Valid[r] {
				fmt.Fprintf(sb, "%d|", d.Values[r])
			} else {
				sb.WriteString("null|")
			}
		case core.Float64Data:
			fmt.Fprintf(sb, "%x|", math.Float64bits(d[r]))
		case core.Float32Data:
			fmt.Fprintf(sb, "%x|", math.Float32bits(d[r]))
		case core.BytesData:
			fmt.Fprintf(sb, "%q|", d[r])
		case core.BoolData:
			fmt.Fprintf(sb, "%v|", d[r])
		default:
			panic(fmt.Sprintf("unhandled column type %T", col))
		}
	}
	sb.WriteByte('\n')
}

// matchingRows drains a scanner-like Next/Close pair, applies the
// predicates exactly, and returns the matching rows rendered in order.
func matchingRows(t *testing.T, next func() (*core.Batch, error), filters []core.ColumnFilter) string {
	var sb strings.Builder
	for {
		b, err := next()
		if err == io.EOF {
			return sb.String()
		}
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < b.NumRows(); r++ {
			if rowMatches(b, r, filters) {
				renderRow(&sb, b, r)
			}
		}
	}
}

var propPruneStats struct {
	batchesSkipped atomic.Int64
	filesPruned    atomic.Int64
}

// runFileCase writes one file and compares the pruned scan against the
// reference scan (page- and file-level pruning).
func runFileCase(t *testing.T, pc *propCase) {
	var buf bytes.Buffer
	w, err := core.NewWriter(&buf, pc.schema, pc.opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(pc.batch); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	mf := &propMemFile{data: buf.Bytes()}
	f, err := core.Open(mf, int64(len(mf.data)))
	if err != nil {
		t.Fatal(err)
	}
	if len(pc.deletions) > 0 {
		if err := f.DeleteRows(mf, pc.deletions); err != nil {
			t.Fatal(err)
		}
	}

	ref, err := f.Scan(core.ScanOptions{BatchRows: pc.batchRows, Workers: pc.workers})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want := matchingRows(t, ref.Next, pc.filters)

	pruned, err := f.Scan(core.ScanOptions{BatchRows: pc.batchRows, Workers: pc.workers, Filters: pc.filters})
	if err != nil {
		t.Fatal(err)
	}
	defer pruned.Close()
	got := matchingRows(t, pruned.Next, pc.filters)
	propPruneStats.batchesSkipped.Add(pruned.Stats().BatchesSkipped)

	if got != want {
		t.Fatalf("pruned scan dropped or altered matching rows\nfilters: %s\nwant %d bytes, got %d bytes",
			describeFilters(pc.filters), len(want), len(got))
	}
}

// runDatasetCase routes the same table through a sharded dataset and
// compares the manifest-pruned scan against the unfiltered reference.
func runDatasetCase(t *testing.T, pc *propCase, rng *rand.Rand) {
	d, err := dataset.Create(t.TempDir(), pc.schema, &dataset.Options{Writer: pc.opts})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sw, err := d.ShardedWriter(1 + rng.Intn(3))
	if err != nil {
		t.Fatal(err)
	}
	// Feed the table in slices so round-robin routing spreads rows with
	// distinct value ranges across members.
	n := pc.batch.NumRows()
	step := n/4 + 1
	for lo := 0; lo < n; lo += step {
		hi := lo + step
		if hi > n {
			hi = n
		}
		cols := make([]core.ColumnData, len(pc.batch.Columns))
		for i := range cols {
			cols[i] = slicePropColumn(pc.batch.Columns[i], lo, hi)
		}
		if err := sw.Write(&core.Batch{Schema: pc.schema, Columns: cols}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if len(pc.deletions) > 0 {
		del := make([]uint64, 0, len(pc.deletions))
		for _, r := range pc.deletions {
			if r < d.NumRows() {
				del = append(del, r)
			}
		}
		if err := d.Delete(del); err != nil {
			t.Fatal(err)
		}
	}

	ref, err := d.Scan(dataset.ScanOptions{ScanOptions: core.ScanOptions{
		BatchRows: pc.batchRows, Workers: pc.workers,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want := matchingRows(t, ref.Next, pc.filters)

	pruned, err := d.Scan(dataset.ScanOptions{ScanOptions: core.ScanOptions{
		BatchRows: pc.batchRows, Workers: pc.workers, Filters: pc.filters,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer pruned.Close()
	got := matchingRows(t, pruned.Next, pc.filters)
	propPruneStats.filesPruned.Add(int64(pruned.Stats().FilesPruned))

	if got != want {
		t.Fatalf("manifest-pruned dataset scan dropped or altered matching rows\nfilters: %s\nwant %d bytes, got %d bytes",
			describeFilters(pc.filters), len(want), len(got))
	}
}

func slicePropColumn(c core.ColumnData, lo, hi int) core.ColumnData {
	switch d := c.(type) {
	case core.Int64Data:
		return d[lo:hi]
	case core.NullableInt64Data:
		return core.NullableInt64Data{Values: d.Values[lo:hi], Valid: d.Valid[lo:hi]}
	case core.Float64Data:
		return d[lo:hi]
	case core.Float32Data:
		return d[lo:hi]
	case core.BytesData:
		return d[lo:hi]
	case core.BoolData:
		return d[lo:hi]
	}
	panic(fmt.Sprintf("unhandled column type %T", c))
}

func describeFilters(fs []core.ColumnFilter) string {
	var sb strings.Builder
	for _, cf := range fs {
		fmt.Fprintf(&sb, "{%s", cf.Column)
		if cf.Min != nil {
			fmt.Fprintf(&sb, " min=%d", *cf.Min)
		}
		if cf.Max != nil {
			fmt.Fprintf(&sb, " max=%d", *cf.Max)
		}
		if cf.FloatMin != nil {
			fmt.Fprintf(&sb, " fmin=%v", *cf.FloatMin)
		}
		if cf.FloatMax != nil {
			fmt.Fprintf(&sb, " fmax=%v", *cf.FloatMax)
		}
		for _, v := range cf.ValueIn {
			fmt.Fprintf(&sb, " in=%q", v)
		}
		sb.WriteString("} ")
	}
	return sb.String()
}

// TestPruningNeverDropsRows is the property harness entry point: 1000
// random cases (150 under -short), split across parallel shards so the
// race detector sees concurrent scanners from independent cases too.
func TestPruningNeverDropsRows(t *testing.T) {
	cases := 1000
	if testing.Short() {
		cases = 150
	}
	const shards = 8
	perShard := (cases + shards - 1) / shards
	for s := 0; s < shards; s++ {
		s := s
		t.Run(fmt.Sprintf("shard%d", s), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(0xB10057EE + int64(s)))
			for i := 0; i < perShard; i++ {
				pc := genPropCase(t, rng)
				if i%4 == 3 {
					runDatasetCase(t, pc, rng)
				} else {
					runFileCase(t, pc)
				}
				if t.Failed() {
					t.Fatalf("failing case: shard %d case %d", s, i)
				}
			}
		})
	}
	// Sanity that the harness exercises the machinery at all: across 1000
	// cases, statistics pruning must have fired somewhere.
	t.Cleanup(func() {
		if propPruneStats.batchesSkipped.Load() == 0 {
			t.Error("no batch was ever pruned across all cases — harness lost its teeth")
		}
		if propPruneStats.filesPruned.Load() == 0 {
			t.Error("no dataset member was ever pruned across all cases — harness lost its teeth")
		}
	})
}
