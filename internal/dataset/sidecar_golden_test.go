package dataset

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"bullion/internal/core"
	"bullion/internal/workload"
)

var updateSidecars = flag.Bool("update", false, "rewrite testdata/sidecars.golden")

// goldenShardRows puts more distinct "big" strings in every member than
// a bloom under the 64 KiB sidecar cap can hold at the default sizing.
const goldenShardRows = 45_000

// sidecarSchema is the ads schema plus the columns whose statistics take
// an unusual path into a sidecar: float bounds that reach ±Inf or see a
// NaN, a bloom over the size cap, and a column with no value at all.
func sidecarSchema(t *testing.T) *core.Schema {
	t.Helper()
	ads, err := workload.AdsSchema(256, true)
	if err != nil {
		t.Fatal(err)
	}
	fields := append([]core.Field(nil), ads.Fields...)
	fields = append(fields,
		core.Field{Name: "finf", Type: core.Type{Kind: core.Float64}},
		core.Field{Name: "fnan", Type: core.Type{Kind: core.Float64}},
		core.Field{Name: "big", Type: core.Type{Kind: core.String}},
		core.Field{Name: "nulls", Type: core.Type{Kind: core.Int64}, Nullable: true},
	)
	s, err := core.NewSchema(fields...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sidecarBatch builds rows [base, base+n) of the golden dataset. The
// first batch carries generated ads content; later ones leave the list
// columns empty, so the over-cap bloom stays cheap to write.
func sidecarBatch(t *testing.T, s *core.Schema, rng *rand.Rand, base, n int) *core.Batch {
	t.Helper()
	cols := make([]core.ColumnData, len(s.Fields))
	var ads []core.ColumnData
	if base == 0 {
		ads = workload.AdsColumns(rng, s, n)
	}
	for ci, f := range s.Fields {
		switch {
		case f.Name == "uid":
			vs := make(core.Int64Data, n)
			for i := range vs {
				vs[i] = int64((base + i) / 8)
			}
			cols[ci] = vs
		case f.Name == "finf" || f.Name == "fnan":
			vs := make(core.Float64Data, n)
			for i := range vs {
				vs[i] = rng.NormFloat64() * 100
			}
			if f.Name == "finf" && base == 0 {
				vs[3] = math.Inf(1) // the first member only
			}
			if f.Name == "fnan" {
				vs[n/2] = math.NaN()
			}
			cols[ci] = vs
		case f.Name == "big":
			vs := make(core.BytesData, n)
			for i := range vs {
				vs[i] = []byte(fmt.Sprintf("big-%08d", base+i))
			}
			cols[ci] = vs
		case f.Name == "nulls":
			cols[ci] = core.NullableInt64Data{Values: make([]int64, n), Valid: make([]bool, n)}
		case ads != nil:
			cols[ci] = ads[ci]
		case f.Type.Kind == core.String:
			vs := make(core.BytesData, n)
			for i := range vs {
				vs[i] = []byte(fmt.Sprintf("req-%03d", (base+i)%97))
			}
			cols[ci] = vs
		case f.Type.Kind == core.List && f.Type.Elem == core.Int64:
			cols[ci] = make(core.ListInt64Data, n)
		case f.Type.Kind == core.List && f.Type.Elem == core.Float32:
			cols[ci] = make(core.ListFloat32Data, n)
		case f.Type.Kind == core.List && f.Type.Elem == core.Float64:
			cols[ci] = make(core.ListFloat64Data, n)
		case f.Type.Kind == core.List && f.Type.Elem == core.Binary:
			cols[ci] = make(core.ListBytesData, n)
		case f.Type.Kind == core.ListList:
			cols[ci] = make(core.ListListInt64Data, n)
		default:
			t.Fatalf("no generator for column %s (%v)", f.Name, f.Type)
		}
	}
	b, err := core.NewBatch(s, cols)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSidecarsGolden pins the bytes of every statistics sidecar a fixed
// dataset writes: two shards from one ShardedWriter, a Delete, and the
// Compact that rewrites the deletion-heavy member. Each row of
// testdata/sidecars.golden is a sidecar's name, size and sha256. Run with
// -update to rewrite the file after an intended change.
func TestSidecarsGolden(t *testing.T) {
	dir := t.TempDir()
	opts := core.DefaultOptions()
	opts.Compliance = core.Level1
	opts.GroupRows = 8192 // bounds what a shard buffers
	d, err := Create(dir, sidecarSchema(t), &Options{Writer: opts, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rng := rand.New(rand.NewSource(29))
	sw, err := d.ShardedWriter(2)
	if err != nil {
		t.Fatal(err)
	}
	const batchRows = 5_000
	for base := 0; base < 2*goldenShardRows; base += batchRows {
		if err := sw.Write(sidecarBatch(t, d.Schema(), rng, base, batchRows)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(spanRows(0, 30_000)); err != nil { // two thirds of member 0
		t.Fatal(err)
	}
	st, err := d.Compact(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if st.FilesCompacted != 1 {
		t.Fatalf("compact rewrote %d members, want 1", st.FilesCompacted)
	}

	names, err := filepath.Glob(filepath.Join(dir, "stats-*.bln"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	var rows []string
	for _, path := range names {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		rows = append(rows, fmt.Sprintf("%s %d %s", filepath.Base(path), len(data), hex.EncodeToString(sum[:])))
	}
	if len(rows) != 3 {
		t.Fatalf("dataset holds %d sidecars, want 3 (two shards and one compaction)", len(rows))
	}
	got := strings.Join(rows, "\n") + "\n"
	path := filepath.Join("testdata", "sidecars.golden")
	if *updateSidecars {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("sidecars differ from %s\ngot:\n%swant:\n%s", path, got, want)
	}
}
