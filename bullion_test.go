package bullion

import (
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func tmpPath(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join(t.TempDir(), name)
}

func adsMini(t *testing.T) (*Schema, *Batch) {
	t.Helper()
	schema, err := NewSchema(
		Field{Name: "uid", Type: Type{Kind: Int64}},
		Field{Name: "clk_seq_cids", Type: Type{Kind: List, Elem: Int64}, Sparse: true},
		Field{Name: "ctr", Type: Type{Kind: Float64}},
		Field{Name: "embed", Type: Type{Kind: Float32, Quant: FP16}},
	)
	if err != nil {
		t.Fatal(err)
	}
	n := 1000
	rng := rand.New(rand.NewSource(1))
	uid := make(Int64Data, n)
	clk := make(ListInt64Data, n)
	ctr := make(Float64Data, n)
	embed := make(Float32Data, n)
	window := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	for i := 0; i < n; i++ {
		uid[i] = int64(i / 10)
		if rng.Intn(3) == 0 {
			window = append([]int64{rng.Int63n(1 << 30)}, window[:len(window)-1]...)
		}
		clk[i] = append([]int64{}, window...)
		ctr[i] = rng.Float64()
		embed[i] = float32(rng.Float64() - 0.5)
	}
	batch, err := NewBatch(schema, []ColumnData{uid, clk, ctr, embed})
	if err != nil {
		t.Fatal(err)
	}
	return schema, batch
}

// writeAdsMini writes adsMini's rows to a fresh file and returns its path.
func writeAdsMini(t *testing.T) string {
	t.Helper()
	schema, batch := adsMini(t)
	path := tmpPath(t, "ads.bln")
	w, err := Create(path, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(batch); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFileLifecycle(t *testing.T) {
	path := writeAdsMini(t)
	f, err := OpenPath(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.NumRows() != 1000 {
		t.Fatalf("NumRows = %d", f.NumRows())
	}
	if f.Compliance() != Level2 {
		t.Fatalf("Compliance = %d", f.Compliance())
	}
	proj, err := f.Project("uid", "ctr")
	if err != nil {
		t.Fatal(err)
	}
	uid := proj.Columns[0].(Int64Data)
	if uid[999] != 99 {
		t.Fatalf("uid[999] = %d", uid[999])
	}
	if err := f.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteThroughPublicAPI(t *testing.T) {
	path := writeAdsMini(t)
	f, err := OpenPath(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Delete user 5's rows (50..59).
	rows := make([]uint64, 10)
	for i := range rows {
		rows[i] = uint64(50 + i)
	}
	if err := f.DeleteRows(rows); err != nil {
		t.Fatal(err)
	}
	if got := f.NumLiveRows(); got != 990 {
		t.Fatalf("live rows = %d", got)
	}
	data, err := f.ReadColumn("uid")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range data.(Int64Data) {
		if v == 5 {
			t.Fatal("deleted user still readable")
		}
	}
	if err := f.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}

	// Reopen from disk: the deletion persisted.
	f2, err := OpenPath(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if got := f2.NumLiveRows(); got != 990 {
		t.Fatalf("live rows after reopen = %d", got)
	}
}

// TestOpenPathReadOnlyFile checks that a file the caller may read but not
// write still opens, reports its stats and verifies, and that only
// DeleteRows fails, with a permission error.
func TestOpenPathReadOnlyFile(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("permission bits do not bind root")
	}
	path := writeAdsMini(t)
	if err := os.Chmod(path, 0o444); err != nil {
		t.Fatal(err)
	}
	f, err := OpenPath(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if st := f.Stats(); st.LiveRows != 1000 {
		t.Fatalf("Stats().LiveRows = %d", st.LiveRows)
	}
	if err := f.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
	if err := f.DeleteRows([]uint64{0}); !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("DeleteRows on a read-only file: %v, want a permission error", err)
	}
	if got := f.NumLiveRows(); got != 1000 {
		t.Fatalf("live rows after the refused delete = %d", got)
	}
}

func TestQuantHelpers(t *testing.T) {
	vs := []float32{0.5, -0.25, 0.125}
	bits, err := Quantize(vs, FP16)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Dequantize(bits, FP16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vs {
		if back[i] != vs[i] { // exact powers of two survive FP16
			t.Fatalf("value %d = %v", i, back[i])
		}
	}
	hi, lo := SplitBF16Columns(vs)
	joined := JoinBF16Columns(hi, lo)
	for i := range vs {
		if joined[i] != vs[i] {
			t.Fatalf("dual-column join lost value %d", i)
		}
	}
}

func TestOpenPathErrors(t *testing.T) {
	if _, err := OpenPath(tmpPath(t, "missing.bln")); err == nil {
		t.Fatal("missing file opened")
	}
	bad := tmpPath(t, "bad.bln")
	if err := os.WriteFile(bad, []byte("not a bullion file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPath(bad); err == nil {
		t.Fatal("garbage file opened")
	}
}
