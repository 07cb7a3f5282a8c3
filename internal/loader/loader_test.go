package loader

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bullion/internal/core"
	"bullion/internal/dataset"
)

func testSchema(t *testing.T) *core.Schema {
	t.Helper()
	schema, err := core.NewSchema(
		core.Field{Name: "key", Type: core.Type{Kind: core.Int64}},
		core.Field{Name: "val", Type: core.Type{Kind: core.Float64}},
		core.Field{Name: "tag", Type: core.Type{Kind: core.String}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return schema
}

func keyBatch(t *testing.T, schema *core.Schema, base, n int) *core.Batch {
	t.Helper()
	keys := make(core.Int64Data, n)
	vals := make(core.Float64Data, n)
	tags := make(core.BytesData, n)
	for i := 0; i < n; i++ {
		keys[i] = int64(base + i)
		vals[i] = float64(base+i) / 2
		tags[i] = []byte(fmt.Sprintf("t%04d", (base+i)%7))
	}
	b, err := core.NewBatch(schema, []core.ColumnData{keys, vals, tags})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// buildDataset creates a dataset at dir with nFiles members of
// rowsPerFile rows each (keys partitioned by file, dataset-global order
// 0..nFiles*rowsPerFile).
func buildDataset(t *testing.T, dir string, nFiles, rowsPerFile int) *dataset.Dataset {
	t.Helper()
	d, err := dataset.Create(dir, testSchema(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nFiles; i++ {
		if err := d.Append(keyBatch(t, d.Schema(), i*rowsPerFile, rowsPerFile)); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// batchSig fingerprints every byte of a batch — all columns, in order —
// so two sequences with equal sigs are byte-identical streams.
func batchSig(t *testing.T, b *core.Batch) uint64 {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	for _, col := range b.Columns {
		switch data := col.(type) {
		case core.Int64Data:
			for _, v := range data {
				binary.LittleEndian.PutUint64(buf[:], uint64(v))
				h.Write(buf[:])
			}
		case core.Float64Data:
			for _, v := range data {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		case core.BytesData:
			for _, v := range data {
				binary.LittleEndian.PutUint64(buf[:], uint64(len(v)))
				h.Write(buf[:])
				h.Write(v)
			}
		default:
			t.Fatalf("unhandled column type %T", col)
		}
	}
	return h.Sum64()
}

// drainSigs drains a loader, returning each batch's signature and the
// emitted keys.
func drainSigs(t *testing.T, l *Loader) ([]uint64, []int64) {
	t.Helper()
	var sigs []uint64
	var keys []int64
	for {
		b, err := l.Next()
		if err == io.EOF {
			return sigs, keys
		}
		if err != nil {
			t.Fatal(err)
		}
		sigs = append(sigs, batchSig(t, b))
		keys = append(keys, b.Columns[0].(core.Int64Data)...)
	}
}

func checkCovers(t *testing.T, keys []int64, total int) {
	t.Helper()
	if len(keys) != total {
		t.Fatalf("emitted %d keys, want %d", len(keys), total)
	}
	sorted := append([]int64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, k := range sorted {
		if k != int64(i) {
			t.Fatalf("sorted key[%d] = %d, want %d (duplicate or gap)", i, k, i)
		}
	}
}

func TestPermutationDeterministic(t *testing.T) {
	a := permutation(100, 7, 0)
	b := permutation(100, 7, 0)
	seen := make([]bool, 100)
	identity := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same (n,seed,epoch) diverged at %d: %d vs %d", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= 100 || seen[a[i]] {
			t.Fatalf("not a permutation: element %d at %d", a[i], i)
		}
		seen[a[i]] = true
		if a[i] != i {
			identity = false
		}
	}
	if identity {
		t.Fatal("permutation is the identity; shuffle is not shuffling")
	}
	diff := func(x, y []int) bool {
		for i := range x {
			if x[i] != y[i] {
				return true
			}
		}
		return false
	}
	if !diff(a, permutation(100, 8, 0)) {
		t.Fatal("different seeds produced the same permutation")
	}
	if !diff(a, permutation(100, 7, 1)) {
		t.Fatal("different epochs produced the same permutation")
	}
}

func TestLoaderCoversAllRowsShuffled(t *testing.T) {
	d := buildDataset(t, t.TempDir(), 3, 1000)
	defer d.Close()
	l, err := New(d, Options{ShardRows: 256, BatchRows: 200, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// 3 members x ceil(1000/256)=4 shards.
	if got := l.NumShards(); got != 12 {
		t.Fatalf("NumShards = %d, want 12", got)
	}
	_, keys := drainSigs(t, l)
	checkCovers(t, keys, 3000)
	ordered := true
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			ordered = false
			break
		}
	}
	if ordered {
		t.Fatal("epoch emitted keys in dataset order; shuffle had no effect")
	}
	st := l.Stats()
	if st.RowsEmitted != 3000 || st.EpochShards != 12 {
		t.Fatalf("stats = %+v", st)
	}
	if st.PlanTime <= 0 {
		t.Fatal("PlanTime not recorded")
	}
}

func TestLoaderDeterministicAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	d := buildDataset(t, dir, 3, 800)
	defer d.Close()
	opts := Options{ShardRows: 128, BatchRows: 100, Seed: 42, Epochs: 2}
	run := func() []uint64 {
		l, err := New(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		sigs, keys := drainSigs(t, l)
		if len(keys) != 2*2400 {
			t.Fatalf("2 epochs emitted %d keys, want %d", len(keys), 2*2400)
		}
		checkCovers(t, keys[:2400], 2400)
		checkCovers(t, keys[2400:], 2400)
		return sigs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("batch counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at batch %d", i)
		}
	}
	other, err := New(d, Options{ShardRows: 128, BatchRows: 100, Seed: 43, Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	c, _ := drainSigs(t, other)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced an identical batch stream")
	}
}

// TestLoaderResumeGolden is the acceptance scenario: a mid-epoch
// checkpoint taken against a tagged generation, resumed via
// dataset.OpenAt after an intervening Append and Vacuum, must replay the
// remaining batches byte-identically to an uninterrupted run.
func TestLoaderResumeGolden(t *testing.T) {
	dir := t.TempDir()
	d := buildDataset(t, dir, 3, 1000)
	if err := d.Tag("train-v1", 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	opts := Options{ShardRows: 200, BatchRows: 128, Seed: 99, Epochs: 2}

	// Reference: one uninterrupted run over the tagged snapshot.
	snap, err := dataset.OpenAt(dir, "train-v1", nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := drainSigs(t, ref)
	ref.Close()
	snap.Close()

	// Interrupted: drain a prefix that stops mid-shard, checkpoint, shut
	// everything down.
	snap, err = dataset.OpenAt(dir, "train-v1", nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := New(snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	const prefix = 7 // 200-row shards at 128-row batches = 2 batches/shard: 7 stops mid-shard
	var got []uint64
	for i := 0; i < prefix; i++ {
		b, err := l.Next()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, batchSig(t, b))
	}
	ck := l.Checkpoint()
	if ck.Batch == 0 {
		t.Fatalf("checkpoint %+v does not stop mid-shard; the test must exercise batch skipping", ck)
	}
	l.Close()
	snap.Close()

	// Intervening mutations on the live dataset: an append moves the
	// generation, a vacuum reclaims everything untagged.
	live, err := dataset.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Append(keyBatch(t, live.Schema(), 3000, 500)); err != nil {
		t.Fatal(err)
	}
	rep, err := live.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RetainedGenerations) == 0 {
		t.Fatalf("vacuum retained nothing; the tagged generation should be retained: %+v", rep)
	}
	live.Close()

	// Resume from the checkpoint against a fresh OpenAt handle and drain
	// the remainder.
	snap, err = dataset.OpenAt(dir, "train-v1", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if snap.Generation() != ck.Generation {
		t.Fatalf("OpenAt generation %d, checkpoint %d", snap.Generation(), ck.Generation)
	}
	l2, err := Resume(snap, ck, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	rest, _ := drainSigs(t, l2)
	got = append(got, rest...)

	if len(got) != len(want) {
		t.Fatalf("resumed run emitted %d batches, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resumed stream diverged from reference at batch %d (prefix was %d)", i, prefix)
		}
	}
}

func TestResumeRejectsWrongGeneration(t *testing.T) {
	d := buildDataset(t, t.TempDir(), 2, 500)
	defer d.Close()
	l, err := New(d, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ck := l.Checkpoint()
	l.Close()
	if err := d.Append(keyBatch(t, d.Schema(), 1000, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(d, ck, Options{}); err == nil || !strings.Contains(err.Error(), "generation") {
		t.Fatalf("Resume against a moved dataset = %v, want generation mismatch", err)
	}
}

func TestLoaderFailsWhenGenerationMoves(t *testing.T) {
	d := buildDataset(t, t.TempDir(), 2, 1000)
	defer d.Close()
	l, err := New(d, Options{ShardRows: 250, BatchRows: 100, Seed: 5, ShardAhead: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Next(); err != nil {
		t.Fatal(err)
	}
	if err := d.Append(keyBatch(t, d.Schema(), 2000, 100)); err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for i := 0; i < 100; i++ {
		if _, lastErr = l.Next(); lastErr != nil {
			break
		}
	}
	if lastErr == nil || !strings.Contains(lastErr.Error(), "moved to generation") {
		t.Fatalf("loader over a moved live dataset = %v, want generation-moved error", lastErr)
	}
	if _, err := l.Next(); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("error not sticky: %v", err)
	}
}

func TestLoaderFeed(t *testing.T) {
	d := buildDataset(t, t.TempDir(), 3, 600)
	defer d.Close()
	l, err := New(d, Options{ShardRows: 100, BatchRows: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var mu sync.Mutex
	var keys []int64
	perConsumer := make([]int, 4)
	err = l.Feed(4, func(c int, b *core.Batch) error {
		mu.Lock()
		defer mu.Unlock()
		keys = append(keys, b.Columns[0].(core.Int64Data)...)
		perConsumer[c]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	checkCovers(t, keys, 1800)
	busy := 0
	for _, n := range perConsumer {
		if n > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d of 4 consumers saw batches: %v", busy, perConsumer)
	}

	l2, err := New(d, Options{ShardRows: 100, BatchRows: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	boom := errors.New("consumer failed")
	if err := l2.Feed(2, func(c int, b *core.Batch) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Feed with failing consumer = %v, want %v", err, boom)
	}
}

func TestLoaderCheckpointAtEOF(t *testing.T) {
	d := buildDataset(t, t.TempDir(), 1, 300)
	defer d.Close()
	l, err := New(d, Options{ShardRows: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	_, keys := drainSigs(t, l)
	checkCovers(t, keys, 300)
	ck := l.Checkpoint()
	if ck.Epoch != 1 {
		t.Fatalf("EOF checkpoint epoch = %d, want 1 (== Epochs)", ck.Epoch)
	}
	l2, err := Resume(d, ck, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, err := l2.Next(); err != io.EOF {
		t.Fatalf("resumed exhausted loader Next = %v, want io.EOF", err)
	}
}

func TestLoaderPlanReadsNoData(t *testing.T) {
	dir := t.TempDir()
	buildDataset(t, dir, 4, 1000).Close()
	var opens atomic.Int64 // member engines open concurrently
	d, err := dataset.Open(dir, &dataset.Options{
		WrapReader: func(name string, r io.ReaderAt, size int64) io.ReaderAt {
			opens.Add(1)
			return r
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	l, err := New(d, Options{ShardRows: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if n := opens.Load(); n != 0 {
		t.Fatalf("planning opened %d member files; the shuffle plan must come from the manifest alone", n)
	}
	if _, err := l.Next(); err != nil {
		t.Fatal(err)
	}
	if opens.Load() == 0 {
		t.Fatal("streaming opened no members; the counter is not wired")
	}
}

func TestLoaderPaced(t *testing.T) {
	d := buildDataset(t, t.TempDir(), 1, 500)
	defer d.Close()
	l, err := New(d, Options{ShardRows: 100, BatchRows: 100, Seed: 1, TargetRowsPerSec: 10000})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	start := time.Now()
	_, keys := drainSigs(t, l)
	elapsed := time.Since(start)
	checkCovers(t, keys, 500)
	// 500 rows at 10k rows/s is 50ms; allow generous scheduling slack
	// downward but catch "pacing never slept".
	if elapsed < 25*time.Millisecond {
		t.Fatalf("paced epoch took %v, want >= 25ms", elapsed)
	}
}

// TestNothingOutlivesEarlyStop closes a dataset scan after its first
// batch (with most of its members never started), closes a loader
// mid-epoch with a full read-ahead window, and fails a loader on a
// missing member: each time the goroutine count must return to where it
// was before the scan or loader started.
func TestNothingOutlivesEarlyStop(t *testing.T) {
	settle := func(what string, before int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines before, %d after the settle window", what, before, runtime.NumGoroutine())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	d := buildDataset(t, t.TempDir(), 8, 2000)
	defer d.Close()

	before := runtime.NumGoroutine()
	sc, err := d.Scan(dataset.ScanOptions{
		ScanOptions:     core.ScanOptions{BatchRows: 256},
		FileConcurrency: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Next(); err != nil {
		t.Fatal(err)
	}
	sc.Close()
	settle("dataset scan closed after its first batch", before)

	l, err := New(d, Options{ShardRows: 500, BatchRows: 100, ShardAhead: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := l.Next(); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	settle("loader closed mid-epoch", before)

	dir := t.TempDir()
	built := buildDataset(t, dir, 4, 2000)
	missing := built.Manifest().Files[2].Name
	built.Close()
	if err := os.Remove(filepath.Join(dir, missing)); err != nil {
		t.Fatal(err)
	}
	broken, err := dataset.Open(dir, &dataset.Options{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer broken.Close()
	before = runtime.NumGoroutine()
	l, err = New(broken, Options{ShardRows: 500, BatchRows: 100, ShardAhead: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for err == nil {
		_, err = l.Next()
	}
	if !strings.Contains(err.Error(), missing) {
		t.Fatalf("loader over a dataset missing %s failed with %v", missing, err)
	}
	l.Close()
	settle("loader failed on a missing member", before)
}
