// Package loader implements the training-loader workload over datasets:
// deterministic global-shuffle epoch streaming with exact, resumable
// checkpoints — the paper's headline ML-training traffic served straight
// from the column store.
//
// An epoch's shuffle is planned from the manifest alone: the dataset's
// global row space is cut into fixed-size (member, row-range) shards
// using nothing but the per-member row counts the manifest already
// carries, then a seeded permutation orders the shards. Planning reads
// zero data bytes — no member file is opened, let alone read — so the
// plan for a billion-row dataset costs microseconds. Batches stream
// through the ordinary dataset scan engine (and therefore through the
// shared artifact cache, file pruning, and the resilient remote
// backends), with a window of upcoming shards decoding ahead of the
// emission cursor.
//
// Determinism is the contract that makes checkpoints exact: for a fixed
// (generation, seed, shard size, batch size), every epoch's batch
// sequence is byte-identical across runs, Go versions, and worker
// counts. A Checkpoint is therefore just a cursor — (epoch, shard
// position, batches emitted within the shard) — and Resume replays the
// remainder exactly. Pinning to a generation is what defends the
// contract against a moving dataset: open the dataset with
// dataset.OpenAt on a tag, and later Appends, Deletes, Compacts, and
// Vacuums cannot disturb the loader (deletes live in later manifests, and
// the tag retains the generation's files).
package loader

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"bullion/internal/core"
	"bullion/internal/dataset"
)

// DefaultShardRows is the shuffle granule when Options.ShardRows is 0:
// large enough that a shard amortizes its scan-engine startup, small
// enough that a dataset of a few million rows still shuffles well.
const DefaultShardRows = 8192

// Options configures a Loader.
type Options struct {
	// Columns is the projected column set (empty = all columns).
	Columns []string
	// ShardRows is the shuffle granule in rows: the dataset's global row
	// space is cut into shards of this size (the last shard of each
	// member is shorter), and the epoch permutation orders shards, not
	// rows. Smaller shards shuffle harder and checkpoint finer; larger
	// shards scan faster. 0 = DefaultShardRows.
	ShardRows int
	// Seed fixes the shuffle: same (generation, seed, shard/batch sizes)
	// = same batch sequence, forever. Each epoch derives its own
	// sub-seed, so epochs are distinct permutations.
	Seed int64
	// Epochs is how many passes over the dataset to stream (0 = 1).
	Epochs int
	// BatchRows is the rows per emitted batch (the core scanner's
	// default when 0). Batch boundaries within a shard are deterministic,
	// which is what lets a checkpoint count batches.
	BatchRows int
	// Workers is the decode parallelism per shard engine (0 =
	// GOMAXPROCS).
	Workers int
	// ShardAhead is how many shards past the emission cursor may decode
	// concurrently (0 = min(GOMAXPROCS, 4)). Higher values hide storage
	// latency at the cost of buffered batches.
	ShardAhead int
	// TargetRowsPerSec paces emission to a feed rate (0 = unpaced):
	// Next sleeps just enough that rows-emitted/elapsed approaches the
	// target — how a training job avoids racing ahead of its GPU budget,
	// and how a shared serving tier throttles one loader among many.
	TargetRowsPerSec float64
}

// Shard is one shuffle granule: rows [Lo, Hi) of the dataset's global
// row space (which member those rows live in is the scan engine's
// problem; the planner only needs the manifest's row counts).
type Shard struct {
	Lo, Hi uint64
}

// Checkpoint is an exact resume point. The identity fields (Generation,
// Seed, ShardRows, Epochs, BatchRows) pin the plan it indexes into;
// Resume rejects a checkpoint whose identity does not match the dataset
// handle it is resumed against.
type Checkpoint struct {
	Generation uint64 `json:"generation"`
	Seed       int64  `json:"seed"`
	ShardRows  int    `json:"shard_rows"`
	Epochs     int    `json:"epochs"`
	BatchRows  int    `json:"batch_rows"`
	// Epoch is the current epoch (0-based; == Epochs when the loader is
	// exhausted). Shard indexes into the epoch's permutation; Batch
	// counts batches already emitted from that shard.
	Epoch int `json:"epoch"`
	Shard int `json:"shard"`
	Batch int `json:"batch"`
}

// Stats snapshots a loader's progress.
type Stats struct {
	Generation  uint64
	Epoch       int
	EpochShards int
	// ShardsDone counts fully drained shards in the current epoch.
	ShardsDone int
	// RowsEmitted and BatchesEmitted are lifetime totals across epochs.
	RowsEmitted    uint64
	BatchesEmitted uint64
	// PlanTime is the cumulative shuffle-planning cost: the manifest
	// walk at New plus the per-epoch permutations. No data is read
	// during planning.
	PlanTime time.Duration
}

// Loader streams one dataset generation as shuffled epochs. A Loader
// must be used from a single goroutine (Next, Feed, Checkpoint, Stats,
// Close); Feed internally fans batches out to parallel consumers.
type Loader struct {
	ds     *dataset.Dataset
	opts   Options
	gen    uint64
	shards []Shard

	epoch        int
	perm         []int
	pos          int
	batchInShard int
	// startSkip holds a resumed checkpoint's already-emitted batch count
	// for the shard at pos; Next drops (and recycles) that many of the
	// shard's batches before emitting. Consumed once.
	startSkip int

	// window holds the open scanners of the shards from pos up to
	// ShardAhead past it, keyed by permutation position; each decodes
	// ahead on its own engine.
	window map[int]*dataset.Scanner
	failed error
	closed bool

	rows, batches uint64
	shardsDone    int
	planTime      time.Duration
	paceStart     time.Time
	pacedRows     uint64
}

// New plans a loader over ds's current generation. Planning touches only
// the manifest — zero data reads. The handle should be pinned
// (dataset.OpenAt on a tag or generation) if commits may land while the
// loader runs; over a live handle, a commit that moves the generation
// fails the loader at the next shard boundary rather than silently
// changing the stream.
func New(ds *dataset.Dataset, opts Options) (*Loader, error) {
	start := time.Now()
	if opts.ShardRows <= 0 {
		opts.ShardRows = DefaultShardRows
	}
	if opts.Epochs <= 0 {
		opts.Epochs = 1
	}
	if opts.ShardAhead <= 0 {
		opts.ShardAhead = runtime.GOMAXPROCS(0)
		if opts.ShardAhead > 4 {
			opts.ShardAhead = 4
		}
	}
	// Surface projection typos at plan time, not first batch.
	schema := ds.Schema()
	for _, c := range opts.Columns {
		if _, ok := schema.Lookup(c); !ok {
			return nil, fmt.Errorf("loader: no column %q", c)
		}
	}
	m := ds.Manifest()
	l := &Loader{
		ds:     ds,
		opts:   opts,
		gen:    m.Generation,
		shards: planShards(m, opts.ShardRows),
		window: map[int]*dataset.Scanner{},
	}
	l.planTime = time.Since(start)
	return l, nil
}

// Resume reconstructs a loader from a checkpoint. The dataset handle
// must serve exactly the checkpoint's generation — reopen via
// dataset.OpenAt with the tag (or generation number) the training run
// pinned. The stream continues byte-identically to an uninterrupted run:
// the checkpointed shard is re-scanned and its already-emitted batches
// dropped (batch boundaries are deterministic), then emission proceeds.
func Resume(ds *dataset.Dataset, ck Checkpoint, opts Options) (*Loader, error) {
	if got := ds.Generation(); got != ck.Generation {
		return nil, fmt.Errorf("loader: checkpoint is for generation %d, dataset handle serves %d (reopen with dataset.OpenAt)",
			ck.Generation, got)
	}
	// The checkpoint's identity fields override the caller's: a resumed
	// loader must index the same plan.
	opts.Seed = ck.Seed
	opts.ShardRows = ck.ShardRows
	opts.Epochs = ck.Epochs
	opts.BatchRows = ck.BatchRows
	l, err := New(ds, opts)
	if err != nil {
		return nil, err
	}
	if ck.Epoch < 0 || ck.Epoch > ck.Epochs || ck.Shard < 0 || ck.Shard > len(l.shards) || ck.Batch < 0 {
		return nil, fmt.Errorf("loader: checkpoint cursor (epoch %d, shard %d, batch %d) out of range",
			ck.Epoch, ck.Shard, ck.Batch)
	}
	l.epoch = ck.Epoch
	l.pos = ck.Shard
	l.batchInShard = ck.Batch
	l.startSkip = ck.Batch
	return l, nil
}

// planShards cuts the manifest's global row space into ShardRows-sized
// shards. Shards never straddle a member boundary: each maps to one
// contiguous run of one member file, so a shard's scan opens exactly one
// member. Members the manifest proves fully deleted plan no shards.
func planShards(m *dataset.Manifest, shardRows int) []Shard {
	var shards []Shard
	var start uint64
	for _, e := range m.Files {
		if e.LiveRows > 0 {
			for lo := uint64(0); lo < e.Rows; lo += uint64(shardRows) {
				hi := lo + uint64(shardRows)
				if hi > e.Rows {
					hi = e.Rows
				}
				shards = append(shards, Shard{Lo: start + lo, Hi: start + hi})
			}
		}
		start += e.Rows
	}
	return shards
}

// NumShards returns the shards per epoch.
func (l *Loader) NumShards() int { return len(l.shards) }

// Generation returns the manifest generation the loader is pinned to.
func (l *Loader) Generation() uint64 { return l.gen }

// Next returns the next batch of the shuffled stream, or io.EOF when
// every epoch is drained. Errors are sticky.
func (l *Loader) Next() (*core.Batch, error) {
	if l.failed != nil {
		return nil, l.failed
	}
	if l.closed {
		return nil, errors.New("loader: closed")
	}
	for {
		if l.epoch >= l.opts.Epochs {
			return nil, io.EOF
		}
		if l.perm == nil {
			start := time.Now()
			l.perm = permutation(len(l.shards), l.opts.Seed, l.epoch)
			l.planTime += time.Since(start)
		}
		if l.pos >= len(l.perm) {
			l.epoch++
			l.perm = nil
			l.pos, l.batchInShard, l.shardsDone = 0, 0, 0
			continue
		}
		if err := l.ensureWindow(); err != nil {
			return nil, l.fail(err)
		}
		sc := l.window[l.pos]
		b, err := sc.Next()
		if err == io.EOF {
			sc.Close()
			delete(l.window, l.pos)
			l.pos++
			l.batchInShard, l.startSkip = 0, 0
			l.shardsDone++
			continue
		}
		if err != nil {
			return nil, l.fail(err)
		}
		if l.startSkip > 0 {
			l.startSkip--
			sc.Recycle(b)
			continue
		}
		l.batchInShard++
		l.batches++
		l.rows += uint64(b.NumRows())
		l.pace(b.NumRows())
		return b, nil
	}
}

// fail records a sticky error and closes the window's scanners.
func (l *Loader) fail(err error) error {
	l.failed = err
	l.shutdown()
	return err
}

// ensureWindow keeps the next ShardAhead shards of the permutation
// scanning, verifying first that the dataset handle still serves the
// planned generation. A shard whose Scan fails ends the window there; its
// error is reported once the cursor reaches it and the Scan fails again.
func (l *Loader) ensureWindow() error {
	if got := l.ds.Generation(); got != l.gen {
		return fmt.Errorf("loader: dataset moved to generation %d under a loader planned at %d (pin with dataset.OpenAt)",
			got, l.gen)
	}
	end := l.pos + l.opts.ShardAhead
	if end > len(l.perm) {
		end = len(l.perm)
	}
	for i := l.pos; i < end; i++ {
		if _, ok := l.window[i]; ok {
			continue
		}
		sh := l.shards[l.perm[i]]
		sc, err := l.ds.Scan(dataset.ScanOptions{
			ScanOptions: core.ScanOptions{
				Columns:   l.opts.Columns,
				BatchRows: l.opts.BatchRows,
				Workers:   l.opts.Workers,
				Range:     &core.RowRange{Lo: sh.Lo, Hi: sh.Hi},
			},
			// One member per shard by construction; the loader's own
			// shard window is the cross-file parallelism.
			FileConcurrency: 1,
		})
		if err != nil {
			if i == l.pos {
				return err
			}
			break
		}
		l.window[i] = sc
	}
	return nil
}

// pace sleeps Next toward Options.TargetRowsPerSec. The clock starts at
// the first paced batch, so plan cost and resume gaps don't count
// against the budget.
func (l *Loader) pace(rows int) {
	if l.opts.TargetRowsPerSec <= 0 {
		return
	}
	if l.paceStart.IsZero() {
		l.paceStart = time.Now()
		l.pacedRows = 0
	}
	l.pacedRows += uint64(rows)
	want := time.Duration(float64(l.pacedRows) / l.opts.TargetRowsPerSec * float64(time.Second))
	if elapsed := time.Since(l.paceStart); elapsed < want {
		time.Sleep(want - elapsed)
	}
}

// Checkpoint returns the cursor to resume from: everything emitted
// before the call replays nowhere, everything after replays exactly.
// Call between Next calls (same goroutine).
func (l *Loader) Checkpoint() Checkpoint {
	return Checkpoint{
		Generation: l.gen,
		Seed:       l.opts.Seed,
		ShardRows:  l.opts.ShardRows,
		Epochs:     l.opts.Epochs,
		BatchRows:  l.opts.BatchRows,
		Epoch:      l.epoch,
		Shard:      l.pos,
		Batch:      l.batchInShard,
	}
}

// Stats snapshots progress (same goroutine as Next).
func (l *Loader) Stats() Stats {
	return Stats{
		Generation:     l.gen,
		Epoch:          l.epoch,
		EpochShards:    len(l.shards),
		ShardsDone:     l.shardsDone,
		RowsEmitted:    l.rows,
		BatchesEmitted: l.batches,
		PlanTime:       l.planTime,
	}
}

// Feed drains the loader into fn across consumers parallel workers —
// the M-consumer training fan-out. Batches are handed to exactly one
// consumer each, in stream order; fn runs concurrently, so it must be
// safe for its own consumer index. Feed returns when the stream is
// exhausted (nil), fn fails (that error, first one wins), or the loader
// fails. The loader is left positioned wherever the failure stopped it.
func (l *Loader) Feed(consumers int, fn func(consumer int, b *core.Batch) error) error {
	if consumers < 1 {
		consumers = 1
	}
	work := make(chan *core.Batch, consumers)
	abort := make(chan struct{})
	var abortOnce sync.Once
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	setErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		abortOnce.Do(func() { close(abort) })
	}
	wg.Add(consumers)
	for c := 0; c < consumers; c++ {
		go func(c int) {
			defer wg.Done()
			for b := range work {
				if err := fn(c, b); err != nil {
					setErr(err)
					return
				}
			}
		}(c)
	}
	for {
		b, err := l.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			setErr(err)
			break
		}
		select {
		case work <- b:
		case <-abort:
		}
		mu.Lock()
		stopped := firstErr != nil
		mu.Unlock()
		if stopped {
			break
		}
	}
	close(work)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return firstErr
}

// Close closes the window's shard scanners; no goroutine of theirs
// outlives it. The dataset handle itself stays open (the caller owns it).
func (l *Loader) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	l.shutdown()
	return nil
}

func (l *Loader) shutdown() {
	for i, sc := range l.window {
		sc.Close()
		delete(l.window, i)
	}
}

// permutation is a seeded Fisher-Yates shuffle of [0,n) driven by
// splitmix64 — implemented here rather than math/rand so the sequence is
// pinned by this package, not by a Go release's generator choice:
// checkpoints written by one binary must replay in the next.
func permutation(n int, seed int64, epoch int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	s := uint64(seed) ^ (0x9e3779b97f4a7c15 * (uint64(epoch) + 1))
	next := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}
