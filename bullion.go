// Package bullion is a columnar storage library for machine-learning
// workloads, implementing the design of "Bullion: A Column Store for
// Machine Learning" (CIDR 2025):
//
//   - a cascading encoding framework with the full Table 2 catalog and a
//     sampling-based selector (§2.6)
//   - deletion compliance at three levels, including in-place physical
//     erasure with Merkle-tree checksum maintenance (§2.1, Figure 2)
//   - sliding-window delta encoding for long-sequence sparse features
//     such as clk_seq_cids (§2.2, Figures 3-4)
//   - a compact binary footer read without deserialization, keeping
//     wide-table projection flat in the number of columns (§2.3, Figure 5)
//   - storage quantization: FP16 / BF16 / TF32 / FP8 and the dual-column
//     FP32 decomposition (§2.4, Figure 6)
//   - quality-aware row organization for multimodal training data (§2.5,
//     Figure 7)
//
// Quickstart — writing and whole-column projection:
//
//	schema, _ := bullion.NewSchema(
//	    bullion.Field{Name: "uid", Type: bullion.Type{Kind: bullion.Int64}},
//	    bullion.Field{Name: "clk_seq_cids",
//	        Type:   bullion.Type{Kind: bullion.List, Elem: bullion.Int64},
//	        Sparse: true},
//	)
//	w, _ := bullion.Create("ads.bln", schema, nil)
//	_ = w.Write(batch)
//	_ = w.Close()
//
//	f, _ := bullion.OpenPath("ads.bln")
//	defer f.Close()
//	cols, _ := f.Project("clk_seq_cids")
//
// Streaming scans — the training-loader read path. Instead of
// materializing whole columns, Scan iterates the projection in row
// batches (BatchRows rows each, default DefaultScanBatchRows = 4096),
// decoding the columns of in-flight batches on a GOMAXPROCS-bounded
// worker pool while emitting batches in file order:
//
//	sc, _ := f.Scan(bullion.ScanOptions{
//	    Columns:   []string{"uid", "clk_seq_cids"},
//	    BatchRows: 4096, // rows per batch (0 = default)
//	    Workers:   0,    // 0 = GOMAXPROCS
//	    // Optional: Range restricts the scan; Hi must not exceed
//	    // f.NumRows(), e.g. &bullion.RowRange{Lo: 0, Hi: f.NumRows()}.
//	})
//	defer sc.Close()
//	for {
//	    batch, err := sc.Next()
//	    if err == io.EOF {
//	        break
//	    }
//	    if err != nil {
//	        return err
//	    }
//	    feed(batch) // aligned columns, deleted rows already filtered
//	}
//
// Scans prune work before any I/O: batches outside Range are never
// planned, all-deleted batches are dropped, and ColumnFilter statistics
// predicates skip batches whose footer statistics prove no match (see
// "Pruning and statistics" below).
//
// # Pruning and statistics
//
// The writer records three statistics families in the footer (format v3)
// so selective scans can skip data without reading it:
//
//   - Zone maps. Every page carries min/max bounds: native int64 order
//     for int64/int32 columns (nullable included, nulls excluded from the
//     bounds), IEEE float order for float64/float32 columns (stored as
//     Float64bits, flagged StatFloatBits; quantized float32 bounds cover
//     the values as decoded, not as ingested; NaNs constrain nothing).
//     The footer also persists the per-column fold of all page bounds as
//     file-level column stats.
//   - Bloom filters. Byte-string (Binary/String) columns get a
//     split-block bloom filter per page and one per column over the
//     file's distinct values, sized by Options.BloomBitsPerValue
//     (default 12 bits per distinct value, ~0.5% false positives;
//     negative disables them).
//   - Null counts, per page and per column.
//
// ColumnFilter exposes one predicate class per family: Min/Max (int
// range), FloatMin/FloatMax (float range), and ValueIn (byte-string
// membership). Pruning happens at every level that has statistics: the
// scan planner drops the whole file when the file-level stats or column
// bloom exclude a filter (no page is ever consulted), drops batches whose
// overlapping pages all exclude it, and — through the dataset manifest,
// which lifts the file-level stats at commit — drops whole member files
// without opening them. Pruning is always conservative: surviving batches
// are returned in full and may contain non-matching rows (blooms also
// admit false positives), so exact filtering remains the caller's job,
// but no row that could match is ever dropped (property-tested under
// -race by the prune harness). Files written before format v3 report no
// float or bloom statistics and simply never prune on those predicates.
//
// A closed writer keeps its own account of the statistics the footer
// just persisted — rows, bytes, per-column zone maps and blooms — which
// is how the dataset layer commits shard files without reopening them.
//
// # Reading at scale
//
// Every read of a File — Scan, and Project, ReadColumn, ReadRows and
// ProjectEvolved, which are one scan whose single batch is the whole
// range — runs the same engine, built to be I/O-minimal and
// allocation-flat by pairing the paper's §2.5 levers:
//
//  1. Reorder hot features at write time. ReorderFields moves the
//     frequently-read columns to the front of the schema, so their chunks
//     are physically adjacent within every row group.
//
//  2. Coalesced reads. The engine plans, per batch, the maximal
//     byte-adjacent page runs across all projected columns and fetches
//     each run with a single read of up to 1.25 MiB (core.CoalesceLimit);
//     decode workers slice their pages out of the shared run buffer
//     zero-copy. Runs separated by at most ScanOptions.CoalesceGap cold
//     bytes (default 4 KiB) merge too — a few wasted kilobytes beat a
//     second seek or object-storage request; a negative gap merges only
//     exactly adjacent runs, for storage that penalizes wasted transfer.
//     Cross-column merging needs the projected chunks
//     adjacent within the batch's span, so set BatchRows to the writer's
//     GroupRows for I/O-bound scans: a hot-reordered projection then
//     costs one read per row group.
//
//  3. Batch recycling. Return each finished batch via Scanner.Recycle
//     and later batches decode into its storage; combined with the
//     scanner's pooled read buffers and decode scratch, steady-state Next
//     calls are allocation-free for fixed-width columns. A batch is never
//     recycled unless handed back, and handing one back twice, or after
//     Close, does nothing.
//
// Putting the three together:
//
//	sc, _ := f.Scan(bullion.ScanOptions{
//	    Columns:   hotFeatures, // written via ReorderFields
//	    BatchRows: groupRows,   // align batches with row groups
//	})
//	defer sc.Close()
//	for {
//	    batch, err := sc.Next()
//	    if err == io.EOF {
//	        break
//	    }
//	    if err != nil {
//	        return err
//	    }
//	    feed(batch)
//	    sc.Recycle(batch) // batch must not be read after this
//	}
//
// ScanStats reports the effect: ReadOps (physical reads issued),
// CoalescedBytes (bytes fetched by multi-column reads), and WastedBytes
// (gap bytes read through). Byte-string columns decode zero-copy out of
// the read buffers, so projections that include them keep the buffers
// alive for the batch's lifetime instead of pooling them.
//
// Decode kernels. Once the bytes are in memory, scans are decode-bound,
// so the hot inner loops decode word-at-a-time rather than value-at-a-
// time: bit-packed integer payloads (FixedBitWidth, FOR, SIMDFastPFOR,
// SIMDFastBP128, Delta's sub-streams) unpack eight values per group from
// unaligned 64-bit loads, with frame-of-reference bases and zigzag
// decoding fused into the same pass; run-length and constant pages fill
// output by copy doubling (memmove-speed); and the Gorilla/Chimp float
// decoders read each value's control bits, window header, and mantissa
// from a single 64-bit peek instead of three bit-reader calls. The
// kernels are exact drop-ins — a scalar reference path is kept behind a
// test hook and every scheme is property-tested byte-identical against
// it — and they keep fixed-width decodes at zero allocations per page on
// the reuse path above. For timestamp-like columns (drifting arrival
// cadence, monotone ids) the cascade also offers DeltaDelta, a zigzag
// delta-of-delta scheme whose second-order residuals bit-pack far
// narrower than first-order deltas.
//
// # Writing at scale
//
// The write path is a pipeline, mirroring the streaming scan: the calling
// goroutine only assembles row groups (batch buffering, §2.5 quality
// presorting); each full group's columns are encoded as independent tasks
// — cascade selection, page encoding, zone-map statistics, Merkle leaf
// hashes — on a worker pool, while a single serializer goroutine writes
// finished groups to the file strictly in order:
//
//	w, _ := bullion.Create("ads.bln", schema, &bullion.Options{
//	    EncodeWorkers:     0, // encode parallelism; 0 = GOMAXPROCS
//	    MaxInflightGroups: 0, // memory bound; 0 = EncodeWorkers + 2
//	})
//	for batch := range batches {
//	    if err := w.Write(batch); err != nil { // full groups encode behind Write
//	        return err
//	    }
//	}
//	if err := w.Close(); err != nil { // drains the pipeline, writes the footer
//	    return err
//	}
//
// Always Close a writer, even when abandoning the file after an unrelated
// error: Close (or a failed Write) is what stops the pipeline's encode and
// serializer goroutines.
//
// Output bytes are identical at every EncodeWorkers setting: each column's
// pages are encoded in file order and the serializer alone assigns
// offsets, so worker scheduling never reaches the file layout. Writer
// errors are sticky — after any encode or write failure every subsequent
// Write/Close returns the original error and no footer is written, so a
// failed file can never look complete.
//
// Cascade selection itself is amortized (the LEA-style advisor pattern):
// each column remembers its chosen scheme per stream and reuses it for
// subsequent pages, re-running the §2.6 sampling pass only when the
// encoded-size ratio drifts past EncodingOptions.ResampleDrift (default
// ±25% relative). Set ResampleDrift negative to re-select on every page
// (the pre-pipeline behavior); Writer.SelectorStats reports the realized
// reuse. Sparse (§2.2) columns are no exception: a sparse page's value
// stream encodes with the column's Options.Enc, through the column's one
// cache. Options.Sparse configures only the sliding window (MinOverlap,
// RestartInterval).
//
// # Datasets and compaction
//
// Training tables are fleets of immutable column-store files, not one
// file. A Dataset is a directory of member files described by a versioned
// manifest, split so that an open pays for what it touches rather than
// for columns × members: a small JSON head per generation (tags, and per
// file its row and live-row counts, size and deletion bitmap), the schema
// written once as a footer-only Bullion file whose name index resolves a
// projected column in O(log n), and per file a statistics sidecar holding
// the per-column zone maps and blooms lifted from the writer when the file
// was committed. Statistics are computed once, written once, and read only
// by scans whose filters name a column:
//
//	ds, _ := bullion.CreateDataset("ads.blnds", schema, nil)
//	sw, _ := ds.ShardedWriter(4) // route ingest across 4 member files
//	for batch := range batches {
//	    _ = sw.Write(batch)
//	}
//	_ = sw.Close() // one atomic manifest commit adds all 4 files
//
//	sc, _ := ds.Scan(bullion.DatasetScanOptions{
//	    ScanOptions:     bullion.ScanOptions{Columns: hotFeatures, Filters: filters},
//	    FileConcurrency: 8, // member files streamed concurrently
//	})
//	defer sc.Close()
//	// Next returns batches in manifest file order; the loop is identical
//	// to the single-file Scanner's.
//
// Dataset.Scan prunes whole member files before any I/O: files outside
// ScanOptions.Range (interpreted over the dataset's concatenated global
// row space) and files whose zone maps prove a ColumnFilter cannot match
// are never opened at all. Surviving files stream through
// one per-file scan engine each, up to FileConcurrency at a time, and
// Stats() aggregates the per-file ScanStats plus FilesPruned/FilesScanned
// counters.
//
// Deletion and compaction split the paper's §2.1 story across two
// timescales: Dataset.Delete commits a manifest generation whose entries
// carry deletion bitmaps (scans filter the rows from then on; no member
// file is written), and Dataset.Compact later folds every member whose
// live-row ratio has dropped below a threshold into a fresh file without
// its deleted rows — the step that physically erases them, once Vacuum
// reclaims the old files. Committed members are thus immutable, commits
// are write-temp + rename atomic, and a scan, tagged snapshot or loader
// keeps serving exactly its generation's rows across any later Delete or
// Compact. Members are written at compliance Level 1: nothing erases
// them in place, so Level 2's encoding restrictions would buy nothing.
//
// Commits are durable as well as atomic: member contents are fsynced
// before they are renamed into place, every rename is followed by a
// directory sync, and the CURRENT generation pointer swap is the single
// point of no return (a commit racing another handle fails cleanly with
// ErrGenerationConflict before touching any published file). All dataset
// I/O flows through a pluggable storage backend (DatasetOptions.Backend);
// FsckDataset audits a directory offline and classifies crash debris,
// which Open sweeps and Vacuum reclaims. The full contract — including
// the two crash models the fault-injection matrix replays — is documented
// in bullion/internal/dataset and bullion/internal/storage.
//
// # Remote datasets and resilience
//
// A dataset published behind any HTTP(S) server that honors Range
// requests — an object-store gateway, nginx, or DatasetHTTPHandler —
// opens directly from its URL:
//
//	ds, _ := bullion.OpenDataset("https://data.example.com/ads.blnds", nil)
//	sc, _ := ds.Scan(bullion.DatasetScanOptions{
//	    ScanOptions: bullion.ScanOptions{Columns: hotFeatures},
//	    Degraded:    true, // skip+report unreachable members
//	})
//
// The handle is read-only (mutators fail with ErrBackendReadOnly), and
// its reads flow through two layers that are also exposed standalone:
//
//   - NewHTTPBackend: a StorageBackend over HTTP range reads. Opening a
//     member HEADs it once and pins its strong ETag; every range GET
//     then carries If-Match, so a file replaced mid-scan surfaces as
//     ErrChangedUnderRead instead of torn bytes. List is unsupported
//     (recovery sweeps, Vacuum, and fsck orphan classification degrade
//     gracefully).
//
//   - NewResilientBackend: a backend-agnostic wrapper adding per-read
//     deadlines, capped exponential backoff with jitter on transient
//     errors (timeouts, 5xx, connection resets — never 4xx, not-found,
//     or integrity failures), hedged reads (when a read outlives the
//     backend's tracked p95 latency a second identical request races
//     it; the first success wins and the loser is cancelled and joined,
//     so no goroutine or buffer outlives the call), and a
//     consecutive-failure circuit breaker that fails fast with
//     ErrCircuitOpen while the remote is down, probing again after a
//     cooldown. Writes pass through un-retried: the dataset commit
//     protocol already makes them safe to fail, and blind retries of
//     non-idempotent operations are not.
//
// DatasetScanOptions.Degraded chooses availability over completeness
// for scans: a member still unreachable after the wrapper's full retry
// budget is skipped and reported in DatasetScanStats.DegradedMembers —
// never dropped silently — while DatasetScanStats also counts the
// Retries, Hedges, and HedgeWins spent on the scanner's behalf.
// ResilienceOptions tunes every knob (deadlines, retry budget, backoff
// shape, hedge delay, breaker thresholds); the zero value gives the
// defaults OpenDataset uses for http(s) URLs.
//
// # Caching and memory tiering
//
// Committed member files are immutable — a dataset mutation publishes
// new files under new names and bumps the manifest generation — so
// everything derived from a member's bytes can be cached for as long as
// the member exists. Which cache a handle uses is a three-way policy:
// DatasetOptions.DisableCache runs it uncached, DatasetOptions.Cache
// names an ArtifactCache the caller built with NewCache and owns, and
// otherwise every dataset shares one process-wide cache — except a
// handle given a custom DatasetOptions.Backend, which runs uncached
// unless it names a Cache. A cache has three tiers:
//
//   - parsed footers and column bloom filters, keyed by member identity
//     and version, with singleflight — N concurrent scanners opening the
//     same member pay exactly one footer parse and one bloom decode;
//   - open backend handles, a refcounted LRU bounding live file
//     descriptors and HTTP HEAD+ETag pins across Dataset handles;
//   - a segmented-LRU byte cache of coalesced page runs in front of every
//     member read, under one byte budget for the whole cache
//     (CacheOptions.PageBytes).
//
// The net effect is that a warm selective re-scan touches the backend
// zero times for metadata and only for uncached data runs, which on a
// remote dataset is the difference between a scan dominated by
// round-trips and one dominated by decode. Versioned keys make
// invalidation automatic: a replaced member (new ETag or new
// row/byte accounting) can never serve stale bytes, and Vacuum
// eagerly drops the entries of files it removes. Scan-visible effect is
// reported per scanner in DatasetScanStats.Cache, and cache-wide by the
// Stats method of a cache built with NewCache.
//
// # Training loaders and time travel
//
// Training jobs need two things a mutable dataset does not naturally
// give them: a frozen view that survives the days a run takes, and a
// shuffled epoch stream they can stop and resume exactly. Both are built
// on manifest generations.
//
// Time travel. Dataset.Tag names the current (or any still-present)
// generation; the tag is stored in the manifest and carried forward by
// every later commit, so it is as crash-safe as the data itself —
// creating or deleting a tag is an ordinary CAS commit. OpenDatasetAt
// opens a read-only handle pinned to a tag (or a numeric generation):
//
//	_ = ds.Tag("train-v1", 0)            // freeze the current generation
//	snap, _ := bullion.OpenDatasetAt("ads.blnds", "train-v1", nil)
//	defer snap.Close()                   // mutators fail ErrSnapshotReadOnly
//
// Vacuum is retention-aware: generations that are tagged, pinned by an
// open snapshot handle, or pinned by a live scanner in this process keep
// their manifest and member files, and Vacuum's report says exactly
// what was kept and why (Fsck audits the same retained set, so a tagged
// generation with a missing member fails fsck, not the next training
// run). Untag and re-vacuum to reclaim. A snapshot is frozen: deletes
// committed after its generation live in later manifests and never
// reach it. Erasing a user's rows from history therefore means
// compacting, then untagging (or re-tagging) and vacuuming the
// generations that still hold them.
//
// Loaders. NewLoader plans a shuffled multi-epoch stream over a handle's
// generation from the manifest's row counts alone — the plan costs zero
// data reads. The global row space is cut into ShardRows-sized shards
// (never straddling a member file), each epoch visits the shards in a
// seeded pseudorandom order, and batches stream through the dataset scan
// engine — shared page cache, pruning, parallel decode — with ShardAhead
// shards decoding ahead of the emission cursor:
//
//	ld, _ := bullion.NewLoader(snap, bullion.LoaderOptions{
//	    Columns: hotFeatures, Seed: 42, Epochs: 3,
//	    TargetRowsPerSec: 500_000, // optional pacing toward the GPU budget
//	})
//	defer ld.Close()
//	err := ld.Feed(8, func(consumer int, b *bullion.Batch) error {
//	    return train(consumer, b) // 8 parallel consumers, first error wins
//	})
//
// The stream is a pure function of (generation, seed, shard/batch
// sizes): two runs with the same identity emit byte-identical batch
// sequences, on any machine. Loader.Checkpoint captures that identity
// plus the (epoch, shard, batch) cursor — a few integers — and
// ResumeLoader continues the exact stream, mid-shard, against a handle
// opened at the same generation, no matter what was appended, deleted,
// or vacuumed in between (the tag kept the bytes). Single-consumer
// iteration uses Next directly; Loader.Stats reports plan cost and
// progress.
package bullion

import (
	"fmt"
	"io"
	"net/http"
	"os"

	"bullion/internal/cache"
	"bullion/internal/core"
	"bullion/internal/dataset"
	"bullion/internal/enc"
	"bullion/internal/loader"
	"bullion/internal/quant"
	"bullion/internal/sparse"
	"bullion/internal/storage"
)

// Schema, fields, and column containers re-exported from the core format.
type (
	// Schema is an ordered set of fields.
	Schema = core.Schema
	// Field is one column definition.
	Field = core.Field
	// Type is a column's logical type.
	Type = core.Type
	// Kind is a physical type family.
	Kind = core.Kind
	// Batch is a set of aligned column slices.
	Batch = core.Batch
	// ColumnData is a typed in-memory column.
	ColumnData = core.ColumnData

	// Int64Data is a non-null int64 column.
	Int64Data = core.Int64Data
	// NullableInt64Data is an int64 column with a validity mask.
	NullableInt64Data = core.NullableInt64Data
	// Float64Data is a float64 column.
	Float64Data = core.Float64Data
	// Float32Data is a float32 column (stored per the field's Quant format).
	Float32Data = core.Float32Data
	// BoolData is a boolean column.
	BoolData = core.BoolData
	// BytesData is a binary/string column.
	BytesData = core.BytesData
	// ListInt64Data is a list<int64> column.
	ListInt64Data = core.ListInt64Data
	// ListFloat32Data is a list<float> column.
	ListFloat32Data = core.ListFloat32Data
	// ListFloat64Data is a list<double> column.
	ListFloat64Data = core.ListFloat64Data
	// ListBytesData is a list<binary> column.
	ListBytesData = core.ListBytesData
	// ListListInt64Data is a list<list<int64>> column.
	ListListInt64Data = core.ListListInt64Data

	// Options configures the writer.
	Options = core.Options
	// Level is a deletion-compliance level (§2.1).
	Level = core.Level
	// EncodingOptions steers the §2.6 cascade selector.
	EncodingOptions = enc.Options
	// SparseOptions configures the §2.2 sliding-window codec: in a writer's
	// Options, only its window (MinOverlap, RestartInterval). A sparse
	// page's value stream encodes with Options.Enc; NewWriter refuses a
	// SparseOptions.Enc that is not that same pointer.
	SparseOptions = sparse.Options
	// QuantFormat is a §2.4 storage float format.
	QuantFormat = quant.Format

	// ScanOptions configures a streaming scan (File.Scan).
	ScanOptions = core.ScanOptions
	// Scanner streams a projected column set in row batches.
	Scanner = core.Scanner
	// RowRange restricts a scan to global rows [Lo, Hi).
	RowRange = core.RowRange
	// ColumnFilter is a statistics batch-pruning predicate: int range,
	// float range, or byte-string membership (see "Pruning and
	// statistics").
	ColumnFilter = core.ColumnFilter
	// ScanStats reports a scan's physical work.
	ScanStats = core.ScanStats
)

// DefaultScanBatchRows is the default Scanner batch size.
const DefaultScanBatchRows = core.DefaultScanBatchRows

// Column kinds.
const (
	Int64    = core.Int64
	Int32    = core.Int32
	Float64  = core.Float64
	Float32  = core.Float32
	Bool     = core.Bool
	Binary   = core.Binary
	String   = core.String
	List     = core.List
	ListList = core.ListList
)

// Deletion-compliance levels (§2.1): Level0 behaves like legacy Parquet,
// Level1 maintains a deletion vector, Level2 adds in-place physical
// erasure.
const (
	Level0 = core.Level0
	Level1 = core.Level1
	Level2 = core.Level2
)

// Storage quantization formats (§2.4, Figure 6).
const (
	FP32    = quant.FP32
	FP64    = quant.FP64
	TF32    = quant.TF32
	FP16    = quant.FP16
	BF16    = quant.BF16
	FP8E4M3 = quant.FP8E4M3
	FP8E5M2 = quant.FP8E5M2
)

// NewSchema validates and constructs a schema.
func NewSchema(fields ...Field) (*Schema, error) { return core.NewSchema(fields...) }

// NewBatch validates column/shape agreement against the schema.
func NewBatch(schema *Schema, columns []ColumnData) (*Batch, error) {
	return core.NewBatch(schema, columns)
}

// DefaultOptions returns the writer defaults: 1024-row pages, 64Ki-row
// groups, compliance Level 2, the default cascade, GOMAXPROCS encode
// workers.
func DefaultOptions() *Options { return core.DefaultOptions() }

// DefaultEncodingOptions returns the default cascade selector settings.
func DefaultEncodingOptions() *EncodingOptions { return enc.DefaultOptions() }

// Writer streams batches into a Bullion file.
type Writer struct {
	cw   *core.Writer
	file *os.File // non-nil when created via Create
}

// NewWriter writes a Bullion file to any io.Writer.
func NewWriter(w io.Writer, schema *Schema, opts *Options) (*Writer, error) {
	cw, err := core.NewWriter(w, schema, opts)
	if err != nil {
		return nil, err
	}
	return &Writer{cw: cw}, nil
}

// Create creates (or truncates) a file at path and returns a writer to it.
func Create(path string, schema *Schema, opts *Options) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	cw, err := core.NewWriter(f, schema, opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{cw: cw, file: f}, nil
}

// Write appends a batch. Full row groups are encoded on the writer's
// worker pool behind this call; an error from a previous group's encode
// or write surfaces here (sticky).
func (w *Writer) Write(batch *Batch) error { return w.cw.Write(batch) }

// SelectorStats reports cascade-selector cache reuse (decisions reused vs
// full sampling passes) across all columns. Call it after Close.
func (w *Writer) SelectorStats() (hits, resamples int64) { return w.cw.SelectorStats() }

// Close flushes buffered rows, writes the footer, and, when the writer
// owns the file, syncs it to stable storage and closes it.
func (w *Writer) Close() error {
	err := w.cw.Close()
	if w.file != nil {
		if err == nil {
			err = w.file.Sync()
		}
		if cerr := w.file.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// File is a read handle over a Bullion file.
type File struct {
	cf   *core.File
	file *os.File // non-nil when opened via OpenPath
	path string   // set by OpenPath; DeleteRows reopens it for writing
}

// Open reads the footer from an io.ReaderAt.
func Open(r io.ReaderAt, size int64) (*File, error) {
	cf, err := core.Open(r, size)
	if err != nil {
		return nil, err
	}
	return &File{cf: cf}, nil
}

// OpenPath opens a Bullion file on disk read-only; only DeleteRows opens
// it for writing.
func OpenPath(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	cf, err := core.Open(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	return &File{cf: cf, file: f, path: path}, nil
}

// Close releases the underlying file handle, if owned.
func (f *File) Close() error {
	if f.file != nil {
		return f.file.Close()
	}
	return nil
}

// NumRows returns the logical row count (including deleted rows).
func (f *File) NumRows() uint64 { return f.cf.NumRows() }

// NumLiveRows returns rows not marked deleted.
func (f *File) NumLiveRows() uint64 { return f.cf.NumLiveRows() }

// NumColumns returns the column count.
func (f *File) NumColumns() int { return f.cf.NumColumns() }

// Compliance returns the file's deletion-compliance level.
func (f *File) Compliance() Level { return f.cf.Compliance() }

// Schema materializes the full schema (O(columns); projections should use
// LookupColumn instead).
func (f *File) Schema() *Schema { return f.cf.Schema() }

// LookupColumn resolves a column name via the footer's hash index.
func (f *File) LookupColumn(name string) (int, bool) { return f.cf.LookupColumn(name) }

// ReadColumn reads a full column by name (live rows only).
func (f *File) ReadColumn(name string) (ColumnData, error) { return f.cf.ReadColumn(name) }

// ReadColumnByIndex reads a full column by index (live rows only).
func (f *File) ReadColumnByIndex(c int) (ColumnData, error) { return f.cf.ReadColumnByIndex(c) }

// ReadRows reads global rows [lo, hi) of column c, touching only the
// overlapping pages.
func (f *File) ReadRows(c int, lo, hi uint64) (ColumnData, error) { return f.cf.ReadRows(c, lo, hi) }

// Project reads the named columns in one pass — the §2.3
// feature-projection path, with physically adjacent chunks sharing reads
// (§2.5; see "Reading at scale").
func (f *File) Project(names ...string) (*Batch, error) { return f.cf.Project(names...) }

// Scan starts a streaming scan over the projected columns, decoding
// batches in parallel while preserving file order. See the package
// Quickstart for the iteration loop; Next returns io.EOF at end of scan.
func (f *File) Scan(opts ScanOptions) (*Scanner, error) { return f.cf.Scan(opts) }

// ReorderFields moves the named hot columns to the front of the schema so
// their chunks are written adjacent within every row group (§2.5 column
// reordering). The returned permutation reorders batch columns to match.
func ReorderFields(schema *Schema, hot []string) (*Schema, []int, error) {
	return core.ReorderFields(schema, hot)
}

// ReorderBatchColumns applies a ReorderFields permutation to batch columns.
func ReorderBatchColumns(cols []ColumnData, perm []int) []ColumnData {
	return core.ReorderBatchColumns(cols, perm)
}

// ProjectEvolved reads the requested fields, materializing default values
// for fields the file predates — the read side of additive schema
// evolution for feature churn (§1).
func (f *File) ProjectEvolved(fields []Field) (*Batch, error) {
	return f.cf.ProjectEvolved(fields)
}

// VerifyChecksums re-hashes every page against the footer's Merkle tree.
func (f *File) VerifyChecksums() error { return f.cf.VerifyChecksums() }

// FileStats summarizes a file's physical storage per column.
type FileStats = core.FileStats

// ColumnStats summarizes one column's physical storage.
type ColumnStats = core.ColumnStats

// Stats walks the footer (no data reads) and reports per-column storage.
func (f *File) Stats() *FileStats { return f.cf.Stats() }

// DeleteRows deletes rows per the file's compliance level, writing the
// in-place update to the file's path, which it opens read-write for the
// call and syncs before returning. It requires a File from OpenPath.
func (f *File) DeleteRows(rows []uint64) error {
	if f.path == "" {
		return fmt.Errorf("bullion: DeleteRows requires OpenPath")
	}
	w, err := os.OpenFile(f.path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	err = f.cf.DeleteRows(w, rows)
	if err == nil {
		err = w.Sync()
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return err
}

// Dataset types re-exported from the dataset layer (see "Datasets and
// compaction" above).
type (
	// Dataset is a manifest-backed multi-file table.
	Dataset = dataset.Dataset
	// DatasetOptions configures a Dataset handle: per-file writer options,
	// reader wrapping, the storage backend, and the cache policy
	// (DisableCache, else Cache, else the shared cache; see "Caching and
	// memory tiering").
	DatasetOptions = dataset.Options
	// DatasetScanOptions configures Dataset.Scan: the embedded ScanOptions
	// per member engine, plus FileConcurrency and Degraded (skip-and-report
	// unreachable members instead of failing).
	DatasetScanOptions = dataset.ScanOptions
	// DatasetScanner streams batches across member files in manifest order.
	DatasetScanner = dataset.Scanner
	// DatasetScanStats aggregates per-file ScanStats with file-pruning
	// counters, the resilience work done on the scan's behalf
	// (Retries/Hedges/HedgeWins), and any DegradedMembers skipped.
	DatasetScanStats = dataset.ScanStats
	// ShardedWriter routes ingest batches across N new member files.
	ShardedWriter = dataset.ShardedWriter
	// CompactStats reports what a Dataset.Compact call did.
	CompactStats = dataset.CompactStats
	// DatasetManifest is one generation's manifest document.
	DatasetManifest = dataset.Manifest
	// DatasetFileEntry describes one member file in a manifest.
	DatasetFileEntry = dataset.FileEntry
	// FsckReport is the result of auditing a dataset directory.
	FsckReport = dataset.FsckReport
	// FsckMember is one member file's audit record within an FsckReport.
	FsckMember = dataset.FsckMember
	// StorageBackend is the pluggable flat-namespace store dataset I/O
	// runs on (DatasetOptions.Backend; defaults to the local filesystem).
	StorageBackend = storage.Backend
	// HTTPBackendOptions configures NewHTTPBackend (client override).
	HTTPBackendOptions = storage.HTTPOptions
	// ResilienceOptions tunes NewResilientBackend: per-op deadlines, retry
	// budget, backoff shape, hedge delay, breaker thresholds. The zero
	// value selects the defaults.
	ResilienceOptions = storage.ResilienceOptions
	// ResilientBackend is a StorageBackend wrapped with the retry, hedging,
	// and circuit-breaker policy (see "Remote datasets and resilience").
	ResilientBackend = storage.Resilient
	// ResilienceStats is a ResilientBackend's cumulative counter snapshot.
	ResilienceStats = storage.ResilienceStats
	// ArtifactCache is the shared immutable-artifact cache serving
	// datasets: parsed footers/blooms, open handles, and page bytes (see
	// "Caching and memory tiering"). Pass one via DatasetOptions.Cache to
	// scope sharing explicitly.
	ArtifactCache = cache.Cache
	// CacheOptions sizes a NewCache instance (footer entries, handle
	// entries, page bytes). Zero fields select the defaults.
	CacheOptions = cache.Options

	// VacuumReport is what Dataset.Vacuum returns: files removed,
	// generations retained (tagged or pinned), and the files kept on
	// their behalf.
	VacuumReport = dataset.VacuumReport
	// FsckRetained is one retained (tagged) generation's audit record
	// within an FsckReport.
	FsckRetained = dataset.FsckRetained

	// Loader streams a dataset generation as deterministic shuffled
	// epochs (see "Training loaders and time travel").
	Loader = loader.Loader
	// LoaderOptions configures NewLoader: projection, shuffle seed and
	// granule, epochs, batch size, read-ahead, and pacing.
	LoaderOptions = loader.Options
	// LoaderCheckpoint is an exact resume point — the plan identity
	// (generation, seed, sizes) plus the (epoch, shard, batch) cursor.
	// It marshals to JSON for persisting alongside model checkpoints.
	LoaderCheckpoint = loader.Checkpoint
	// LoaderStats snapshots a loader's progress and planning cost.
	LoaderStats = loader.Stats
)

// Sentinel errors surfaced by dataset commits.
var (
	// ErrGenerationConflict reports a lost commit race: another handle
	// moved CURRENT first. The losing mutation left no trace; reopen (or
	// re-snapshot) and retry.
	ErrGenerationConflict = dataset.ErrGenerationConflict
	// ErrCommitIndeterminate reports a commit whose CURRENT swap was
	// published but could not be confirmed durable. The data files are
	// left in place; reopen to learn the outcome, Vacuum to reclaim.
	ErrCommitIndeterminate = dataset.ErrCommitIndeterminate
	// ErrBackendReadOnly reports a mutating operation on a read-only
	// backend (a dataset opened from an http(s) URL).
	ErrBackendReadOnly = storage.ErrReadOnly
	// ErrChangedUnderRead reports a remote member whose ETag no longer
	// matches the one pinned at open — the file changed mid-scan.
	ErrChangedUnderRead = storage.ErrChangedUnderRead
	// ErrCircuitOpen reports a read failed fast because the resilience
	// wrapper's circuit breaker is open after consecutive failures.
	ErrCircuitOpen = storage.ErrCircuitOpen
	// ErrSnapshotReadOnly reports a mutation attempted through a handle
	// opened at a pinned generation (OpenDatasetAt).
	ErrSnapshotReadOnly = dataset.ErrSnapshotReadOnly
	// ErrNoSuchTag reports a tag or generation reference the dataset does
	// not know.
	ErrNoSuchTag = dataset.ErrNoSuchTag
)

// CreateDataset initializes a new dataset directory with an empty
// manifest (generation 1). The directory must not already hold a dataset.
func CreateDataset(dir string, schema *Schema, opts *DatasetOptions) (*Dataset, error) {
	return dataset.Create(dir, schema, opts)
}

// OpenDataset opens the dataset at dir at its current manifest generation.
func OpenDataset(dir string, opts *DatasetOptions) (*Dataset, error) {
	return dataset.Open(dir, opts)
}

// OpenDatasetAt opens a read-only handle pinned to the generation ref
// names: a tag created with Dataset.Tag, or (when ref is all digits) a
// numeric generation. The pinned generation's files are protected from
// Vacuum by handles in this process for as long as the handle is open;
// tagged generations are protected across processes by the tag itself.
// Mutations through the handle fail with ErrSnapshotReadOnly.
func OpenDatasetAt(dir, ref string, opts *DatasetOptions) (*Dataset, error) {
	return dataset.OpenAt(dir, ref, opts)
}

// NewLoader plans a deterministic shuffled epoch stream over ds's
// current generation — manifest row counts only, zero data reads (see
// "Training loaders and time travel"). Open ds via OpenDatasetAt when
// commits may land while the loader runs.
func NewLoader(ds *Dataset, opts LoaderOptions) (*Loader, error) {
	return loader.New(ds, opts)
}

// ResumeLoader continues the exact batch stream a LoaderCheckpoint was
// captured from, mid-shard. ds must be opened at the checkpoint's
// generation (OpenDatasetAt); the checkpoint's identity fields override
// the corresponding opts.
func ResumeLoader(ds *Dataset, ck LoaderCheckpoint, opts LoaderOptions) (*Loader, error) {
	return loader.Resume(ds, ck, opts)
}

// FsckDataset audits the dataset at dir without mutating it: manifest
// integrity (including each entry's deletion bitmap), per-member
// sizes/fingerprints/row counts, live rows after the manifest's
// deletions, and orphaned temporaries or unreferenced files.
// With deep set, every member's Merkle checksum tree is verified too.
func FsckDataset(dir string, opts *DatasetOptions, deep bool) (*FsckReport, error) {
	return dataset.Fsck(dir, opts, deep)
}

// NewLocalBackend returns a StorageBackend rooted at the directory dir
// (created if absent) — the backend OpenDataset uses by default, exposed
// for wrapping with instrumentation or fault injection.
func NewLocalBackend(dir string) (StorageBackend, error) { return storage.NewLocal(dir) }

// NewHTTPBackend returns a read-only StorageBackend over the dataset
// published at baseURL via HTTP range reads with ETag pinning (see
// "Remote datasets and resilience"). OpenDataset calls this implicitly —
// wrapped in NewResilientBackend — for http(s) URLs; construct it
// directly to customize the client or the resilience policy.
func NewHTTPBackend(baseURL string, opts *HTTPBackendOptions) (StorageBackend, error) {
	return storage.NewHTTP(baseURL, opts)
}

// NewResilientBackend wraps any StorageBackend with the retry, hedged-
// read, and circuit-breaker policy. A nil opts selects the defaults.
func NewResilientBackend(b StorageBackend, opts *ResilienceOptions) *ResilientBackend {
	return storage.NewResilient(b, opts)
}

// NewCache builds an ArtifactCache for DatasetOptions.Cache — isolation
// from the process-wide shared cache, or bespoke sizing. The caller owns
// it: closing a Dataset never closes it.
func NewCache(opts CacheOptions) *ArtifactCache { return cache.New(opts) }

// DatasetHTTPHandler serves a StorageBackend's files over GET/HEAD with
// byte-range and If-Match support — the reference server side for
// NewHTTPBackend, used by the examples and integration tests to publish
// a local dataset directory.
func DatasetHTTPHandler(b StorageBackend) http.Handler { return storage.NewHTTPHandler(b) }

// Quantize converts float32 values to a Figure 6 format's bit patterns
// (widened for the integer cascade).
func Quantize(vs []float32, f QuantFormat) ([]int64, error) { return quant.Quantize(vs, f) }

// Dequantize expands bit patterns back to float32.
func Dequantize(bits []int64, f QuantFormat) ([]float32, error) { return quant.Dequantize(bits, f) }

// SplitBF16Columns decomposes an FP32 column into a bfloat16-truncated
// primary column and a 16-bit residual column; JoinBF16Columns
// reconstructs the original bits exactly (§2.4's dual-column strategy).
func SplitBF16Columns(vs []float32) (hi, lo []int64) { return quant.SplitBF16Columns(vs) }

// JoinBF16Columns reconstructs the FP32 column from its two halves.
func JoinBF16Columns(hi, lo []int64) []float32 { return quant.JoinBF16Columns(hi, lo) }
