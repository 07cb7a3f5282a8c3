package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"bullion/internal/cache"
	"bullion/internal/core"
	"bullion/internal/dataset"
	"bullion/internal/enc"
	"bullion/internal/loader"
	"bullion/internal/sparse"
	"bullion/internal/storage"
	"bullion/internal/workload"
)

// workloadDef names a workload and says why it exists; BENCHMARK.json
// carries the same two strings.
type workloadDef struct {
	name  string
	why   string
	setup func(e *env) (instance, error)
	// remote workloads read over HTTP, where hedged reads and concurrent
	// read-ahead can make byte counts differ between two runs of a seed.
	remote bool
	// overlap marks a workload that measures work overlapping other work,
	// which a machine with one processor cannot show.
	overlap bool
}

var workloads = []workloadDef{
	{name: "ads_ingest", setup: setupIngest,
		why: "write path: encoder choice, sparse codec, checksums, file writer, commit and fsync dominate; a read-side gain that fattens files or slows encode shows here"},
	{name: "ads_delete_compact", setup: setupDeleteCompact,
		why: "the paper's deletion claim: median is a delete, tail is the compaction stall, io_bytes_per_row is delete I/O"},
	{name: "ads_scan_cold", setup: setupScanCold,
		why: "filtered projection with the cache bypassed: planner, pruning, decode and assembly; a cache change must not move it"},
	{name: "wide_project", setup: setupWideProject,
		why: "the paper's metadata claim: open a 17,899-column table and project 10; manifest and footer dominate, decode is nil"},
	{name: "remote_rescan_fits", setup: setupRescanFits, remote: true,
		why: "working set fits the cache: rescans over HTTP should be served by the handle, footer and page tiers"},
	{name: "remote_epoch_spills", setup: setupEpochSpills, remote: true, overlap: true,
		why: "working set is 4x the cache: shuffled epochs over HTTP stress eviction, round trips and loader read-ahead"},
}

// Sizes. Shape A is the ads table at 1/64 of Table 1's column counts
// (286 leaf columns, about 67 KB of user bytes per row), shape B at 1/256
// (81 columns, about 18 KB per row). Writing a member costs about 1 ms of
// encoder selection per column however few rows it holds, so a shape-A
// member takes 0.4 s and more. A run sets up three times and measures for
// ten seconds, so the datasets stay at a few thousand rows, and only the
// scan, whose projection is the point of the wide shape, reads shape A:
// on it a commit or a compaction takes most of a second, and a run would
// see about ten of them.
const (
	shapeADown    = 64
	shapeBDown    = 256
	adsMembers    = 4
	adsMemberRows = 512
	remoteMembers = 8
	remoteRows    = 256 // per member
	ingestShards  = 2
	ingestRows    = 256 // per shard and op
	ingestOps     = 4   // commits per round, into one growing dataset
	deleteOps     = 4   // per round; the last one also compacts
	deleteUIDs    = 8   // per op
	wideRows      = 32
	wideCols      = 10
	loaderShard   = 128
	loaderEpochs  = 3
	// loaderSeed fixes the shuffle whatever the data seed: how early an
	// epoch revisits a shard decides what the small cache can serve, and
	// the work of a round should not depend on the seed.
	loaderSeed = 1
)

// env is what a set-up gets from the runner.
type env struct {
	seed  int64
	dir   string // empty directory owned by this set-up
	procs int    // GOMAXPROCS; bounds every worker count and the HTTP pool
	tr    *tracer
	io    *ioCounters
	// counts accumulates what the layers report about themselves (scan
	// statistics, compaction bytes, loader waits) across rounds.
	counts map[string]float64
}

// instance is a set-up workload. A round is a fixed sequence of ops, so
// every count a round produces repeats exactly; the runner repeats rounds
// until the measuring time is spent.
type instance interface {
	round(r *recorder) error
	// sizes returns the bytes the workload's dataset stores and the raw
	// bytes of the values in it.
	sizes() (stored, user int64)
	// sample adds the running totals of counters kept outside env.counts
	// (cache, loopback server) to dst.
	sample(dst map[string]float64)
	// probe describes one member for the per-layer probes.
	probe() probeTarget
	close() error
}

// recorder collects the ops of one measured phase.
type recorder struct {
	tr        *tracer
	ms        []float64
	rows      int64
	attempted int
	failed    int
}

// op times fn as one op that handles rows rows. An op that fails counts
// as failed and, in the latency samples, as slow as the slowest op seen.
func (r *recorder) op(rows int, fn func() error) {
	start := time.Now()
	err := r.tr.call(opSpan, fn)
	r.ms = append(r.ms, float64(time.Since(start))/1e6)
	r.attempted++
	r.rows += int64(rows)
	if err != nil {
		r.failLast(err)
	}
}

// failLast marks the last op failed: a check after it found its result
// wrong.
func (r *recorder) failLast(err error) {
	fmt.Fprintf(os.Stderr, "bench: failed op: %v\n", err)
	r.failed++
	slowest := 0.0
	for _, v := range r.ms {
		if v > slowest {
			slowest = v
		}
	}
	r.ms[len(r.ms)-1] = slowest
}

func writerOptions() *core.Options {
	o := core.DefaultOptions()
	o.Compliance = core.Level1 // the dataset layer's default
	o.RowsPerPage = pageRows
	return o
}

// countingLocal opens dir's local backend behind the counting wrapper.
func (e *env) countingLocal(dir string) (storage.Backend, error) {
	local, err := storage.NewLocal(dir)
	if err != nil {
		return nil, err
	}
	return &countingBackend{under: local, c: e.io, tr: e.tr}, nil
}

// built describes a dataset a set-up wrote.
type built struct {
	dir    string
	rows   uint64
	stored int64
	user   int64
	first  *core.Batch // the first member's rows, for the probes
}

// build writes a dataset of the given members into dir, one commit per
// member, through the plain local backend. gen returns the member that
// starts at dataset row firstRow.
func build(dir string, schema *core.Schema, members int, w *core.Options,
	gen func(firstRow uint64) (*core.Batch, error)) (*built, error) {
	ds, err := dataset.Create(dir, schema, &dataset.Options{Writer: w, DisableCache: true})
	if err != nil {
		return nil, err
	}
	defer ds.Close()
	b := &built{dir: dir}
	for m := 0; m < members; m++ {
		batch, err := gen(b.rows)
		if err != nil {
			return nil, err
		}
		if m == 0 {
			b.first = batch
		}
		if err := ds.Append(batch); err != nil {
			return nil, err
		}
		b.rows += uint64(batch.NumRows())
		b.user += userBytes(batch)
	}
	b.stored = ds.TotalBytes()
	return b, nil
}

// buildAds builds members x memberRows generated rows of the ads shape.
func buildAds(rng *rand.Rand, dir string, schema *core.Schema, members, memberRows int) (*built, error) {
	return build(dir, schema, members, writerOptions(), func(firstRow uint64) (*core.Batch, error) {
		return withUIDs(schema, workload.AdsColumns(rng, schema, memberRows), firstRow)
	})
}

func (b *built) sizes() (int64, int64) { return b.stored, b.user }

// firstMember returns the path of one member file of the dataset in dir
// ("" when there is none; the probes then fail to read it).
func firstMember(dir string) string {
	names, _ := filepath.Glob(filepath.Join(dir, "part-*.bln"))
	if len(names) == 0 {
		return ""
	}
	return names[0]
}

// scanSpec is one open-scan-drain-close op and the digest it must produce.
type scanSpec struct {
	open func() (*dataset.Dataset, error)
	opts dataset.ScanOptions // Columns[0] is uid
	keep func(uid int64) bool
	want uidDigest
}

func (e *env) scanOp(s *scanSpec) error {
	var ds *dataset.Dataset
	if err := e.tr.call("dataset.Open", func() (err error) { ds, err = s.open(); return }); err != nil {
		return err
	}
	var sc *dataset.Scanner
	if err := e.tr.call("dataset.Scan", func() (err error) { sc, err = ds.Scan(s.opts); return }); err != nil {
		ds.Close()
		return err
	}
	got, err := e.drain(sc, s.keep)
	e.addScanStats(sc.Stats())
	cerr := e.tr.call("dataset.Close", func() error { return errors.Join(sc.Close(), ds.Close()) })
	if err != nil {
		return err
	}
	if cerr != nil {
		return cerr
	}
	if got.rows != s.want.rows || got.chain != s.want.chain {
		return fmt.Errorf("scan returned %d rows, digest %x; want %d rows, digest %x",
			got.rows, got.chain, s.want.rows, s.want.chain)
	}
	return nil
}

// drain reads sc to its end and digests column 0, the uid.
func (e *env) drain(sc *dataset.Scanner, keep func(int64) bool) (uidDigest, error) {
	d := newDigest()
	for {
		var b *core.Batch
		err := e.tr.call("dataset.Next", func() (err error) { b, err = sc.Next(); return })
		if err == io.EOF {
			return d, nil
		}
		if err != nil {
			return d, err
		}
		if err := d.addBatch(b, 0, keep); err != nil {
			return d, err
		}
	}
}

func (e *env) addScanStats(s dataset.ScanStats) {
	c := e.counts
	c["scan.read_ops"] += float64(s.ReadOps)
	c["scan.bytes_read"] += float64(s.BytesRead)
	c["scan.wasted_bytes"] += float64(s.WastedBytes)
	c["scan.pages_decoded"] += float64(s.PagesDecoded)
	c["scan.pages_skipped"] += float64(s.PagesSkipped)
	c["scan.batches_emitted"] += float64(s.BatchesEmitted)
	c["scan.batches_skipped"] += float64(s.BatchesSkipped)
	c["scan.files_planned"] += float64(s.FilesPlanned)
	c["scan.files_pruned"] += float64(s.FilesPruned)
}

// scanOptions projects cols (uid first) with every worker count at procs.
func (e *env) scanOptions(cols []string) dataset.ScanOptions {
	return dataset.ScanOptions{ScanOptions: core.ScanOptions{Columns: cols, Workers: e.procs}, FileConcurrency: e.procs}
}

// openCold returns the open of the cache-bypassing scans: a fresh handle
// on dir through the counting wrapper.
func (e *env) openCold(dir string) func() (*dataset.Dataset, error) {
	return func() (*dataset.Dataset, error) {
		backend, err := e.countingLocal(dir)
		if err != nil {
			return nil, err
		}
		return dataset.Open(dir, &dataset.Options{Backend: backend, DisableCache: true})
	}
}

// ---- ads_ingest ----

type ingest struct {
	e      *env
	schema *core.Schema
	cols   [ingestShards][]core.ColumnData
	first  *core.Batch
	stored int64
	user   int64
}

func setupIngest(e *env) (instance, error) {
	schema, err := workload.AdsSchema(shapeBDown, true)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	w := &ingest{e: e, schema: schema}
	for i := range w.cols {
		w.cols[i] = workload.AdsColumns(rng, schema, ingestRows)
	}
	if w.first, err = withUIDs(schema, w.cols[0], 0); err != nil {
		return nil, err
	}
	for i := range w.cols {
		b, err := withUIDs(schema, w.cols[i], 0)
		if err != nil {
			return nil, err
		}
		w.user += ingestOps * userBytes(b)
	}
	return w, nil
}

// round loads a fresh dataset with ingestOps commits. The same batches go
// in every round (only uid moves with the row number), so the files and
// every byte count repeat.
func (w *ingest) round(r *recorder) error {
	e := w.e
	dir := filepath.Join(e.dir, "ds")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	backend, err := e.countingLocal(dir)
	if err != nil {
		return err
	}
	opts := &dataset.Options{Backend: backend, Writer: writerOptions()}
	ds, err := dataset.Create(dir, w.schema, opts)
	if err != nil {
		return err
	}
	row := uint64(0)
	for k := 0; k < ingestOps; k++ {
		var batches [ingestShards]*core.Batch
		for i := range batches {
			if batches[i], err = withUIDs(w.schema, w.cols[i], row); err != nil {
				ds.Close()
				return err
			}
			row += ingestRows
		}
		r.op(ingestShards*ingestRows, func() error {
			var sw *dataset.ShardedWriter
			err := e.tr.call("dataset.ShardedWriter", func() (err error) { sw, err = ds.ShardedWriter(ingestShards); return })
			if err != nil {
				return err
			}
			for _, b := range batches {
				if err := e.tr.call("dataset.Write", func() error { return sw.Write(b) }); err != nil {
					return err // a failed Write has already discarded the shards
				}
			}
			return e.tr.call("dataset.Commit", sw.Close)
		})
	}
	if err := ds.Close(); err != nil {
		return err
	}
	// Reopen as a reader would and check that every row arrived.
	check, err := dataset.Open(dir, &dataset.Options{DisableCache: true})
	if err != nil {
		return err
	}
	defer check.Close()
	if check.NumRows() != row {
		r.failLast(fmt.Errorf("reopened dataset has %d rows, want %d", check.NumRows(), row))
	}
	w.stored = check.TotalBytes()
	return nil
}

func (w *ingest) sizes() (int64, int64)     { return w.stored, w.user }
func (w *ingest) sample(map[string]float64) {}
func (w *ingest) close() error              { return nil }

func (w *ingest) probe() probeTarget {
	return probeTarget{member: firstMember(filepath.Join(w.e.dir, "ds")), batch: w.first}
}

// ---- ads_delete_compact ----

type deleteCompact struct {
	e        *env
	pristine *built
	ops      [deleteOps][]uint64 // rows each op deletes
	deleted  map[int64]bool      // every uid a round deletes
	liveEnd  uint64
	want     uidDigest
}

// setupDeleteCompact builds the dataset every round starts from and plans
// the round: each op erases deleteUIDs users, half of them in one hot
// member and half spread over the others. After deleteOps ops the hot
// member has lost a quarter of its rows and the others under a tenth, so
// Compact(0.9) rewrites exactly the hot member.
func setupDeleteCompact(e *env) (instance, error) {
	schema, err := workload.AdsSchema(shapeBDown, true)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	b, err := buildAds(rng, filepath.Join(e.dir, "pristine"), schema, adsMembers, adsMemberRows)
	if err != nil {
		return nil, err
	}
	const memberUIDs = adsMemberRows / rowsPerUID
	hot := rng.Intn(adsMembers)
	pick := func(member, n int) []int64 {
		uids := make([]int64, n)
		for i, p := range rng.Perm(memberUIDs)[:n] {
			uids[i] = int64(member*memberUIDs + p)
		}
		return uids
	}
	half := deleteUIDs / 2
	hotUIDs := pick(hot, deleteOps*half)
	var coldMembers []int
	for m := 0; m < adsMembers; m++ {
		if m != hot {
			coldMembers = append(coldMembers, m)
		}
	}
	// Cold uids are dealt to the other members in turn.
	nc := len(coldMembers)
	coldPicks := make([][]int64, nc)
	for i, m := range coldMembers {
		coldPicks[i] = pick(m, (deleteOps*half-i+nc-1)/nc)
	}
	coldUIDs := make([]int64, deleteOps*half)
	for i := range coldUIDs {
		coldUIDs[i] = coldPicks[i%nc][i/nc]
	}
	w := &deleteCompact{e: e, pristine: b, deleted: map[int64]bool{}}
	for j := range w.ops {
		uids := append(append([]int64(nil), hotUIDs[j*half:(j+1)*half]...), coldUIDs[j*half:(j+1)*half]...)
		for _, u := range uids {
			w.deleted[u] = true
		}
		w.ops[j] = rowsOfUIDs(uids)
	}
	w.liveEnd = b.rows - uint64(len(w.deleted))*rowsPerUID
	w.want = referenceDigest(b.rows, w.deleted, nil)
	return w, nil
}

func (w *deleteCompact) round(r *recorder) error {
	e := w.e
	work := filepath.Join(e.dir, "work")
	if err := copyDir(w.pristine.dir, work); err != nil {
		return err
	}
	backend, err := e.countingLocal(work)
	if err != nil {
		return err
	}
	ds, err := dataset.Open(work, &dataset.Options{Backend: backend, Writer: writerOptions()})
	if err != nil {
		return err
	}
	defer ds.Close()
	for j, rows := range w.ops {
		r.op(len(rows), func() error {
			if err := e.tr.call("dataset.Delete", func() error { return ds.Delete(rows) }); err != nil {
				return err
			}
			if j < deleteOps-1 {
				return nil
			}
			before := e.io.snapshot()
			var cs dataset.CompactStats
			if err := e.tr.call("dataset.Compact", func() (err error) { cs, err = ds.Compact(0.9); return }); err != nil {
				return err
			}
			e.counts["compact.bytes"] += float64(e.io.snapshot().sub(before).writeBytes)
			if cs.FilesCompacted != 1 {
				return fmt.Errorf("compaction rewrote %d members, the round is planned for 1", cs.FilesCompacted)
			}
			return e.tr.call("dataset.Vacuum", func() error { _, err := ds.Vacuum(); return err })
		})
	}
	// No erased user may come back, before or after the rewrite.
	if live := ds.NumLiveRows(); live != w.liveEnd {
		r.failLast(fmt.Errorf("%d live rows after the round, want %d", live, w.liveEnd))
		return nil
	}
	sc, err := ds.Scan(dataset.ScanOptions{ScanOptions: core.ScanOptions{Columns: []string{"uid"}}})
	if err != nil {
		return err
	}
	defer sc.Close()
	got, err := e.drain(sc, nil)
	if err != nil {
		return err
	}
	if got.rows != w.want.rows || got.chain != w.want.chain {
		r.failLast(fmt.Errorf("after compaction the scan returned %d rows, digest %x; want %d, %x",
			got.rows, got.chain, w.want.rows, w.want.chain))
	}
	return nil
}

func (w *deleteCompact) sizes() (int64, int64)     { return w.pristine.sizes() }
func (w *deleteCompact) sample(map[string]float64) {}
func (w *deleteCompact) close() error              { return nil }

func (w *deleteCompact) probe() probeTarget {
	local := make([]uint64, len(w.ops[0]))
	for i, row := range w.ops[0] {
		local[i] = row % adsMemberRows
	}
	return probeTarget{member: firstMember(w.pristine.dir), batch: w.pristine.first, inplaceRows: local}
}

// copyDir replaces dst with a copy of the regular files of src and forces
// it to disk, so that the fsyncs of the ops that follow flush only what
// those ops wrote.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(dst, ent.Name()))
		if err != nil {
			return err
		}
		_, err = f.Write(data)
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	d, err := os.Open(dst)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ---- ads_scan_cold and wide_project ----

// coldScan is a workload whose op is one cache-bypassing
// open-scan-drain-close of a local dataset.
type coldScan struct {
	e      *env
	b      *built
	spec   scanSpec
	legacy bool // the probes also time the Parquet-style control
}

func (w *coldScan) round(r *recorder) error {
	r.op(w.spec.want.rows, func() error { return w.e.scanOp(&w.spec) })
	return nil
}

func (w *coldScan) sizes() (int64, int64)     { return w.b.sizes() }
func (w *coldScan) sample(map[string]float64) {}
func (w *coldScan) close() error              { return nil }

func (w *coldScan) probe() probeTarget {
	return probeTarget{member: firstMember(w.b.dir), batch: w.b.first, columns: w.spec.opts.Columns, legacy: w.legacy}
}

func adsProjection(sparseCols, denseCols int) []string {
	cols := []string{"uid"}
	for i := 0; i < sparseCols; i++ {
		cols = append(cols, fmt.Sprintf("sparse_ids_%05d", i))
	}
	for i := 0; i < denseCols; i++ {
		cols = append(cols, fmt.Sprintf("dense_vec_%04d", i))
	}
	return cols
}

func setupScanCold(e *env) (instance, error) {
	schema, err := workload.AdsSchema(shapeADown, true)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	b, err := buildAds(rng, filepath.Join(e.dir, "ds"), schema, adsMembers, adsMemberRows)
	if err != nil {
		return nil, err
	}
	// 2% of the rows are already gone when the scans start.
	uids := int(b.rows / rowsPerUID)
	deleted := map[int64]bool{}
	var gone []int64
	for _, u := range rng.Perm(uids)[:uids/50] {
		deleted[int64(u)] = true
		gone = append(gone, int64(u))
	}
	ds, err := dataset.Open(b.dir, &dataset.Options{DisableCache: true})
	if err != nil {
		return nil, err
	}
	err = ds.Delete(rowsOfUIDs(gone))
	ds.Close()
	if err != nil {
		return nil, err
	}
	// The filter keeps 60% of the key space. It starts inside the second
	// member and ends inside the last, both off a page boundary, so the
	// first member is pruned from the manifest, pages of the two cut
	// members by their zone maps, and the rest is read whole. Its place
	// does not depend on the seed: the work of an op should not either.
	memberUIDs := uids / adsMembers
	lo := int64(memberUIDs + memberUIDs*3/8)
	hi := lo + int64(uids*6/10)
	keep := func(u int64) bool { return u >= lo && u <= hi }
	opts := e.scanOptions(adsProjection(64, 8))
	opts.BatchRows = pageRows
	opts.Filters = []core.ColumnFilter{{Column: "uid", Min: &lo, Max: &hi}}
	return &coldScan{e: e, b: b, spec: scanSpec{
		open: e.openCold(b.dir),
		opts: opts,
		keep: keep,
		want: referenceDigest(b.rows, deleted, keep),
	}}, nil
}

// plainWriter makes the writer cheap: the wide table's subject is
// metadata, and with the default encoder selection its 17,899 columns
// take 17 s to write.
func plainWriter() *core.Options {
	plain := &enc.Options{MaxDepth: 0, SampleSize: 64,
		Allowed: map[enc.SchemeID]bool{enc.Plain: true, enc.PlainF: true, enc.PlainB: true}}
	o := writerOptions()
	o.Enc = plain
	o.Sparse = &sparse.Options{MinOverlap: 8, RestartInterval: 64, Enc: plain}
	o.BloomBitsPerValue = -1
	return o
}

func setupWideProject(e *env) (instance, error) {
	schema, err := workload.AdsSchema(1, true)
	if err != nil {
		return nil, err
	}
	// The columns of a small generated table, recycled by type across the
	// 17,899: generating them all would dominate set-up, and one column per
	// type would make the table's size swing with that column's luck.
	small, err := workload.AdsSchema(shapeBDown, true)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	typeKey := func(f core.Field) string { return fmt.Sprint(f.Type, f.Sparse) }
	pool := map[string][]core.ColumnData{}
	for i, c := range workload.AdsColumns(rng, small, wideRows) {
		k := typeKey(small.Fields[i])
		pool[k] = append(pool[k], c)
	}
	cols := make([]core.ColumnData, len(schema.Fields))
	for i, f := range schema.Fields {
		p := pool[typeKey(f)]
		if len(p) == 0 {
			return nil, fmt.Errorf("no pooled column for %s", f.Name)
		}
		cols[i] = p[i%len(p)]
	}
	b, err := build(filepath.Join(e.dir, "ds"), schema, 1, plainWriter(), func(firstRow uint64) (*core.Batch, error) {
		return withUIDs(schema, cols, firstRow)
	})
	if err != nil {
		return nil, err
	}
	project := []string{"uid"}
	for _, i := range rng.Perm(len(schema.Fields) - 1)[:wideCols-1] {
		project = append(project, schema.Fields[i].Name) // uid is the last field
	}
	return &coldScan{e: e, b: b, legacy: true, spec: scanSpec{
		open: e.openCold(b.dir),
		opts: e.scanOptions(project),
		want: referenceDigest(b.rows, nil, nil),
	}}, nil
}

// ---- remote_rescan_fits and remote_epoch_spills ----

// remote is the dataset both remote workloads read: shape B, served by
// the loopback server.
type remote struct {
	e     *env
	b     *built
	lb    *loopback
	cache *cache.Cache
	spec  scanSpec           // a full scan of the projection through cache
	res   *storage.Resilient // the backend of the latest open
}

// setupRemote builds and serves the dataset. The cache's page tier holds
// twice the whole dataset, so nothing a scan reads is ever evicted.
func setupRemote(e *env) (*remote, error) {
	schema, err := workload.AdsSchema(shapeBDown, true)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	b, err := buildAds(rng, filepath.Join(e.dir, "ds"), schema, remoteMembers, remoteRows)
	if err != nil {
		return nil, err
	}
	lb, err := startLoopback(b.dir, e.procs, e.tr)
	if err != nil {
		return nil, err
	}
	w := &remote{e: e, b: b, lb: lb, cache: cache.New(cache.Options{PageBytes: 2 * b.stored})}
	w.spec = scanSpec{
		open: w.open,
		opts: e.scanOptions(adsProjection(8, 0)),
		want: referenceDigest(b.rows, nil, nil),
	}
	return w, nil
}

// open opens the served dataset through a fresh remote backend and the
// workload's cache, and keeps the backend for its retry and hedge counts.
func (w *remote) open() (*dataset.Dataset, error) {
	res, err := w.lb.backend()
	if err != nil {
		return nil, err
	}
	w.res = res
	backend := &countingBackend{under: res, c: w.e.io, tr: w.e.tr}
	return dataset.Open(w.lb.url, &dataset.Options{Backend: backend, Cache: w.cache})
}

func (w *remote) sizes() (int64, int64) { return w.b.sizes() }

func (w *remote) sample(dst map[string]float64) {
	s := w.cache.Stats()
	dst["cache.footer_hits"] = float64(s.FooterHits)
	dst["cache.footer_misses"] = float64(s.FooterMisses)
	dst["cache.handle_hits"] = float64(s.HandleHits)
	dst["cache.handle_misses"] = float64(s.HandleMisses)
	dst["cache.page_hits"] = float64(s.PageHits)
	dst["cache.page_misses"] = float64(s.PageMisses)
	dst["cache.page_evictions"] = float64(s.PageEvictions)
	dst["http.requests"] = float64(w.lb.requests.Load())
	dst["http.data_requests"] = float64(w.lb.dataRequests.Load())
}

func (w *remote) probe() probeTarget {
	return probeTarget{member: firstMember(w.b.dir), batch: w.b.first, columns: w.spec.opts.Columns}
}

func (w *remote) close() error {
	err := w.cache.Close()
	w.lb.stop()
	return err
}

type rescanFits struct{ *remote }

func setupRescanFits(e *env) (instance, error) {
	rem, err := setupRemote(e)
	if err != nil {
		return nil, err
	}
	return &rescanFits{rem}, nil
}

// round is one rescan; every op opens through a backend of its own.
func (w *rescanFits) round(r *recorder) error {
	r.op(w.spec.want.rows, func() error { return w.e.scanOp(&w.spec) })
	s := w.res.ResilienceStats()
	w.e.counts["res.retries"] += float64(s.Retries)
	w.e.counts["res.hedges"] += float64(s.Hedges)
	return nil
}

type epochSpills struct {
	*remote
	ds      *dataset.Dataset
	resBase storage.ResilienceStats
	batches int
}

func setupEpochSpills(e *env) (instance, error) {
	rem, err := setupRemote(e)
	if err != nil {
		return nil, err
	}
	// Measure what the projection touches with the cache that holds it
	// all, then give the workload a quarter of that.
	if err := e.scanOp(&rem.spec); err != nil {
		rem.close()
		return nil, err
	}
	touched := rem.cache.Stats().PageBytes
	if err := rem.cache.Close(); err != nil {
		rem.lb.stop()
		return nil, err
	}
	rem.cache = cache.New(cache.Options{PageBytes: touched / 4})
	w := &epochSpills{remote: rem, batches: loaderEpochs * remoteMembers * (remoteRows / loaderShard)}
	if w.ds, err = rem.open(); err != nil {
		rem.close()
		return nil, err
	}
	return w, nil
}

// round streams loaderEpochs shuffled epochs; every Next is an op, and
// its latency is how long a trainer would have waited for the batch.
func (w *epochSpills) round(r *recorder) error {
	e := w.e
	ahead := e.procs
	if ahead > 2 {
		ahead = 2
	}
	start := time.Now()
	l, err := loader.New(w.ds, loader.Options{Columns: w.spec.opts.Columns, ShardRows: loaderShard,
		Seed: loaderSeed, Epochs: loaderEpochs, Workers: e.procs, ShardAhead: ahead})
	if err != nil {
		return err
	}
	defer l.Close()
	got := newDigest()
	waitBefore := sum(r.ms)
	for i := 0; i < w.batches; i++ {
		r.op(loaderShard, func() error {
			var b *core.Batch
			err := e.tr.call("loader.Next", func() (err error) { b, err = l.Next(); return })
			if err != nil {
				return err
			}
			if b.NumRows() != loaderShard {
				return fmt.Errorf("batch of %d rows, want %d", b.NumRows(), loaderShard)
			}
			return got.addBatch(b, 0, nil)
		})
	}
	if _, err := l.Next(); err != io.EOF {
		r.failLast(fmt.Errorf("loader did not end after %d batches: %v", w.batches, err))
	}
	want := w.spec.want
	if got.rows != loaderEpochs*want.rows || got.sum != loaderEpochs*want.sum {
		r.failLast(fmt.Errorf("epochs returned %d rows, digest %x; want %d, %x",
			got.rows, got.sum, loaderEpochs*want.rows, loaderEpochs*want.sum))
	}
	e.counts["loader.plan_ms"] += float64(l.Stats().PlanTime) / 1e6
	e.counts["loader.wait_ms"] += sum(r.ms) - waitBefore
	e.counts["loader.wall_ms"] += float64(time.Since(start)) / 1e6
	s := w.res.ResilienceStats()
	e.counts["res.retries"] += float64(s.Retries - w.resBase.Retries)
	e.counts["res.hedges"] += float64(s.Hedges - w.resBase.Hedges)
	w.resBase = s
	return nil
}

func (w *epochSpills) close() error {
	return errors.Join(w.ds.Close(), w.remote.close())
}
