package dataset

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"bullion/internal/cache"
	"bullion/internal/core"
	"bullion/internal/storage"
)

// Options configures a Dataset handle.
type Options struct {
	// Writer configures the per-file core writer used by Append,
	// ShardedWriter, and Compact. Nil selects core.DefaultOptions with
	// deletion compliance Level 1: a dataset never erases rows in place —
	// Delete records them in the manifest and Compact erases them by
	// rewriting the member — so the encoding restrictions Level 2 pays for
	// in-place erasure would buy nothing.
	Writer *core.Options
	// WrapReader, when non-nil, wraps each member file's reader when it is
	// opened — the hook the CLI uses for per-file I/O accounting and the
	// benchmarks use to model storage latency. name is the member's file
	// name within the dataset directory.
	WrapReader func(name string, r io.ReaderAt, size int64) io.ReaderAt
	// Backend overrides the storage backend every read, write, rename,
	// and fsync flows through. Nil selects the local file system rooted
	// at the dataset directory; tests substitute storage.Fault to inject
	// errors, latency, and power cuts.
	Backend storage.Backend
	// Cache is the artifact cache member opens flow through (parsed
	// footers, open handles, page bytes — see internal/cache). Nil
	// selects the process-wide shared cache, except when Backend is set:
	// a caller-supplied backend may simulate faults or power cuts that
	// violate the cache's member-immutability contract, so custom
	// backends run uncached unless a Cache is passed explicitly. The
	// caller owns the instance; Close never tears it down.
	Cache *cache.Cache
	// DisableCache bypasses the artifact cache (it wins over Cache):
	// every member open reads and parses its footer from the backend, and
	// page reads always hit storage. Scans are byte-identical either way.
	DisableCache bool
}

// Dataset is a handle over a manifest-backed multi-file table. Scans may
// run concurrently with each other and with Append/Delete/Compact: every
// scan snapshots the manifest generation current at Scan time and keeps
// serving it even while later commits land.
type Dataset struct {
	dir     string
	opts    Options
	backend storage.Backend

	// cache is the artifact cache member opens flow through (nil =
	// uncached).
	cache *cache.Cache

	// mu serializes mutators (Append/ShardedWriter commit/Delete/Compact).
	mu sync.Mutex
	// genMu guards the current-generation pointer.
	genMu sync.RWMutex
	gen   *generation

	// handleID and nameSeq make staged file names unique across this
	// process's handles (see stage); cross-process races remain
	// best-effort, like the commit CAS itself.
	handleID uint64
	nameSeq  atomic.Uint64

	// openMu guards opened, every member handle this dataset has opened —
	// including ones belonging to superseded generations, which in-flight
	// scans may still be reading. Close closes them all.
	openMu sync.Mutex
	opened []io.Closer
	closed bool

	// snapshot marks a handle OpenAt pinned to a fixed generation:
	// read-only (mutators fail with ErrSnapshotReadOnly) and exempt from
	// the recovery sweep. unpin releases the handle's generation pin at
	// Close.
	snapshot bool
	unpin    func()
}

// generation is one immutable snapshot of the dataset: a manifest plus
// the member handles serving it.
type generation struct {
	manifest *Manifest
	schema   *schemaFile
	members  []*member
	// starts[i] is the global row id of member i's first row; total is the
	// dataset's logical row count (including deleted rows).
	starts []uint64
	total  uint64
}

// member is one file of a generation, opened lazily: pruned members are
// never opened at all. A handle serves exactly its entry's deletions, so
// an entry a Delete changed gets a new member (see newGeneration) while
// older snapshots keep theirs.
type member struct {
	entry FileEntry

	// mu memoizes a successful open forever; a failed open is NOT
	// memoized, so a transient backend error (the resilient wrapper's
	// budget exhausted during a network blip) is re-attempted by the
	// next scan instead of poisoning every future scan of the snapshot.
	mu   sync.Mutex
	file *core.File

	// stats memoizes the entry's statistics (memberStats), read on the
	// first filtered scan and by ManifestWithZones; a failed read is not
	// memoized (the scan just cannot prune the member). Entries are
	// immutable and members are reused across generations, so each
	// sidecar is read once per Dataset, not once per scan, and the
	// core.Footer parses each of its blooms once.
	statsMu sync.Mutex
	stats   *core.Footer
}

// open opens the member file on first use — through the dataset's
// storage backend, the single choke point for all member reads —
// verifying its schema fingerprint and row count against the manifest
// entry, and applies the entry's deletion bitmap on top of the footer's.
// Successful opens are memoized; failures are retried on the next call.
func (m *member) open(d *Dataset) (*core.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.file != nil {
		return m.file, nil
	}
	f, err := d.openMember(&m.entry)
	if err != nil {
		return nil, err
	}
	m.file = f.WithDeletions(m.entry.DeletionVec)
	return m.file, nil
}

// statistics returns the member's statistics (memberStats), memoized.
func (m *member) statistics(d *Dataset) (*core.Footer, error) {
	m.statsMu.Lock()
	defer m.statsMu.Unlock()
	if m.stats != nil {
		return m.stats, nil
	}
	st, err := memberStats(d.backend, &m.entry)
	if err != nil {
		return nil, err
	}
	m.stats = st
	return st, nil
}

// memberVersion derives the cache-key version discriminator from the
// manifest entry. Committed members are immutable and deletions live in
// the manifest, so a Delete keeps the key — its footer and pages stay
// cached — while a different file under the same name (another
// dataset's, or one replaced outside any commit) changes at least one of
// these fields or, remotely, the ETag the key is sharpened with.
func memberVersion(e *FileEntry) string {
	return fmt.Sprintf("%d|%d|%s", e.Rows, e.Bytes, e.SchemaFP)
}

// openMember opens one member file through the cache tiers: the handle
// LRU (skip re-open, one HEAD per member on HTTP), the parsed-footer
// artifact cache (one core footer parse — and its two backend reads —
// per member version process-wide, singleflighted), and the page cache
// (scan runs served from memory on rescans). With no cache configured
// it opens directly.
func (d *Dataset) openMember(e *FileEntry) (*core.File, error) {
	if d.cache == nil {
		return d.openMemberDirect(e)
	}
	hk := cache.Key{Root: d.backend.Root(), Name: e.Name, Version: memberVersion(e)}
	lease, err := d.cache.AcquireHandle(hk, func() (storage.File, int64, error) {
		return d.backend.ReadAt(e.Name)
	})
	if err != nil {
		return nil, err
	}
	if !d.track(lease) {
		lease.Release()
		return nil, fmt.Errorf("dataset: %s: dataset closed", e.Name)
	}
	size := lease.Size()
	var r io.ReaderAt = lease.File()
	if d.opts.WrapReader != nil {
		r = d.opts.WrapReader(e.Name, r, size)
	}
	// Content key: the manifest-derived version, sharpened by the
	// backend's ETag when it pins one — a remote object replaced outside
	// any manifest commit then gets fresh footer/page entries on reopen.
	ck := hk
	if et, ok := lease.File().(storage.ETagged); ok {
		if tag := et.ETag(); tag != "" {
			ck.Version += "|" + tag
		}
	}
	ftrAny, err := d.cache.Artifact(ck, func() (any, error) {
		return core.ParseFooter(r, size)
	})
	if err != nil {
		lease.Release()
		return nil, fmt.Errorf("dataset: opening member %s: %w", e.Name, err)
	}
	ftr := ftrAny.(*core.Footer)
	// Reads that prove the pinned object was replaced under us drop the
	// member's cache entries, so the next open re-probes instead of
	// serving a version that can only keep failing.
	onErr := func(rerr error) {
		if errors.Is(rerr, storage.ErrChangedUnderRead) {
			d.cache.Invalidate(ck.Root, ck.Name)
		}
	}
	f := core.OpenWithFooter(d.cache.Reader(ck, r, onErr), ftr)
	if err := checkMember(f, e); err != nil {
		lease.Release()
		return nil, err
	}
	return f, nil
}

// openMemberDirect is the uncached open path (DisableCache, or a
// custom backend without an explicit cache).
func (d *Dataset) openMemberDirect(e *FileEntry) (*core.File, error) {
	sf, size, err := d.backend.ReadAt(e.Name)
	if err != nil {
		return nil, err
	}
	if !d.track(sf) {
		sf.Close()
		return nil, fmt.Errorf("dataset: %s: dataset closed", e.Name)
	}
	var r io.ReaderAt = sf
	if d.opts.WrapReader != nil {
		r = d.opts.WrapReader(e.Name, r, size)
	}
	f, err := core.Open(r, size)
	if err != nil {
		return nil, fmt.Errorf("dataset: opening member %s: %w", e.Name, err)
	}
	if err := checkMember(f, e); err != nil {
		return nil, err
	}
	return f, nil
}

// checkMember verifies an opened file against its manifest entry.
func checkMember(f *core.File, e *FileEntry) error {
	if fp := f.Footer().Fingerprint(); fp != e.SchemaFP {
		return fmt.Errorf("dataset: member %s schema fingerprint %s != manifest %s",
			e.Name, fp, e.SchemaFP)
	}
	if f.NumRows() != e.Rows {
		return fmt.Errorf("dataset: member %s has %d rows, manifest records %d",
			e.Name, f.NumRows(), e.Rows)
	}
	return nil
}

// track registers an opened file for Close; it reports false when the
// dataset is already closed.
func (d *Dataset) track(f io.Closer) bool {
	d.openMu.Lock()
	defer d.openMu.Unlock()
	if d.closed {
		return false
	}
	d.opened = append(d.opened, f)
	return true
}

// newGeneration builds the in-memory snapshot for m, reusing open member
// handles from prev for unchanged entries (same name, row accounting,
// deletion bitmap, size, fingerprint) — a commit only forces reopening of
// the entries it actually changed.
func (d *Dataset) newGeneration(m *Manifest, prev *generation) (*generation, error) {
	schema, err := d.generationSchema(m, prev)
	if err != nil {
		return nil, err
	}
	reuse := map[string]*member{}
	if prev != nil {
		for _, pm := range prev.members {
			reuse[pm.entry.Name] = pm
		}
	}
	g := &generation{
		manifest: m,
		schema:   schema,
		members:  make([]*member, len(m.Files)),
		starts:   make([]uint64, len(m.Files)),
	}
	for i, e := range m.Files {
		g.starts[i] = g.total
		g.total += e.Rows
		if pm, ok := reuse[e.Name]; ok && sameEntry(pm.entry, e) {
			g.members[i] = pm
			continue
		}
		g.members[i] = &member{entry: e}
	}
	return g, nil
}

// generationSchema resolves m's schema: prev's when the fingerprint is
// unchanged (no commit changes it), else the schema file of a version-3
// manifest, or the inline schema of a version 1-2 one.
func (d *Dataset) generationSchema(m *Manifest, prev *generation) (*schemaFile, error) {
	switch {
	case prev != nil && prev.manifest.SchemaFP == m.SchemaFP:
		return prev.schema, nil
	case m.Version >= 3:
		return d.loadSchema(m.SchemaFP)
	}
	schema, err := schemaFromDefs(m.Schema)
	if err != nil {
		return nil, fmt.Errorf("dataset: manifest schema: %w", err)
	}
	if fp := schema.Fingerprint(); fp != m.SchemaFP {
		return nil, fmt.Errorf("dataset: manifest schema fingerprint %s != recorded %s", fp, m.SchemaFP)
	}
	return newSchemaFile(schema)
}

// sameEntry reports whether an open member handle for a can still serve
// b: identity, row/byte accounting and deletions must match (zone maps
// are derived and don't affect handle validity).
func sameEntry(a, b FileEntry) bool {
	return a.Name == b.Name && a.Rows == b.Rows && a.LiveRows == b.LiveRows &&
		a.Bytes == b.Bytes && a.SchemaFP == b.SchemaFP &&
		slices.Equal(a.DeletionVec, b.DeletionVec)
}

// backendFor resolves the storage backend for dir: the caller-supplied
// one; for an http(s):// URL, a read-only HTTP range-read backend
// wrapped in the default resilience policy (retries, hedged reads,
// circuit breaker); otherwise a local-FS backend rooted at dir (created
// if needed).
func backendFor(dir string, opts *Options) (storage.Backend, error) {
	if opts != nil && opts.Backend != nil {
		return opts.Backend, nil
	}
	if storage.IsHTTPURL(dir) {
		h, err := storage.NewHTTP(dir, nil)
		if err != nil {
			return nil, err
		}
		return storage.NewResilient(h, nil), nil
	}
	return storage.NewLocal(dir)
}

// Create initializes a new dataset directory by committing an empty
// generation 1 — the same commit every mutation makes, CASing on a
// directory that holds no dataset yet (ErrGenerationConflict if it does).
// The directory is created if needed.
func Create(dir string, schema *core.Schema, opts *Options) (*Dataset, error) {
	if schema == nil || len(schema.Fields) == 0 {
		return nil, fmt.Errorf("dataset: schema required")
	}
	d, err := newHandle(dir, opts)
	if err != nil {
		return nil, err
	}
	sf, err := newSchemaFile(schema)
	if err != nil {
		return nil, err
	}
	// Generation 0 is the empty directory; its commit writes the schema
	// file (see upgradeLocked).
	d.gen = &generation{manifest: &Manifest{SchemaFP: schema.Fingerprint()}, schema: sf}
	if err := d.commit(nil, func(*Manifest) error { return nil }); err != nil {
		return nil, err
	}
	return d, nil
}

// handleSeq numbers dataset handles process-wide (see Dataset.handleID).
var handleSeq atomic.Uint64

// newHandle builds the bare handle shared by Open and OpenAt: backend
// resolution and cache policy, no manifest loaded yet.
func newHandle(dir string, opts *Options) (*Dataset, error) {
	d := &Dataset{dir: dir, handleID: handleSeq.Add(1)}
	if opts != nil {
		d.opts = *opts
	}
	b, err := backendFor(dir, opts)
	if err != nil {
		return nil, err
	}
	d.backend = b
	d.resolveCache()
	return d, nil
}

// Open opens the dataset at dir, reading its current manifest
// generation. dir may be an http(s):// URL naming a dataset published
// over HTTP (see storage.NewHTTP): the dataset opens read-only behind
// the default resilience policy, and mutating operations fail with
// storage.ErrReadOnly. Open first garbage-collects orphaned temporary
// files — debris a crash mid-commit can leave behind. (Like Vacuum, the
// sweep assumes no ShardedWriter or Compact is concurrently active on
// another handle of the same directory: their staged files are
// indistinguishable from crash debris.)
func Open(dir string, opts *Options) (*Dataset, error) {
	d, err := newHandle(dir, opts)
	if err != nil {
		return nil, err
	}
	sweepTempDebris(d.backend)
	m, err := loadManifest(d.backend)
	if err != nil {
		return nil, err
	}
	if d.gen, err = d.newGeneration(m, nil); err != nil {
		return nil, err
	}
	return d, nil
}

// fileKind is what a dataset-directory name holds (see kindOf).
type fileKind int

const (
	foreignFile fileKind = iota // not written by this package: never touched
	tempFile                    // staged part or commit temporary: debris once no commit is in flight
	partFile
	manifestFile
	sidecarFile // a schema file or a member's statistics sidecar
)

// kindOf classifies name — the one question the recovery sweep, Vacuum
// and Fsck ask of a directory listing. Temporaries end in ".tmp" (or
// carry the ".tmp-" random suffix earlier releases wrote).
func kindOf(name string) fileKind {
	switch {
	case strings.HasSuffix(name, ".tmp") || strings.Contains(name, ".tmp-"):
		return tempFile
	case strings.HasPrefix(name, "part-"):
		return partFile
	case strings.HasPrefix(name, "manifest-"):
		return manifestFile
	case strings.HasPrefix(name, "schema-") || strings.HasPrefix(name, "stats-"):
		return sidecarFile
	}
	return foreignFile
}

// sweepTempDebris removes orphaned temporaries, best-effort: recovery
// must never make Open fail on a dataset that is otherwise readable.
func sweepTempDebris(b storage.Backend) {
	names, err := b.List()
	if err != nil {
		return
	}
	removed := false
	for _, name := range names {
		if kindOf(name) == tempFile && b.Remove(name) == nil {
			removed = true
		}
	}
	if removed {
		b.SyncDir()
	}
}

// resolveCache applies the Options cache policy (see Options.Cache):
// disabled, else the caller's instance, else the process-wide shared
// cache — except under a substituted backend (fault injection,
// power-cut simulation), which may break the immutable-member contract
// the cache keys rely on and so stays uncached unless the caller opts in
// with Cache.
func (d *Dataset) resolveCache() {
	switch o := &d.opts; {
	case o.DisableCache:
		d.cache = nil
	case o.Cache != nil:
		d.cache = o.Cache
	case o.Backend == nil:
		d.cache = cache.Shared()
	}
}

// generationSnapshot returns the current generation.
func (d *Dataset) generationSnapshot() *generation {
	d.genMu.RLock()
	defer d.genMu.RUnlock()
	return d.gen
}

// swapGeneration installs g as current.
func (d *Dataset) swapGeneration(g *generation) {
	d.genMu.Lock()
	d.gen = g
	d.genMu.Unlock()
}

// commit writes a mutated copy of the current manifest as the next
// generation and swaps it in. mutate receives the copy (files slice is
// cloned; entries may be appended, replaced, or removed). publish, if
// non-nil, runs inside the commit critical section after the generation
// CAS passes — it is where commitStaged renames staged files to final
// generation-derived names, so a commit that is doomed to lose the CAS
// never clobbers the winner's files. Callers must hold d.mu (Create's
// handle is not shared yet).
func (d *Dataset) commit(publish func() error, mutate func(m *Manifest) error) error {
	prev := d.generationSnapshot()
	next := *prev.manifest
	next.Version = ManifestVersion
	next.Schema = nil // version 3 keeps it in the schema file
	next.Generation++
	next.Files = append([]FileEntry(nil), prev.manifest.Files...)
	if len(prev.manifest.Tags) > 0 {
		// Tags ride every commit forward; clone so mutate (and later
		// commits) never alias the published generation's map.
		next.Tags = make(map[string]uint64, len(prev.manifest.Tags))
		for k, v := range prev.manifest.Tags {
			next.Tags[k] = v
		}
	} else {
		next.Tags = nil
	}
	if err := mutate(&next); err != nil {
		return err
	}
	lock := commitLock(d.backend.Root())
	lock.Lock()
	defer lock.Unlock()
	if err := checkGeneration(d.backend, prev.manifest.Generation); err != nil {
		return err
	}
	if publish != nil {
		if err := publish(); err != nil {
			return err
		}
	}
	if prev.manifest.Version < ManifestVersion {
		if err := d.upgradeLocked(prev, &next); err != nil {
			return err
		}
	}
	if err := writeManifestLocked(d.backend, &next); err != nil {
		return err
	}
	gen, err := d.newGeneration(&next, prev)
	if err != nil {
		return err
	}
	d.swapGeneration(gen)
	return nil
}

// upgradeLocked writes what a version-3 head needs and Create's empty
// generation 0 or a version 1-2 generation lacks: the schema file, and a
// sidecar for every entry still carrying its zones inline, which next
// then names instead. Each file is durable before the head naming it is
// written. Callers hold the commit lock, after the generation CAS.
func (d *Dataset) upgradeLocked(prev *generation, next *Manifest) error {
	data, err := core.SchemaFile(prev.schema.schema())
	if err == nil {
		err = storage.WriteFileAtomic(d.backend, schemaName(next.SchemaFP), data)
	}
	if err != nil {
		return fmt.Errorf("dataset: writing schema: %w", err)
	}
	for i := range next.Files {
		e := &next.Files[i]
		if e.Stats != "" || len(e.Columns) == 0 {
			continue
		}
		data, err := zonesFile(e.Columns)
		if err == nil {
			err = storage.WriteFileAtomic(d.backend, statsName(e.Name), data)
		}
		if err != nil {
			return fmt.Errorf("dataset: writing statistics of %s: %w", e.Name, err)
		}
		e.Stats, e.Columns = statsName(e.Name), nil
	}
	return nil
}

// Schema returns the dataset schema, materializing every field on the
// first call of the handle's lifetime (Scan resolves projected and
// filtered columns without it).
func (d *Dataset) Schema() *core.Schema { return d.generationSnapshot().schema.schema() }

// Generation returns the current manifest generation number.
func (d *Dataset) Generation() uint64 { return d.generationSnapshot().manifest.Generation }

// NumFiles returns the member file count of the current generation.
func (d *Dataset) NumFiles() int { return len(d.generationSnapshot().members) }

// NumRows returns the dataset's logical row count (including deleted
// rows); NumLiveRows excludes rows marked deleted.
func (d *Dataset) NumRows() uint64 { return d.generationSnapshot().total }

// NumLiveRows returns the dataset's live row count per the manifest.
func (d *Dataset) NumLiveRows() uint64 {
	var n uint64
	for _, e := range d.generationSnapshot().manifest.Files {
		n += e.LiveRows
	}
	return n
}

// Manifest returns the current generation's manifest (shared; callers
// must not mutate it). A version-3 manifest's entries name their
// statistics sidecars instead of carrying zones; see ManifestWithZones.
func (d *Dataset) Manifest() *Manifest { return d.generationSnapshot().manifest }

// ManifestWithZones returns a copy of the current manifest whose entries
// carry their zones inline, rendered from every member's statistics —
// the one-document rendering `bullion info -json` prints. The zones read
// the same before and after a version 1-2 manifest is upgraded.
func (d *Dataset) ManifestWithZones() (*Manifest, error) {
	gen := d.generationSnapshot()
	m := *gen.manifest
	m.Files = append([]FileEntry(nil), m.Files...)
	for i, mb := range gen.members {
		st, err := mb.statistics(d)
		if err != nil {
			return nil, err
		}
		if st != nil {
			m.Files[i].Columns = allZones(st.View())
		}
	}
	return &m, nil
}

// TotalBytes sums the member file sizes of the current generation.
func (d *Dataset) TotalBytes() int64 {
	var n int64
	for _, e := range d.generationSnapshot().manifest.Files {
		n += e.Bytes
	}
	return n
}

// writerOpts returns the per-file writer options (see Options.Writer).
func (d *Dataset) writerOpts() *core.Options {
	if d.opts.Writer != nil {
		return d.opts.Writer
	}
	opts := core.DefaultOptions()
	opts.Compliance = core.Level1
	return opts
}

// Append writes batch as one new member file and commits it — the
// convenience path for incremental ingest. Bulk loads should use
// ShardedWriter, which spreads many batches across N files in one commit.
func (d *Dataset) Append(batch *core.Batch) error {
	sw, err := d.ShardedWriter(1)
	if err != nil {
		return err
	}
	if err := sw.Write(batch); err != nil {
		sw.Close()
		return err
	}
	return sw.Close()
}

// Delete marks the given dataset-global rows deleted. Rows map to member
// files through the manifest order (member i holds rows
// [starts[i], starts[i]+rows)); the rows are set in copies of the affected
// entries' deletion bitmaps, which commit as a new manifest generation.
// No member file is written: scans of earlier generations — tagged
// snapshots included — keep serving the rows, and Compact erases them
// physically by rewriting their members.
func (d *Dataset) Delete(rows []uint64) error {
	if len(rows) == 0 {
		return nil
	}
	if d.snapshot {
		return ErrSnapshotReadOnly
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	gen := d.generationSnapshot()

	sorted := append([]uint64(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if hi := sorted[len(sorted)-1]; hi >= gen.total {
		return fmt.Errorf("dataset: row %d out of range [0,%d)", hi, gen.total)
	}

	vecs := map[string][]uint64{} // member name -> its updated bitmap
	mi := 0
	for _, r := range sorted {
		for r >= gen.starts[mi]+gen.members[mi].entry.Rows {
			mi++
		}
		m := gen.members[mi]
		vec, ok := vecs[m.entry.Name]
		if !ok {
			var err error
			if vec, err = d.deletionVec(m); err != nil {
				return err
			}
			vecs[m.entry.Name] = vec
		}
		local := r - gen.starts[mi]
		vec[local>>6] |= 1 << (local & 63)
	}

	return d.commit(nil, func(m *Manifest) error {
		for i := range m.Files {
			e := &m.Files[i]
			if vec, ok := vecs[e.Name]; ok {
				e.DeletionVec = vec
				e.LiveRows = e.Rows - deletedCount(vec)
			}
		}
		return nil
	})
}

// deletionVec returns a copy of member m's deletion bitmap, ceil(Rows/64)
// words long, for Delete to set bits in. An entry that has no bitmap yet
// still records deleted rows (a version-1 manifest, whose deletes flipped
// footer bits) seeds it once from the member's footer.
func (d *Dataset) deletionVec(m *member) ([]uint64, error) {
	vec := make([]uint64, (m.entry.Rows+63)/64)
	copy(vec, m.entry.DeletionVec)
	if m.entry.DeletionVec == nil && m.entry.LiveRows < m.entry.Rows {
		f, err := m.open(d)
		if err != nil {
			return nil, err
		}
		v := f.View()
		for w := range min(len(vec), v.DeletionWords()) {
			vec[w] = v.DeletionWord(w)
		}
	}
	return vec, nil
}

// VacuumReport describes one reclamation pass: what was removed, and
// which superseded generations (and their files) were retained instead of
// reclaimed because a tag or a live in-process reader still pins them.
type VacuumReport struct {
	// Removed lists the reclaimed file names.
	Removed []string `json:"removed,omitempty"`
	// RetainedGenerations are superseded generations whose files were
	// kept: pinned by a tag in the current manifest, by a live Scanner
	// still serving them, or by an open OpenAt handle. Ascending.
	RetainedGenerations []uint64 `json:"retained_generations,omitempty"`
	// RetainedFiles are the files kept solely for retained generations —
	// files the current generation does not reference that would have
	// been reclaimed without retention.
	RetainedFiles []string `json:"retained_files,omitempty"`
}

// Vacuum removes member files and manifests no longer referenced by the
// current generation, plus orphaned temporaries left by a crashed commit
// or bulk load. Reclamation is retention-aware: superseded generations
// pinned by a tag (see Tag), by a live Scanner, or by an open OpenAt
// handle keep their manifests and member files. ShardedWriter must still
// not be active on any handle of the directory — an in-flight bulk
// load's staged shards are indistinguishable from crash debris. The
// report says what was removed and what was retained; on a partial
// failure it covers the files removed before the error.
func (d *Dataset) Vacuum() (*VacuumReport, error) {
	if d.snapshot {
		return nil, ErrSnapshotReadOnly
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	// The commit lock makes the pass atomic against racing committers on
	// other handles: liveness is judged from the on-disk CURRENT manifest
	// (not this handle's possibly stale snapshot), and no commit can
	// publish files between that read and the removals.
	lock := commitLock(d.backend.Root())
	lock.Lock()
	defer lock.Unlock()

	cur, err := loadManifest(d.backend)
	if err != nil {
		return nil, err
	}
	live := map[string]bool{currentName: true}
	for _, name := range manifestFiles(cur) {
		live[name] = true
	}
	retained, err := retainedGenerations(d.backend, cur.Tags, cur.Generation)
	if err != nil {
		return nil, err
	}
	// This handle's own snapshot may trail the on-disk CURRENT (another
	// handle committed past it); its generation is a live read view too.
	if own := d.generationSnapshot(); own.manifest.Generation != cur.Generation {
		if _, ok := retained[own.manifest.Generation]; !ok {
			retained[own.manifest.Generation] = manifestFiles(own.manifest)
		}
	}
	keep := map[string]bool{}
	for _, files := range retained {
		for _, name := range files {
			if !live[name] {
				keep[name] = true
			}
		}
	}

	names, err := d.backend.List()
	if err != nil {
		return nil, err
	}
	rep := &VacuumReport{RetainedGenerations: sortedGenerations(retained)}
	for _, name := range names {
		if live[name] {
			continue
		}
		if keep[name] {
			rep.RetainedFiles = append(rep.RetainedFiles, name)
			continue
		}
		// Anything this package did not write is not ours to delete.
		if kindOf(name) == foreignFile {
			continue
		}
		if err := d.backend.Remove(name); err != nil {
			return rep, err
		}
		rep.Removed = append(rep.Removed, name)
		if d.cache != nil {
			// Drop the removed file's cached artifacts: nothing can hit
			// them again (its name left every manifest), so they would
			// only hold handles and bytes until eviction.
			d.cache.Invalidate(d.backend.Root(), name)
		}
	}
	if rep.Removed != nil {
		// Best-effort: reclamation need not be durable for correctness;
		// resurrected garbage is re-collected by the next sweep.
		d.backend.SyncDir()
	}
	return rep, nil
}

// Close closes every file handle the dataset opened, including handles
// serving superseded generations. In-flight scans fail after Close.
func (d *Dataset) Close() error {
	d.openMu.Lock()
	defer d.openMu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	if d.unpin != nil {
		d.unpin()
		d.unpin = nil
	}
	var first error
	for _, f := range d.opened {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	d.opened = nil
	return first
}
