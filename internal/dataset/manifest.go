// Package dataset implements the multi-file table layer over the Bullion
// file format: a directory of immutable member files described by a
// versioned manifest. The manifest carries, per member, the row and
// live-row counts plus per-column min/max zone maps and bloom filters
// lifted from the writer at commit time, so a dataset scan prunes whole
// files from the manifest alone — member files that cannot match are never
// opened, let alone read. This is the LEA-style amortization argument
// applied at the file level: per-file statistics are computed once, at the
// commit that adds the file, and reused by every subsequent open and scan.
//
// # Manifest layout
//
// A version-3 manifest is three kinds of file, so that what a call reads
// grows with what it touches, not with columns × members:
//
//   - The head, manifest-<gen>.json: a small JSON document holding the
//     generation, the tags, the schema fingerprint, and per member its
//     name, rows, live rows, bytes, fingerprint, deletion bitmap and the
//     name of its statistics sidecar. Every commit — append, delete, tag,
//     compact — writes exactly one head. Open, loader planning, Vacuum and
//     Fsck's orphan pass parse only heads.
//   - The schema, schema-<fingerprint>.bln: written once, by the first
//     commit, as a footer-only Bullion file (core.SchemaFile) whose footer
//     name index resolves a projected or filtered column in O(log n). Open
//     reads it through the artifact cache, keyed by fingerprint; the full
//     core.Schema is materialized only when a caller asks for every field
//     (Dataset.Schema, an unprojected scan, a writer).
//   - One statistics sidecar per member, stats-<x> for member part-<x>:
//     the file-level zone maps and blooms of the member's own footer,
//     copied by core.StatsFile into a footer-only Bullion file. The bytes
//     come from the footer the member's writer hands over at Close
//     (core.WrittenStats), so no member is reopened to derive them; the
//     sidecar is staged, fsynced and renamed together with its part, and
//     never rewritten. A scan reads a member's sidecar only when a filter
//     names a column, memoizes it per member for the life of the handle,
//     and prunes the member when core.Footer.Excludes — the check a core
//     scan runs against a member's own footer — says the filters exclude
//     it.
//
// Versions 1 and 2 carried the schema and every member's zones inline in
// one JSON document (version 2 added the deletion bitmap). Both still
// open: each entry's inline zones are rendered into the sidecar form in
// memory (memberStats), so scans, Fsck and ManifestWithZones read one
// kind of statistics. The first commit on such a dataset writes the
// schema file and those sidecars, and publishes version 3.
//
// Commits are atomic: each mutation (append, delete, compact) writes a
// complete new head to a temporary file, renames it into place, and then
// swaps the CURRENT pointer file the same way. Committed member files are
// immutable: appends and compactions write new files, and a delete only
// sets bits in the member's manifest entry (a deletion bitmap readers
// apply on top of the footer's own). Readers holding an older generation
// therefore keep serving exactly that generation's rows, and files are
// only reclaimed by an explicit Vacuum. Deleted rows are physically erased
// when Compact rewrites their member.
//
// # Durability and crash recovery
//
// All dataset I/O flows through a storage.Backend (local FS by default;
// Options.Backend overrides it). Every generation, Create's empty
// generation 1 included, is published by one commit path, crash-consistent
// against power cuts:
//
//   - New member bytes (ShardedWriter, Append, Compact) and their sidecars
//     are staged in handle-unique temporaries, fsynced, and renamed to
//     their final part-<gen>-<i>.bln and stats-<gen>-<i>.bln names inside
//     the commit, after the generation CAS. The schema file is written the
//     same way by the commit that first needs it. A directory fsync
//     follows, so a head never references bytes that are not durable.
//   - Both steps of a manifest commit — the head and the CURRENT pointer
//     swap — are temp-write + fsync + rename + fsync of the directory.
//     After any mutation returns nil, the new generation survives a power
//     cut; a crash mid-commit leaves the previous one.
//   - Commits CAS on the generation number: the CURRENT pointer is
//     re-read under a per-directory critical section and the commit fails
//     with ErrGenerationConflict if another handle moved it (Create's, if
//     the directory already holds a dataset). The loser removes its staged
//     files and the dataset is unchanged.
//   - Delete writes nothing but its head, so a crash leaves either all of
//     a Delete's rows deleted or none of them.
//
// A crash between staging and commit strands orphans. Open sweeps *.tmp
// debris; Vacuum also reclaims unreferenced parts, sidecars and superseded
// heads; Fsck reports all of it without deleting anything.
package dataset

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"strings"
	"sync"

	"bullion/internal/core"
	"bullion/internal/footer"
	"bullion/internal/quant"
	"bullion/internal/storage"
)

// ErrGenerationConflict reports a commit that lost the generation CAS:
// another handle (or process) moved CURRENT since this handle last
// observed it. The dataset is unchanged by the losing commit; reopen to
// observe the winner's generation and retry.
var ErrGenerationConflict = errors.New("dataset: generation conflict: CURRENT moved underneath the commit")

// ErrCommitIndeterminate marks a commit whose outcome is unknown: the
// CURRENT pointer was renamed into place but the directory sync after it
// failed, so the swap may or may not survive. The commit's data files are
// deliberately left in place — if the swap landed they are referenced; if
// not they are orphans for Vacuum. Reopen the dataset to observe the
// outcome.
var ErrCommitIndeterminate = errors.New("dataset: commit outcome indeterminate")

// ManifestVersion is the manifest format version this package writes.
// Version 2 added FileEntry.DeletionVec; version 3 moved the schema and
// the per-member zones out of the head (see the package doc). Readers
// accept 1-3 (a version-1 entry's deletions live in its member's footer).
const ManifestVersion = 3

// currentName is the pointer file naming the live manifest generation.
const currentName = "CURRENT"

// Manifest describes one generation of a dataset: the ordered member file
// list and the dataset schema's fingerprint. File order is significant —
// it defines the dataset's global row space (member i's rows follow
// member i-1's).
type Manifest struct {
	Version    int    `json:"version"`
	Generation uint64 `json:"generation"`
	// SchemaFP fingerprints the dataset schema; every member file must
	// match it (core.Schema.Fingerprint). A version-3 manifest's schema is
	// the file schemaName(SchemaFP).
	SchemaFP string `json:"schema_fingerprint"`
	// Schema is the inline schema of a version 1-2 manifest; version 3
	// leaves it empty.
	Schema []FieldDef  `json:"schema,omitempty"`
	Files  []FileEntry `json:"files"`
	// Tags are named snapshots: tag name -> the manifest generation it
	// pins. The map lives in the manifest itself, so tag creation and
	// deletion ride the same CAS commit protocol as every other mutation
	// (crash-consistent, one winner per generation), and every commit
	// carries the set forward. Tagged generations are retained: Vacuum
	// keeps their manifests and member files, Fsck classifies them as
	// referenced, and OpenAt serves read-only snapshots of them.
	Tags map[string]uint64 `json:"tags,omitempty"`
}

// FieldDef is one schema field in version 1-2 manifest form (a stable JSON
// rendering of core.Field).
type FieldDef struct {
	Name     string `json:"name"`
	Kind     uint8  `json:"kind"`
	Elem     uint8  `json:"elem,omitempty"`
	Quant    uint8  `json:"quant,omitempty"`
	Sparse   bool   `json:"sparse,omitempty"`
	Nullable bool   `json:"nullable,omitempty"`
}

// FileEntry describes one member file: identity, row accounting, and where
// its per-column zone maps live.
type FileEntry struct {
	// Name is the member's file name, relative to the dataset directory.
	Name string `json:"name"`
	// Rows is the logical row count (including deleted rows); LiveRows
	// excludes deleted rows.
	Rows     uint64 `json:"rows"`
	LiveRows uint64 `json:"live_rows"`
	// DeletionVec marks the rows Dataset.Delete removed, in the footer's
	// deletion_vec layout (bit r&63 of word r>>6 is row r; at most
	// ceil(Rows/64) words). Readers OR it over the member footer's own
	// deletion vector, and LiveRows = Rows minus its set bits. Nil until a
	// delete first touches the member.
	DeletionVec []uint64 `json:"deletion_vec,omitempty"`
	// Bytes is the member's total file size.
	Bytes int64 `json:"bytes"`
	// SchemaFP is the member's schema fingerprint (must equal the
	// manifest's).
	SchemaFP string `json:"schema_fingerprint"`
	// Stats names the member's statistics sidecar in a version-3 manifest
	// ("" when the member has no usable statistics).
	Stats string `json:"stats,omitempty"`
	// Columns holds file-level pruning statistics inline, one entry per
	// column with anything usable: int or float min/max zone maps and
	// bloom filters over byte-string values. Version 1-2 manifests carry
	// them here; a version-3 head leaves this empty and keeps them in the
	// Stats sidecar (Dataset.ManifestWithZones renders either inline).
	Columns []ColumnZone `json:"columns,omitempty"`
}

// ColumnZone is the JSON shape of one column's file-level pruning
// statistics: inline in a version 1-2 manifest, and in the rendering of
// Dataset.ManifestWithZones. Kind selects the bounds domain: "" or "int"
// (Min/Max, int64 order — "" is what pre-float manifests wrote), "float"
// (FMin/FMax) or "bytes" (no bounds; a bloom filter only).
type ColumnZone struct {
	Name      string   `json:"name"`
	Kind      string   `json:"kind,omitempty"`
	Min       int64    `json:"min"`
	Max       int64    `json:"max"`
	FMin      *float64 `json:"fmin,omitempty"`
	FMax      *float64 `json:"fmax,omitempty"`
	NullCount uint64   `json:"null_count,omitempty"`
	// Bloom is the column's serialized split-block bloom filter
	// (enc.OpenBloom); base64 in the JSON rendering.
	Bloom []byte `json:"bloom,omitempty"`
}

// manifestName returns the file name of generation g.
func manifestName(g uint64) string { return fmt.Sprintf("manifest-%06d.json", g) }

// schemaName returns the file name of the schema with fingerprint fp.
func schemaName(fp string) string { return "schema-" + fp + ".bln" }

// statsName returns the statistics sidecar name of member (or staged
// member) name: part-<x> pairs with stats-<x>.
func statsName(name string) string { return "stats-" + strings.TrimPrefix(name, "part-") }

// validFingerprint reports whether fp is a Schema.Fingerprint rendering —
// 16 lower-case hex digits — and so safe inside a file name.
func validFingerprint(fp string) bool {
	if len(fp) != 16 {
		return false
	}
	for _, c := range fp {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// validName reports whether name may be a file the manifest points at:
// non-empty and free of path separators.
func validName(name string) bool { return name != "" && !strings.ContainsAny(name, "/\\") }

// schemaFromDefs reconstructs (and re-validates) a version 1-2 manifest's
// inline schema.
func schemaFromDefs(defs []FieldDef) (*core.Schema, error) {
	fields := make([]core.Field, len(defs))
	for i, d := range defs {
		fields[i] = core.Field{
			Name: d.Name,
			Type: core.Type{
				Kind:  footer.Kind(d.Kind),
				Elem:  footer.Kind(d.Elem),
				Quant: quant.Format(d.Quant),
			},
			Sparse:   d.Sparse,
			Nullable: d.Nullable,
		}
	}
	return core.NewSchema(fields...)
}

// entryFromWritten builds a member's entry from the statistics its own
// writer surfaced at Close — the writer-side stats piggyback: a freshly
// written shard is never reopened just to lift its footer. Its statistics
// are in the sidecar seal staged, when it staged one (hasZones).
func entryFromWritten(name, schemaFP string, ws *core.WrittenStats, hasZones bool) FileEntry {
	e := FileEntry{
		Name:     name,
		Rows:     ws.NumRows,
		LiveRows: ws.NumRows, // fresh files carry no deletions
		Bytes:    ws.Bytes,
		SchemaFP: schemaFP,
	}
	if hasZones {
		e.Stats = statsName(name)
	}
	return e
}

// commitLocks serializes the generation CAS per backend root: the
// CURRENT re-read and the pointer swap must be one critical section so
// two in-process handles racing a commit produce exactly one winner.
// (Cross-process commits still CAS on the re-read CURRENT — best effort
// until the ROADMAP's manifest service owns commits.) Entries are tiny
// and keyed by directory identity, so the map's growth is bounded by the
// number of distinct dataset directories a process touches.
var commitLocks sync.Map // root string -> *sync.Mutex

func commitLock(root string) *sync.Mutex {
	v, _ := commitLocks.LoadOrStore(root, &sync.Mutex{})
	return v.(*sync.Mutex)
}

// checkGeneration is the commit CAS: it re-reads CURRENT and fails with
// ErrGenerationConflict unless it still names prevGen (0 = the directory
// must hold no dataset yet). Callers hold the directory's commit lock.
func checkGeneration(b storage.Backend, prevGen uint64) error {
	cur, err := storage.ReadFile(b, currentName)
	if prevGen == 0 {
		if err == nil {
			return fmt.Errorf("%w (dataset already initialized)", ErrGenerationConflict)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("dataset: re-reading CURRENT for commit: %w", err)
	}
	if got := strings.TrimSpace(string(cur)); got != manifestName(prevGen) {
		return fmt.Errorf("%w: CURRENT is %s, commit expected %s",
			ErrGenerationConflict, got, manifestName(prevGen))
	}
	return nil
}

// writeManifestLocked publishes m — the head file first, then the
// CURRENT pointer, each with content fsync before the rename and a
// directory fsync after it, so the commit survives a power cut the moment
// this function returns. The caller holds the directory's commit lock,
// has already CASed the generation, and has made every file m references
// durable.
func writeManifestLocked(b storage.Backend, m *Manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	name := manifestName(m.Generation)
	if err := storage.WriteFileAtomic(b, name, append(data, '\n')); err != nil {
		return fmt.Errorf("dataset: writing manifest: %w", err)
	}
	// Publish the pointer inline rather than via WriteFileAtomic: the
	// rename is the commit's point of no return, and failures on either
	// side of it need different handling. Before the rename the old
	// generation is still current and cleanup is safe; a directory-sync
	// failure after it is indeterminate — the swap happened in the live
	// namespace but may not survive a power cut — so it surfaces as
	// ErrCommitIndeterminate and mutators must leave their data files be.
	tmp := currentName + ".tmp"
	f, err := b.Create(tmp)
	if err != nil {
		return fmt.Errorf("dataset: writing CURRENT: %w", err)
	}
	if _, err := f.Write([]byte(name + "\n")); err != nil {
		f.Close()
		b.Remove(tmp)
		return fmt.Errorf("dataset: writing CURRENT: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		b.Remove(tmp)
		return fmt.Errorf("dataset: writing CURRENT: %w", err)
	}
	if err := f.Close(); err != nil {
		b.Remove(tmp)
		return fmt.Errorf("dataset: writing CURRENT: %w", err)
	}
	if err := b.Rename(tmp, currentName); err != nil {
		b.Remove(tmp)
		return fmt.Errorf("dataset: swapping CURRENT: %w", err)
	}
	if err := b.SyncDir(); err != nil {
		return fmt.Errorf("%w: directory sync after the CURRENT swap: %v", ErrCommitIndeterminate, err)
	}
	return nil
}

// loadManifest reads the backend's live manifest via the CURRENT pointer.
func loadManifest(b storage.Backend) (*Manifest, error) {
	cur, err := storage.ReadFile(b, currentName)
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CURRENT: %w", err)
	}
	name := strings.TrimSpace(string(cur))
	if !validName(name) {
		return nil, fmt.Errorf("dataset: CURRENT names invalid manifest %q", name)
	}
	return readManifestFile(b, name)
}

// loadManifestGeneration reads one specific manifest generation directly,
// bypassing the CURRENT pointer — how time-travel reads, retention-aware
// Vacuum, and Fsck reach superseded-but-retained generations.
func loadManifestGeneration(b storage.Backend, gen uint64) (*Manifest, error) {
	m, err := readManifestFile(b, manifestName(gen))
	if err != nil {
		return nil, err
	}
	if m.Generation != gen {
		return nil, fmt.Errorf("dataset: %s records generation %d", manifestName(gen), m.Generation)
	}
	return m, nil
}

// readManifestFile reads and validates one manifest file by name.
func readManifestFile(b storage.Backend, name string) (*Manifest, error) {
	data, err := storage.ReadFile(b, name)
	if err != nil {
		return nil, fmt.Errorf("dataset: reading manifest: %w", err)
	}
	return parseManifest(name, data)
}

// parseManifest decodes and validates the bytes of manifest file name.
func parseManifest(name string, data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("dataset: parsing %s: %w", name, err)
	}
	if m.Version < 1 || m.Version > ManifestVersion {
		return nil, fmt.Errorf("dataset: manifest version %d unsupported (want 1-%d)", m.Version, ManifestVersion)
	}
	if m.Version >= 3 && !validFingerprint(m.SchemaFP) {
		return nil, fmt.Errorf("dataset: %s: invalid schema fingerprint %q", name, m.SchemaFP)
	}
	var total uint64
	for i := range m.Files {
		e := &m.Files[i]
		if e.SchemaFP != m.SchemaFP {
			return nil, fmt.Errorf("dataset: member %q fingerprint %s != dataset %s",
				e.Name, e.SchemaFP, m.SchemaFP)
		}
		if !validName(e.Name) {
			return nil, fmt.Errorf("dataset: member %d has invalid name %q", i, e.Name)
		}
		if e.Stats != "" && !validName(e.Stats) {
			return nil, fmt.Errorf("dataset: member %q has invalid statistics name %q", e.Name, e.Stats)
		}
		if total+e.Rows < total {
			return nil, fmt.Errorf("dataset: %s: row count overflows at member %q", name, e.Name)
		}
		total += e.Rows
		if err := e.checkRows(); err != nil {
			return nil, fmt.Errorf("dataset: %s: %w", name, err)
		}
	}
	return &m, nil
}

// checkRows validates an entry's row accounting: a deletion bitmap of at
// most ceil(Rows/64) words marking no row past the last, and LiveRows
// equal to Rows minus its marked rows. Without a bitmap LiveRows may only
// be at most Rows (a version-1 entry's deletions live in its footer).
func (e *FileEntry) checkRows() error {
	if e.DeletionVec == nil {
		if e.LiveRows > e.Rows {
			return fmt.Errorf("member %q records %d live of %d rows", e.Name, e.LiveRows, e.Rows)
		}
		return nil
	}
	n := uint64(len(e.DeletionVec))
	words, tail := e.Rows/64, e.Rows%64
	if tail != 0 {
		words++
	}
	if n > words {
		return fmt.Errorf("member %q deletion bitmap has %d words, %d rows need at most %d",
			e.Name, n, e.Rows, words)
	}
	if tail != 0 && n == words && e.DeletionVec[n-1]>>tail != 0 {
		return fmt.Errorf("member %q deletion bitmap marks rows past its last row", e.Name)
	}
	if live := e.Rows - deletedCount(e.DeletionVec); live != e.LiveRows {
		return fmt.Errorf("member %q records %d live rows, its deletion bitmap leaves %d",
			e.Name, e.LiveRows, live)
	}
	return nil
}

// deletedCount returns the number of rows a deletion bitmap marks.
func deletedCount(vec []uint64) uint64 {
	var n int
	for _, w := range vec {
		n += bits.OnesCount64(w)
	}
	return uint64(n)
}

// manifestFiles returns every file name generation m retains: its head,
// its schema file (version 3), and each member part and sidecar.
func manifestFiles(m *Manifest) []string {
	out := make([]string, 0, 2*len(m.Files)+2)
	out = append(out, manifestName(m.Generation))
	if m.Version >= 3 {
		out = append(out, schemaName(m.SchemaFP))
	}
	for _, e := range m.Files {
		out = append(out, e.Name)
		if e.Stats != "" {
			out = append(out, e.Stats)
		}
	}
	return out
}
