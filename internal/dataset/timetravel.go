package dataset

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"bullion/internal/storage"
)

// ErrSnapshotReadOnly reports a mutation attempted through a handle that
// OpenAt pinned to a fixed generation. Time-travel handles serve reads
// only; mutations need a live handle from Open.
var ErrSnapshotReadOnly = errors.New("dataset: snapshot handle is read-only (opened at a pinned generation)")

// ErrNoSuchTag reports a tag or generation reference that the dataset
// does not hold.
var ErrNoSuchTag = errors.New("dataset: no such tag or generation")

// maxTagNameLen bounds tag names; they are stored in every subsequent
// manifest, so unbounded names would bloat every commit.
const maxTagNameLen = 128

// validateTagName enforces the tag grammar: 1-128 chars from
// [A-Za-z0-9._-], at least one of which is not a digit — so a reference
// string always resolves unambiguously (all-digit refs are generation
// numbers, everything else is a tag).
func validateTagName(name string) error {
	if name == "" || len(name) > maxTagNameLen {
		return fmt.Errorf("dataset: invalid tag name %q (1-%d characters)", name, maxTagNameLen)
	}
	allDigits := true
	for _, c := range name {
		switch {
		case c >= '0' && c <= '9':
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '.', c == '_', c == '-':
			allDigits = false
		default:
			return fmt.Errorf("dataset: invalid tag name %q (allowed: letters, digits, '.', '_', '-')", name)
		}
	}
	if allDigits {
		return fmt.Errorf("dataset: invalid tag name %q (all-digit names are reserved for generation numbers)", name)
	}
	return nil
}

// genPins tracks, per backend root, the manifest generations currently
// pinned by in-process readers: every live Scanner pins the generation it
// snapshotted, and every OpenAt handle pins its generation for the
// handle's lifetime. Vacuum consults the registry so a superseded
// generation with a live reader is retained, not reclaimed — the pin
// carries the generation's file list, so retention costs no disk reads.
// Like commitLocks, entries are keyed by directory identity and the map's
// growth is bounded by the distinct dataset directories a process touches.
var genPins sync.Map // root string -> *pinTable

type pinTable struct {
	mu   sync.Mutex
	gens map[uint64]*genPin
}

type genPin struct {
	refs  int
	files []string
}

func pinsFor(root string) *pinTable {
	v, _ := genPins.LoadOrStore(root, &pinTable{gens: map[uint64]*genPin{}})
	return v.(*pinTable)
}

// pinGeneration registers m's generation as having a live in-process
// reader and returns the release function. Releases are idempotent; the
// registry entry disappears with its last reference.
func pinGeneration(root string, m *Manifest) func() {
	pt := pinsFor(root)
	pt.mu.Lock()
	p := pt.gens[m.Generation]
	if p == nil {
		p = &genPin{files: manifestFiles(m)}
		pt.gens[m.Generation] = p
	}
	p.refs++
	pt.mu.Unlock()
	gen := m.Generation
	var once sync.Once
	return func() {
		once.Do(func() {
			pt.mu.Lock()
			if p := pt.gens[gen]; p != nil {
				p.refs--
				if p.refs <= 0 {
					delete(pt.gens, gen)
				}
			}
			pt.mu.Unlock()
		})
	}
}

// pinnedGenerations snapshots the pin registry for root: generation ->
// retained file list.
func pinnedGenerations(root string) map[uint64][]string {
	v, ok := genPins.Load(root)
	if !ok {
		return nil
	}
	pt := v.(*pinTable)
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if len(pt.gens) == 0 {
		return nil
	}
	out := make(map[uint64][]string, len(pt.gens))
	for g, p := range pt.gens {
		out[g] = append([]string(nil), p.files...)
	}
	return out
}

// Tag names generation gen (0 = the current generation) so it survives
// Vacuum and can be reopened with OpenAt. The tag rides a normal manifest
// commit — crash-consistent, CAS on the generation — so creating a tag
// bumps the generation like any other mutation. Tagging overwrites an
// existing tag of the same name. The target generation's manifest must
// still exist; its member files are verified present when the backend can
// list them.
func (d *Dataset) Tag(name string, gen uint64) error {
	if err := validateTagName(name); err != nil {
		return err
	}
	if d.snapshot {
		return ErrSnapshotReadOnly
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := d.generationSnapshot().manifest.Generation
	if gen == 0 {
		gen = cur
	}
	if gen > cur {
		return fmt.Errorf("dataset: cannot tag generation %d (current is %d)", gen, cur)
	}
	if gen != cur {
		// A superseded target must still be fully on disk: its manifest
		// must load and, where the backend can enumerate, its members must
		// not have been vacuumed already.
		m, err := loadManifestGeneration(d.backend, gen)
		if err != nil {
			return fmt.Errorf("dataset: tag %q: %w", name, err)
		}
		if names, err := d.backend.List(); err == nil {
			present := make(map[string]bool, len(names))
			for _, n := range names {
				present[n] = true
			}
			for _, f := range manifestFiles(m) {
				if !present[f] {
					return fmt.Errorf("dataset: tag %q: generation %d file %s no longer on disk (vacuumed?)",
						name, gen, f)
				}
			}
		}
	}
	return d.commit(nil, func(m *Manifest) error {
		if m.Tags == nil {
			m.Tags = map[string]uint64{}
		}
		m.Tags[name] = gen
		return nil
	})
}

// Untag removes a named tag (a normal commit); the formerly tagged
// generation becomes reclaimable by the next Vacuum unless something else
// still pins it. Removing a missing tag fails with ErrNoSuchTag.
func (d *Dataset) Untag(name string) error {
	if d.snapshot {
		return ErrSnapshotReadOnly
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.generationSnapshot().manifest.Tags[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchTag, name)
	}
	return d.commit(nil, func(m *Manifest) error {
		delete(m.Tags, name)
		return nil
	})
}

// Tags returns a copy of the current generation's tag set: tag name ->
// pinned generation.
func (d *Dataset) Tags() map[string]uint64 {
	src := d.generationSnapshot().manifest.Tags
	out := make(map[string]uint64, len(src))
	for k, v := range src {
		out[k] = v
	}
	return out
}

// resolveRef resolves a time-travel reference against a manifest's tag
// set: a tag name, or a decimal generation number (tag names can never be
// all digits, so the two namespaces cannot collide).
func resolveRef(m *Manifest, ref string) (uint64, error) {
	if g, ok := m.Tags[ref]; ok {
		return g, nil
	}
	if g, err := strconv.ParseUint(strings.TrimSpace(ref), 10, 64); err == nil && g > 0 {
		return g, nil
	}
	known := make([]string, 0, len(m.Tags))
	for name := range m.Tags {
		known = append(known, name)
	}
	sort.Strings(known)
	if len(known) > 0 {
		return 0, fmt.Errorf("%w: %q (tags: %s)", ErrNoSuchTag, ref, strings.Join(known, ", "))
	}
	return 0, fmt.Errorf("%w: %q (dataset has no tags)", ErrNoSuchTag, ref)
}

// OpenAt opens a read-only handle pinned to the generation ref names: a
// tag created with Tag, or a decimal generation number. The handle serves
// exactly that generation forever — commits to the live dataset never
// move it — and it registers an in-process pin so Vacuum retains the
// generation's files while the handle is open. Cross-process retention is
// what tags are for: pin with a tag before vacuuming from another handle.
//
// Mutations through the returned handle fail with ErrSnapshotReadOnly.
// Nothing committed later — Append, Delete, Compact, or Vacuum — changes
// the rows the handle serves: deletes live in later manifests, and member
// files are never rewritten.
func OpenAt(dir, ref string, opts *Options) (*Dataset, error) {
	d, err := newHandle(dir, opts)
	if err != nil {
		return nil, err
	}
	cur, err := loadManifest(d.backend)
	if err != nil {
		return nil, err
	}
	gen, err := resolveRef(cur, ref)
	if err != nil {
		return nil, err
	}
	m := cur
	if gen != cur.Generation {
		if m, err = loadManifestGeneration(d.backend, gen); err != nil {
			return nil, err
		}
	}
	g, err := d.newGeneration(m, nil)
	if err != nil {
		return nil, err
	}
	d.gen = g
	d.snapshot = true
	d.unpin = pinGeneration(d.backend.Root(), m)
	return d, nil
}

// retainedGenerations resolves the full retention set for a Vacuum pass
// over backend b: every generation a tag in tags pins (manifest loaded
// from disk; file lists come from it) plus every generation with a live
// in-process reader. current is excluded — it is live, not retained. The
// returned map is generation -> files kept for it. Fsck walks the tagged
// generations itself, in fsckRetained.
func retainedGenerations(b storage.Backend, tags map[string]uint64, current uint64) (map[uint64][]string, error) {
	out := map[uint64][]string{}
	for name, g := range tags {
		if g == current || g == 0 {
			continue
		}
		if _, ok := out[g]; ok {
			continue
		}
		m, err := loadManifestGeneration(b, g)
		if err != nil {
			// Fail safe: a tag whose target manifest cannot be read must
			// stop reclamation, not silently unpin the generation.
			return nil, fmt.Errorf("dataset: tag %q pins generation %d: %w", name, g, err)
		}
		out[g] = manifestFiles(m)
	}
	for g, files := range pinnedGenerations(b.Root()) {
		if g == current {
			continue
		}
		if _, ok := out[g]; !ok {
			out[g] = files
		}
	}
	return out, nil
}

// sortedGenerations returns the keys of a retention map, ascending.
func sortedGenerations(m map[uint64][]string) []uint64 {
	out := make([]uint64, 0, len(m))
	for g := range m {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
