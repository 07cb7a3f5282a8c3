package dataset

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"

	"bullion/internal/core"
	"bullion/internal/storage"
)

// FsckMember is one member file's verification result.
type FsckMember struct {
	Name string `json:"name"`
	// Bytes/Rows/LiveRows echo the manifest entry.
	Bytes    int64  `json:"bytes"`
	Rows     uint64 `json:"rows"`
	LiveRows uint64 `json:"live_rows"`
	// Errors lists integrity violations: missing file, size mismatch,
	// unopenable footer, fingerprint, row-count or live-row mismatch, an
	// unreadable statistics sidecar; under deep verification, checksum
	// failures and a sidecar disagreeing with the member's footer.
	Errors []string `json:"errors,omitempty"`
}

// FsckRetained is one superseded-but-retained generation: a manifest an
// older tag still pins, verified shallowly (manifest loads, members exist
// with the recorded sizes) so `-repair` never mistakes a snapshot for
// garbage.
type FsckRetained struct {
	Generation uint64 `json:"generation"`
	// Tags lists the tag names pinning this generation, sorted.
	Tags     []string `json:"tags"`
	Manifest string   `json:"manifest"`
	Files    int      `json:"files"`
	Rows     uint64   `json:"rows"`
	// Missing lists member files and sidecars of this generation that are
	// gone from disk — an integrity error (something reclaimed a retained
	// generation).
	Missing []string `json:"missing,omitempty"`
}

// FsckReport is the result of verifying one dataset directory.
type FsckReport struct {
	Dir        string       `json:"dir"`
	Generation uint64       `json:"generation"`
	Files      int          `json:"files"`
	Rows       uint64       `json:"rows"`
	LiveRows   uint64       `json:"live_rows"`
	Members    []FsckMember `json:"members,omitempty"`
	// Tags echoes the current manifest's tag set (tag -> generation);
	// Retained describes each superseded generation those tags pin.
	// Retained generations' files are referenced, never orphans.
	Tags     map[string]uint64 `json:"tags,omitempty"`
	Retained []FsckRetained    `json:"retained,omitempty"`
	// OrphanTmps are staged parts and commit temporaries (*.tmp) — crash
	// debris the Open recovery sweep (or Vacuum) removes. OrphanParts are
	// part files no longer referenced by the current generation,
	// OrphanSidecars likewise schema files and statistics sidecars, and
	// OrphanManifests are superseded generations; all are normal after
	// commits and crashes alike and are reclaimed only by Vacuum, since
	// readers may still be serving older generations from them.
	OrphanTmps      []string `json:"orphan_tmps,omitempty"`
	OrphanParts     []string `json:"orphan_parts,omitempty"`
	OrphanSidecars  []string `json:"orphan_sidecars,omitempty"`
	OrphanManifests []string `json:"orphan_manifests,omitempty"`
	// Errors are dataset-level failures (unreadable, malformed or
	// inconsistent CURRENT or manifest); Warnings are checks the backend
	// could not run (an HTTP namespace cannot be listed).
	Errors   []string `json:"errors,omitempty"`
	Warnings []string `json:"warnings,omitempty"`
}

// OK reports whether the dataset passed verification: no dataset-level
// errors and no member errors. Warnings and orphans do not fail a check;
// orphans are expected after crashes and before Vacuum.
func (r *FsckReport) OK() bool {
	if len(r.Errors) > 0 {
		return false
	}
	for _, m := range r.Members {
		if len(m.Errors) > 0 {
			return false
		}
	}
	return true
}

// Fsck verifies the dataset at dir without modifying it: the manifest
// chain loads, the schema file matches its fingerprint, every referenced
// member exists with the recorded size and a readable footer whose
// fingerprint and row count match, its live rows after the entry's
// deletion bitmap are exactly the entry's, its statistics (a sidecar, or
// a version 1-2 entry's inline zones) parse, and every unreferenced file
// is classified (temporary debris, unreferenced parts and sidecars,
// superseded manifests). With deep set, every member's page checksums are
// verified and its statistics — the ones a filtered scan prunes with
// (memberStats) — are compared with what core.StatsFile derives from the
// member's footer (statsAgree): a full read of the dataset.
//
// The error return covers only failures to reach the directory at all;
// integrity violations land in the report.
func Fsck(dir string, opts *Options, deep bool) (*FsckReport, error) {
	b, err := backendFor(dir, opts)
	if err != nil {
		return nil, err
	}
	report := &FsckReport{Dir: dir}

	m, err := loadManifest(b)
	if err != nil {
		report.Errors = append(report.Errors, err.Error())
	} else {
		report.Generation = m.Generation
		report.Files = len(m.Files)
	}

	referenced := map[string]bool{currentName: true}
	if m != nil {
		for _, name := range manifestFiles(m) {
			referenced[name] = true
		}
		if m.Version >= 3 {
			if _, err := readSchemaFile(b, m.SchemaFP); err != nil {
				report.Errors = append(report.Errors, err.Error())
			}
		}
		for _, e := range m.Files {
			report.Rows += e.Rows
			report.LiveRows += e.LiveRows
			report.Members = append(report.Members, fsckMember(b, e, deep))
		}
		fsckRetained(b, m, report, referenced)
	}

	names, err := b.List()
	if err != nil {
		// A backend with no namespace enumeration (HTTP) simply cannot
		// classify orphans — that is a structural limitation, not an
		// integrity violation.
		if errors.Is(err, storage.ErrListUnsupported) {
			report.Warnings = append(report.Warnings,
				"backend cannot list its namespace; orphan classification skipped")
			return report, nil
		}
		report.Errors = append(report.Errors, fmt.Sprintf("listing directory: %v", err))
		return report, nil
	}
	for _, name := range names {
		if referenced[name] {
			continue
		}
		switch kindOf(name) {
		case tempFile:
			report.OrphanTmps = append(report.OrphanTmps, name)
		case partFile:
			report.OrphanParts = append(report.OrphanParts, name)
		case sidecarFile:
			report.OrphanSidecars = append(report.OrphanSidecars, name)
		case manifestFile:
			report.OrphanManifests = append(report.OrphanManifests, name)
		}
	}
	return report, nil
}

// fsckRetained walks the generations the current manifest's tags pin,
// marking their manifests, member files and sidecars referenced so orphan
// classification (and -repair's Vacuum) never treats a retained snapshot
// as garbage, and shallowly verifying each: the tagged manifest must
// load, and files exclusive to the retained generation must exist, members
// with the recorded size. An unreadable tagged manifest or a missing
// retained file is an integrity error.
func fsckRetained(b storage.Backend, m *Manifest, report *FsckReport, referenced map[string]bool) {
	if len(m.Tags) == 0 {
		return
	}
	report.Tags = make(map[string]uint64, len(m.Tags))
	tagsByGen := map[uint64][]string{}
	for name, g := range m.Tags {
		report.Tags[name] = g
		if g != m.Generation {
			tagsByGen[g] = append(tagsByGen[g], name)
		}
	}
	gens := make([]uint64, 0, len(tagsByGen))
	for g := range tagsByGen {
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	for _, g := range gens {
		names := tagsByGen[g]
		sort.Strings(names)
		rm, err := loadManifestGeneration(b, g)
		if err != nil {
			report.Errors = append(report.Errors, fmt.Sprintf(
				"retained generation %d (tags %s): %v", g, strings.Join(names, ", "), err))
			continue
		}
		rg := FsckRetained{
			Generation: g,
			Tags:       names,
			Manifest:   manifestName(g),
			Files:      len(rm.Files),
		}
		referenced[rg.Manifest] = true
		sizes := map[string]int64{}
		for _, e := range rm.Files {
			rg.Rows += e.Rows
			sizes[e.Name] = e.Bytes
		}
		for _, name := range manifestFiles(rm)[1:] {
			alreadyChecked := referenced[name]
			referenced[name] = true
			if alreadyChecked {
				continue // shared with the current generation (or an earlier tag)
			}
			h, size, err := b.ReadAt(name)
			if err != nil {
				rg.Missing = append(rg.Missing, name)
				report.Errors = append(report.Errors, fmt.Sprintf(
					"retained generation %d file %s: open: %v", g, name, err))
				continue
			}
			h.Close()
			if want, ok := sizes[name]; ok && size != want {
				report.Errors = append(report.Errors, fmt.Sprintf(
					"retained generation %d member %s: size %d, manifest records %d",
					g, name, size, want))
			}
		}
		report.Retained = append(report.Retained, rg)
	}
}

// fsckMember verifies one manifest entry against its on-disk file.
func fsckMember(b storage.Backend, e FileEntry, deep bool) FsckMember {
	fm := FsckMember{Name: e.Name, Bytes: e.Bytes, Rows: e.Rows, LiveRows: e.LiveRows}
	fail := func(format string, args ...any) FsckMember {
		fm.Errors = append(fm.Errors, fmt.Sprintf(format, args...))
		return fm
	}
	h, size, err := b.ReadAt(e.Name)
	if err != nil {
		return fail("open: %v", err)
	}
	defer h.Close()
	if size != e.Bytes {
		return fail("size %d, manifest records %d", size, e.Bytes)
	}
	f, err := core.Open(h, size)
	if err != nil {
		return fail("footer: %v", err)
	}
	if fp := f.Footer().Fingerprint(); fp != e.SchemaFP {
		fail("schema fingerprint %s, manifest records %s", fp, e.SchemaFP)
	}
	if rows := f.NumRows(); rows != e.Rows {
		fail("%d rows, manifest records %d", rows, e.Rows)
	}
	if live := f.WithDeletions(e.DeletionVec).NumLiveRows(); live != e.LiveRows {
		fail("%d live rows after the manifest's deletions, manifest records %d", live, e.LiveRows)
	}
	st, err := memberStats(b, &e)
	switch {
	case err != nil:
		fail("%v", err)
	case deep && st != nil && !statsAgree(st, f.Footer()):
		fail("statistics disagree with the member's footer")
	}
	if deep {
		if err := f.VerifyChecksums(); err != nil {
			fail("checksums: %v", err)
		}
	}
	return fm
}

// statsAgree reports whether every column of a member's statistics
// (memberStats) is the column core.StatsFile derives from the member's
// footer. A sidecar written at commit holds exactly those; one rendered
// from a version-1 manifest's zones may hold fewer, which costs pruning,
// never rows.
func statsAgree(stats, member *core.Footer) bool {
	data, err := core.StatsFile(member)
	if err != nil {
		return false
	}
	want := map[string]ColumnZone{}
	if data != nil {
		derived, err := core.ParseFooterBytes(data)
		if err != nil {
			return false
		}
		for _, z := range allZones(derived.View()) {
			want[z.Name] = z
		}
	}
	for _, z := range allZones(stats.View()) {
		if w, ok := want[z.Name]; !ok || !reflect.DeepEqual(z, w) {
			return false
		}
	}
	return true
}
