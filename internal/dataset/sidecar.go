package dataset

import (
	"fmt"
	"math"
	"sync"

	"bullion/internal/cache"
	"bullion/internal/core"
	"bullion/internal/footer"
	"bullion/internal/storage"
)

// schemaFile is a generation's schema, served from a footer-only Bullion
// file (core.SchemaFile): names resolve through the footer's hash index,
// and the full core.Schema is materialized once, on the first caller that
// needs every field. Immutable once built, so generations of one handle
// and, through the artifact cache, handles of one process share it.
type schemaFile struct {
	file *core.File // footer only; never reads data

	once sync.Once
	full *core.Schema
}

// newSchemaFile serves an in-memory schema (Create, or a version 1-2
// manifest's inline one) the way a schema file on disk is served.
func newSchemaFile(s *core.Schema) (*schemaFile, error) {
	data, err := core.SchemaFile(s)
	if err != nil {
		return nil, err
	}
	ftr, err := core.ParseFooterBytes(data)
	if err != nil {
		return nil, err
	}
	return &schemaFile{file: core.OpenWithFooter(nil, ftr), full: s}, nil
}

// readSchemaFile reads and verifies the schema file of fingerprint fp.
func readSchemaFile(b storage.Backend, fp string) (*schemaFile, error) {
	data, err := storage.ReadFile(b, schemaName(fp))
	if err != nil {
		return nil, fmt.Errorf("dataset: reading schema: %w", err)
	}
	return parseSchemaFile(data, fp)
}

// parseSchemaFile parses a schema file's bytes and checks them against
// fingerprint fp; the result aliases data.
func parseSchemaFile(data []byte, fp string) (*schemaFile, error) {
	ftr, err := core.ParseFooterBytes(data)
	if err != nil {
		return nil, fmt.Errorf("dataset: parsing %s: %w", schemaName(fp), err)
	}
	if got := ftr.Fingerprint(); got != fp {
		return nil, fmt.Errorf("dataset: %s has schema fingerprint %s", schemaName(fp), got)
	}
	return &schemaFile{file: core.OpenWithFooter(nil, ftr)}, nil
}

// loadSchema returns the schema file of fingerprint fp through the
// artifact cache: a schema file is immutable and named by its content, so
// a cached open reads it once per process.
func (d *Dataset) loadSchema(fp string) (*schemaFile, error) {
	if d.cache == nil {
		return readSchemaFile(d.backend, fp)
	}
	k := cache.Key{Root: d.backend.Root(), Name: schemaName(fp), Version: fp}
	v, err := d.cache.Artifact(k, func() (any, error) { return readSchemaFile(d.backend, fp) })
	if err != nil {
		return nil, err
	}
	return v.(*schemaFile), nil
}

// field resolves a column name in O(log n).
func (s *schemaFile) field(name string) (core.Field, bool) {
	c, ok := s.file.LookupColumn(name)
	if !ok {
		return core.Field{}, false
	}
	return s.file.FieldByIndex(c), true
}

// schema returns the full schema, materializing it on first use.
func (s *schemaFile) schema() *core.Schema {
	s.once.Do(func() {
		if s.full == nil {
			s.full = s.file.Schema()
		}
	})
	return s.full
}

// memberStats returns entry e's statistics as a footer: its statistics
// sidecar (version 3), or a version 1-2 entry's inline zones rendered into
// the same form (zonesFile, the bytes the upgrade commit writes as its
// sidecar); nil when the entry carries none. Scans prune with it through
// core.Footer.Excludes, Fsck checks it against the member's footer, and
// ManifestWithZones renders it, so none of them forks on the version.
func memberStats(b storage.Backend, e *FileEntry) (*core.Footer, error) {
	switch {
	case e.Stats != "":
		data, err := storage.ReadFile(b, e.Stats)
		if err != nil {
			return nil, fmt.Errorf("dataset: reading statistics %s: %w", e.Stats, err)
		}
		return parseStats(e.Stats, data)
	case len(e.Columns) > 0:
		data, err := zonesFile(e.Columns)
		if err != nil {
			return nil, fmt.Errorf("dataset: inline zones of %s: %w", e.Name, err)
		}
		return parseStats(e.Name, data)
	}
	return nil, nil
}

// parseStats parses the bytes of statistics sidecar name; the footer
// aliases data.
func parseStats(name string, data []byte) (*core.Footer, error) {
	ftr, err := core.ParseFooterBytes(data)
	if err != nil {
		return nil, fmt.Errorf("dataset: parsing statistics %s: %w", name, err)
	}
	return ftr, nil
}

// zonesFile renders a version 1-2 entry's inline zones as a statistics
// sidecar: a footer-only Bullion file with one column per zone, its
// bounds in the footer's file-level column stats and its bloom in the
// column-bloom section — the layout core.StatsFile writes.
func zonesFile(zones []ColumnZone) ([]byte, error) {
	cols := make([]footer.Column, len(zones))
	stats := make([]footer.ColumnStat, len(zones))
	var blooms [][]byte
	for i, z := range zones {
		cols[i].Name = z.Name
		st := footer.ColumnStat{NullCount: z.NullCount, Flags: footer.StatHasNullCount}
		switch {
		case z.Kind == "float" && z.FMin != nil && z.FMax != nil:
			st.Flags |= footer.StatHasMinMax | footer.StatFloatBits
			st.Min, st.Max = int64(math.Float64bits(*z.FMin)), int64(math.Float64bits(*z.FMax))
		case z.Kind == "" || z.Kind == "int":
			st.Flags |= footer.StatHasMinMax
			st.Min, st.Max = z.Min, z.Max
		}
		stats[i] = st
		if len(z.Bloom) > 0 {
			if blooms == nil {
				blooms = make([][]byte, len(zones))
			}
			blooms[i] = z.Bloom
		}
	}
	return core.MarshalFooterFile(cols, stats, blooms)
}

// allZones renders every column of a statistics footer as the zone
// zonesFile would have written it from, in file order — the JSON shape of
// `bullion info -json`.
func allZones(v *footer.View) []ColumnZone {
	out := make([]ColumnZone, v.NumColumns())
	for c := range out {
		st, _ := v.ColumnStat(c)
		z := ColumnZone{Name: v.ColumnName(c), Kind: "bytes", NullCount: st.NullCount}
		if bl := v.ColumnBloom(c); len(bl) > 0 {
			z.Bloom = bl
		}
		switch {
		case st.Flags&footer.StatHasMinMax == 0:
		case st.Flags&footer.StatFloatBits != 0:
			lo, hi := math.Float64frombits(uint64(st.Min)), math.Float64frombits(uint64(st.Max))
			z.Kind, z.FMin, z.FMax = "float", &lo, &hi
		default:
			z.Kind, z.Min, z.Max = "int", st.Min, st.Max
		}
		out[c] = z
	}
	return out
}
