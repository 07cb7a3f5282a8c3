package dataset

import "fmt"

// CompactStats reports what a Compact call did.
type CompactStats struct {
	// FilesCompacted member files were rewritten into fresh files;
	// FilesDropped had no live rows left and were removed from the
	// manifest without a replacement.
	FilesCompacted int
	FilesDropped   int
	// BytesBefore/BytesAfter compare the total member bytes of the
	// dataset across the commit.
	BytesBefore int64
	BytesAfter  int64
	// RowsReclaimed counts deleted rows physically dropped by the
	// rewrites.
	RowsReclaimed uint64
}

// Compact folds member files whose live-row ratio has dropped below
// threshold into fresh files: each victim's live rows are staged as a new
// member (see stage) by core.RewriteWithoutRows over the member opened
// with its manifest deletion bitmap, and the replacements commit like any
// other new members — part-<gen>-<i>.bln, each at its victim's manifest
// position, preserving the dataset's live-row order. Files with no live
// rows are dropped outright. This is where a dataset's deleted rows are
// physically erased: once Vacuum reclaims the victims (no tag or open
// reader retaining an older generation), no file holds them.
//
// Scans holding the previous generation keep serving: the victims'
// bytes are untouched on disk until Vacuum reclaims them.
func (d *Dataset) Compact(threshold float64) (CompactStats, error) {
	if d.snapshot {
		return CompactStats{}, ErrSnapshotReadOnly
	}
	d.mu.Lock()
	defer d.mu.Unlock()

	stats := CompactStats{BytesBefore: d.TotalBytes()}
	replace := map[string]int{} // victim name -> index of its replacement in files (-1 = drop)
	var files []*staged
	for _, m := range d.generationSnapshot().members {
		e := m.entry
		if e.Rows == 0 || e.LiveRows >= e.Rows || float64(e.LiveRows)/float64(e.Rows) >= threshold {
			continue
		}
		if e.LiveRows == 0 {
			replace[e.Name] = -1
			stats.FilesDropped++
			stats.RowsReclaimed += e.Rows
			continue
		}
		s, err := d.rewriteMember(m)
		if err != nil {
			d.discard(files)
			return stats, err
		}
		replace[e.Name] = len(files)
		files = append(files, s)
		stats.FilesCompacted++
		stats.RowsReclaimed += e.Rows - e.LiveRows
	}
	if len(replace) == 0 {
		stats.BytesAfter = stats.BytesBefore
		return stats, nil
	}

	err := d.commitStaged(files, func(m *Manifest, entries []FileEntry) {
		out := m.Files[:0]
		for _, e := range m.Files {
			i, hit := replace[e.Name]
			switch {
			case !hit:
				out = append(out, e)
			case i >= 0:
				out = append(out, entries[i])
			}
		}
		m.Files = out
	})
	if err != nil {
		return stats, err
	}
	stats.BytesAfter = d.TotalBytes()
	return stats, nil
}

// rewriteMember stages a victim's live rows as a fresh member: with no
// extra rows, RewriteWithoutRows drops exactly the rows the deletion
// bitmap marks.
func (d *Dataset) rewriteMember(m *member) (*staged, error) {
	f, err := m.open(d)
	if err != nil {
		return nil, err
	}
	s, err := d.stage()
	if err != nil {
		return nil, err
	}
	ws, err := f.RewriteWithoutRows(s.f, nil, d.writerOpts())
	if err == nil {
		err = s.seal(ws)
	}
	if err == nil && ws.NumRows != m.entry.LiveRows {
		err = fmt.Errorf("rewrite has %d rows, want %d live", ws.NumRows, m.entry.LiveRows)
	}
	if err != nil {
		d.discard([]*staged{s})
		return nil, fmt.Errorf("dataset: compacting %s: %w", m.entry.Name, err)
	}
	return s, nil
}
