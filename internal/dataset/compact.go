package dataset

import (
	"errors"
	"fmt"
	"strings"
)

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
// threshold into fresh files: each victim is rewritten without its
// deleted rows (core.RewriteWithoutRows over the member opened with its
// manifest deletion bitmap) and replaced in place in the manifest —
// preserving the dataset's live-row order — then the result is committed
// as a new manifest generation. Files with no live rows are dropped
// outright. This is where a dataset's deleted rows are physically
// erased: once Vacuum reclaims the victims (no tag or open reader
// retaining an older generation), no file holds them.
//
// Scans holding the previous generation keep serving: the victims'
// bytes are untouched on disk until Vacuum reclaims them.
func (d *Dataset) Compact(threshold float64) (CompactStats, error) {
	if d.snapshot {
		return CompactStats{}, ErrSnapshotReadOnly
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	gen := d.generationSnapshot()

	var stats CompactStats
	stats.BytesBefore = datasetBytes(gen.manifest)

	nextGen := gen.manifest.Generation + 1
	replace := map[string]*FileEntry{} // victim name -> replacement (nil = drop)
	var tmpFiles []string
	cleanup := func() {
		for _, tmp := range tmpFiles {
			d.backend.Remove(tmp)
		}
	}
	seq := 0
	for _, m := range gen.members {
		e := m.entry
		if e.Rows == 0 || e.LiveRows >= e.Rows {
			continue
		}
		if ratio := float64(e.LiveRows) / float64(e.Rows); ratio >= threshold {
			continue
		}
		if e.LiveRows == 0 {
			replace[e.Name] = nil
			stats.FilesDropped++
			stats.RowsReclaimed += e.Rows
			continue
		}
		entry, tmpName, err := d.rewriteMember(m, nextGen, seq)
		if err != nil {
			cleanup()
			return stats, err
		}
		tmpFiles = append(tmpFiles, tmpName)
		replace[e.Name] = &entry
		stats.FilesCompacted++
		stats.RowsReclaimed += e.Rows - e.LiveRows
		seq++
	}
	if len(replace) == 0 {
		stats.BytesAfter = stats.BytesBefore
		return stats, nil
	}

	// The renames to final names run inside the commit critical section
	// (after the generation CAS — a doomed commit must not clobber a
	// winner's files), made durable by a directory sync before the
	// manifest references them; then the commit replaces (or drops)
	// victims at their original manifest positions.
	publish := func() error {
		for i, tmp := range tmpFiles {
			final := strings.TrimSuffix(tmp, ".tmp")
			if err := d.backend.Rename(tmp, final); err != nil {
				return err
			}
			tmpFiles[i] = final
		}
		return d.backend.SyncDir()
	}
	err := d.commit(publish, func(m *Manifest) error {
		out := m.Files[:0]
		for _, e := range m.Files {
			r, hit := replace[e.Name]
			switch {
			case !hit:
				out = append(out, e)
			case r != nil:
				out = append(out, *r)
			}
		}
		m.Files = out
		return nil
	})
	if err != nil {
		// Past the point of no return the replacement files may be
		// referenced — leave them for Vacuum to sort out.
		if !errors.Is(err, ErrCommitIndeterminate) {
			cleanup()
		}
		return stats, err
	}
	stats.BytesAfter = datasetBytes(d.generationSnapshot().manifest)
	return stats, nil
}

// rewriteMember copies a victim's live rows into a fresh file under a
// temporary name — contents synced, ready to rename — and returns its
// manifest entry under the final name plus the temporary name.
func (d *Dataset) rewriteMember(m *member, gen uint64, seq int) (FileEntry, string, error) {
	f, err := m.open(d)
	if err != nil {
		return FileEntry{}, "", err
	}
	finalName := fmt.Sprintf("part-%06d-c%03d.bln", gen, seq)
	tmpName := finalName + ".tmp"
	out, err := d.backend.Create(tmpName)
	if err != nil {
		return FileEntry{}, "", err
	}
	// RewriteWithoutRows with no extra rows drops exactly the rows the
	// deletion vector marks; its returned WrittenStats become the manifest
	// entry directly (writer-side stats piggyback — the fresh file is
	// never reopened).
	ws, err := f.RewriteWithoutRows(out, nil, d.writerOpts())
	if err != nil {
		out.Close()
		d.backend.Remove(tmpName)
		return FileEntry{}, "", fmt.Errorf("dataset: compacting %s: %w", m.entry.Name, err)
	}
	// Durable before rename: the manifest must never reference contents a
	// power cut could truncate.
	if err := out.Sync(); err != nil {
		out.Close()
		d.backend.Remove(tmpName)
		return FileEntry{}, "", err
	}
	if err := out.Close(); err != nil {
		d.backend.Remove(tmpName)
		return FileEntry{}, "", err
	}
	if ws.NumRows != m.entry.LiveRows {
		d.backend.Remove(tmpName)
		return FileEntry{}, "", fmt.Errorf("dataset: compacted %s has %d rows, want %d live",
			m.entry.Name, ws.NumRows, m.entry.LiveRows)
	}
	return entryFromWritten(finalName, m.entry.SchemaFP, ws), tmpName, nil
}

func datasetBytes(m *Manifest) int64 {
	var n int64
	for _, e := range m.Files {
		n += e.Bytes
	}
	return n
}
