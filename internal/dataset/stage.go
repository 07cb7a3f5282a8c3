package dataset

import (
	"errors"
	"fmt"

	"bullion/internal/core"
	"bullion/internal/storage"
)

// staged is a new member file on the one path new bytes take to a
// generation: stage creates it under a handle-unique temporary name, the
// caller writes it through f, seal makes it and its statistics sidecar
// durable, and commitStaged renames both into place inside the commit
// that references them.
type staged struct {
	b     storage.Backend
	name  string       // temporary name until published, then the final name
	zones string       // its statistics sidecar's name, likewise ("" = none)
	f     storage.File // nil once sealed
	stats *core.WrittenStats
}

// stage creates a fresh temporary member file. Its name is unique across
// this process's handles of the directory, so two handles staging for the
// same generation never write into one file.
func (d *Dataset) stage() (*staged, error) {
	name := fmt.Sprintf("part-%d-%d.tmp", d.handleID, d.nameSeq.Add(1))
	f, err := d.backend.Create(name)
	if err != nil {
		return nil, err
	}
	return &staged{b: d.backend, name: name, f: f}, nil
}

// seal forces the staged bytes durable — a manifest must never reference
// contents a power cut could still truncate — closes the file, and keeps
// ws, the statistics its writer surfaced at Close, as the source of its
// manifest entry: a staged file is never reopened. The statistics sidecar
// core.StatsFile derives from the writer's footer is staged beside it,
// durable too.
func (s *staged) seal(ws *core.WrittenStats) error {
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f, s.stats = nil, ws
	if err != nil {
		return err
	}
	data, err := core.StatsFile(ws.Footer)
	if err != nil || data == nil {
		return err
	}
	s.zones = statsName(s.name)
	f, err := s.b.Create(s.zones)
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
	return err
}

// discard removes staged files and their sidecars, closing any still
// unsealed.
func (d *Dataset) discard(files []*staged) {
	for _, s := range files {
		if s.f != nil {
			s.f.Close()
		}
		d.backend.Remove(s.name)
		if s.zones != "" {
			d.backend.Remove(s.zones)
		}
	}
}

// commitStaged commits sealed files as members of the next generation,
// named part-<gen>-<i>.bln in order, each with its sidecar
// stats-<gen>-<i>.bln; place puts their entries into the
// manifest copy. The renames run inside the commit critical section,
// after the generation CAS, so a commit doomed to lose never touches a
// final name the winner may own; a directory sync makes them durable
// before the manifest references them. On failure the files are removed,
// unless the outcome is ErrCommitIndeterminate: the CURRENT swap may have
// landed, so they are left for Vacuum. Callers hold d.mu.
func (d *Dataset) commitStaged(files []*staged, place func(m *Manifest, entries []FileEntry)) error {
	var entries []FileEntry
	publish := func() error {
		for i, s := range files {
			if err := d.backend.Rename(s.name, entries[i].Name); err != nil {
				return err
			}
			s.name = entries[i].Name
			if s.zones != "" {
				if err := d.backend.Rename(s.zones, entries[i].Stats); err != nil {
					return err
				}
				s.zones = entries[i].Stats
			}
		}
		return d.backend.SyncDir()
	}
	err := d.commit(publish, func(m *Manifest) error {
		for i, s := range files {
			name := fmt.Sprintf("part-%06d-%03d.bln", m.Generation, i)
			entries = append(entries, entryFromWritten(name, m.SchemaFP, s.stats, s.zones != ""))
		}
		place(m, entries)
		return nil
	})
	if err != nil && !errors.Is(err, ErrCommitIndeterminate) {
		d.discard(files)
	}
	return err
}
