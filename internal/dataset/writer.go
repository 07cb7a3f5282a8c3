package dataset

import (
	"fmt"

	"bullion/internal/core"
)

// ShardedWriter routes ingest batches across N target member files, each
// written by its own pipelined core writer, and commits them all as one
// manifest generation on Close. Batches are routed round-robin per Write
// call, so N concurrent encode pipelines stay busy while the file layout
// remains deterministic for a given batch sequence.
//
// Each shard is a staged member (see stage): until Close commits, the
// dataset is unchanged and the shard files exist only under temporary
// names. A ShardedWriter must be used from a single goroutine and Close
// must always be called. A failed Write or Close removes the temporaries
// and leaves the manifest untouched.
type ShardedWriter struct {
	d *Dataset
	// files[i] is shard i's staged file, written by writers[i]; both are
	// nil once the load is closed or failed.
	files   []*staged
	writers []*core.Writer
	next    int
	err     error
}

// ShardedWriter starts a bulk load across n new member files.
func (d *Dataset) ShardedWriter(n int) (*ShardedWriter, error) {
	if n < 1 {
		return nil, fmt.Errorf("dataset: sharded writer needs n >= 1, got %d", n)
	}
	if d.snapshot {
		return nil, ErrSnapshotReadOnly
	}
	schema := d.Schema()
	sw := &ShardedWriter{d: d}
	for range n {
		s, err := d.stage()
		if err != nil {
			return nil, sw.fail(err)
		}
		sw.files = append(sw.files, s)
		w, err := core.NewWriter(s.f, schema, d.writerOpts())
		if err != nil {
			return nil, sw.fail(err)
		}
		sw.writers = append(sw.writers, w)
	}
	return sw, nil
}

// Write appends batch to the next shard in round-robin order. Errors are
// sticky, as with the core writer.
func (sw *ShardedWriter) Write(batch *core.Batch) error {
	if sw.err != nil {
		return sw.err
	}
	if sw.writers == nil {
		return fmt.Errorf("dataset: sharded writer closed")
	}
	w := sw.writers[sw.next]
	sw.next = (sw.next + 1) % len(sw.writers)
	if err := w.Write(batch); err != nil {
		return sw.fail(err)
	}
	return nil
}

// fail makes err sticky and tears the load down: every shard writer is
// joined and every staged file removed.
func (sw *ShardedWriter) fail(err error) error {
	for _, w := range sw.writers {
		w.Close() // joins the pipeline; error irrelevant, the file is doomed
	}
	sw.d.discard(sw.files)
	sw.writers, sw.files, sw.err = nil, nil, err
	return err
}

// Close finishes every shard file and commits the non-empty ones to the
// manifest as one new generation, named in shard order. Closing a writer
// that wrote no rows is a no-op commit.
func (sw *ShardedWriter) Close() error {
	if sw.err != nil || sw.writers == nil {
		return sw.err
	}
	var full, empty []*staged
	for i, w := range sw.writers {
		err := w.Close()
		if err == nil {
			err = sw.files[i].seal(w.WrittenStats())
		}
		if err != nil {
			return sw.fail(err)
		}
		if sw.files[i].stats.NumRows == 0 {
			empty = append(empty, sw.files[i])
		} else {
			full = append(full, sw.files[i])
		}
	}
	sw.d.discard(empty)
	sw.writers, sw.files = nil, nil
	if len(full) == 0 {
		return nil
	}

	sw.d.mu.Lock()
	defer sw.d.mu.Unlock()
	sw.err = sw.d.commitStaged(full, func(m *Manifest, entries []FileEntry) {
		m.Files = append(m.Files, entries...)
	})
	return sw.err
}
