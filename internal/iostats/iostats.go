// Package iostats wraps readers and writers with byte/op accounting so
// experiments report physical I/O (bytes touched, operations issued), not
// just wall-clock time. The deletion experiment (§2.1's "up to 50× less
// I/O") is measured through these counters, and so are the seeks of the
// multimodal experiment (§2.5's sequential-read claim).
package iostats

import (
	"io"
	"sync/atomic"
)

// Counters accumulates I/O statistics. Safe for concurrent use.
type Counters struct {
	ReadOps      atomic.Int64
	ReadBytes    atomic.Int64
	WriteOps     atomic.Int64
	WriteBytes   atomic.Int64
	Seeks        atomic.Int64 // non-contiguous ReadAt/WriteAt transitions
	lastReadEnd  atomic.Int64
	lastWriteEnd atomic.Int64
}

// Reset zeroes all counters.
func (c *Counters) Reset() {
	c.ReadOps.Store(0)
	c.ReadBytes.Store(0)
	c.WriteOps.Store(0)
	c.WriteBytes.Store(0)
	c.Seeks.Store(0)
	c.lastReadEnd.Store(-1)
	c.lastWriteEnd.Store(-1)
}

// Snapshot is a point-in-time copy of the counters.
type Snapshot struct {
	ReadOps, ReadBytes   int64
	WriteOps, WriteBytes int64
	Seeks                int64
}

// Snapshot returns the current counter values.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		ReadOps:    c.ReadOps.Load(),
		ReadBytes:  c.ReadBytes.Load(),
		WriteOps:   c.WriteOps.Load(),
		WriteBytes: c.WriteBytes.Load(),
		Seeks:      c.Seeks.Load(),
	}
}

// Sub returns s - o, the I/O performed between two snapshots.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		ReadOps:    s.ReadOps - o.ReadOps,
		ReadBytes:  s.ReadBytes - o.ReadBytes,
		WriteOps:   s.WriteOps - o.WriteOps,
		WriteBytes: s.WriteBytes - o.WriteBytes,
		Seeks:      s.Seeks - o.Seeks,
	}
}

// ReaderAt counts ReadAt traffic against Counters.
type ReaderAt struct {
	R io.ReaderAt
	C *Counters
}

// ReadAt implements io.ReaderAt.
func (r *ReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := r.R.ReadAt(p, off)
	r.C.ReadOps.Add(1)
	r.C.ReadBytes.Add(int64(n))
	if prev := r.C.lastReadEnd.Swap(off + int64(n)); prev >= 0 && prev != off {
		r.C.Seeks.Add(1)
	}
	return n, err
}

// WriterAt counts WriteAt traffic against Counters.
type WriterAt struct {
	W io.WriterAt
	C *Counters
}

// WriteAt implements io.WriterAt.
func (w *WriterAt) WriteAt(p []byte, off int64) (int, error) {
	n, err := w.W.WriteAt(p, off)
	w.C.WriteOps.Add(1)
	w.C.WriteBytes.Add(int64(n))
	if prev := w.C.lastWriteEnd.Swap(off + int64(n)); prev >= 0 && prev != off {
		w.C.Seeks.Add(1)
	}
	return n, err
}

// Writer counts sequential Write traffic against Counters.
type Writer struct {
	W io.Writer
	C *Counters
}

// Write implements io.Writer.
func (w *Writer) Write(p []byte) (int, error) {
	n, err := w.W.Write(p)
	w.C.WriteOps.Add(1)
	w.C.WriteBytes.Add(int64(n))
	return n, err
}
