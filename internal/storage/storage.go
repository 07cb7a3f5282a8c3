// Package storage abstracts the flat-directory file system the dataset
// layer commits into. A Backend owns one directory of files addressed by
// bare names (no separators): member part files, manifest generations,
// and the CURRENT pointer all live side by side, and every byte the
// dataset layer reads or writes flows through this interface.
//
// The abstraction exists for two reasons. First, durability: the commit
// protocol's correctness depends on exactly where file contents and
// directory entries are forced to stable storage, so the interface makes
// both explicit — File.Sync for contents, Backend.SyncDir for the
// namespace (creates, renames, removes). A rename is only crash-durable
// after a SyncDir; file bytes are only crash-durable after a Sync. Local
// is the production implementation over a real directory; Fault is a
// deterministic in-memory implementation that injects per-op errors and
// latency and simulates power cuts by dropping everything not yet
// fsynced, which is what the dataset crash-matrix harness runs against.
// Second, the ROADMAP's distributed-dataset direction: remote members
// (HTTP range reads, object stores) slot in behind the same surface.
package storage

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"syscall"
)

// File is an open handle on one backend file. Reads and positional
// writes address the file's current contents; Write appends at the
// handle's own sequential offset (handles used for writing start at 0).
// Sync forces the file's contents — not its directory entry — to stable
// storage: bytes written but not synced may vanish at a power cut even
// after Close returns.
//
// ReadAt contract (identical across every backend, pinned by the
// conformance suite in conformance_test.go):
//
//   - a read fully inside the file returns (len(p), nil) — never a
//     short read with a nil error;
//   - a read overlapping the end of the file returns the available
//     prefix as (n, io.EOF) with 0 < n < len(p);
//   - a read starting at or past the end of the file returns (0, io.EOF);
//   - len(p) == 0 returns (0, nil) regardless of offset (offset
//     validity is not probed);
//   - a negative offset is an error that is not io.EOF.
type File interface {
	io.ReaderAt
	io.WriterAt
	io.Writer
	// Sync forces the file's contents durable.
	Sync() error
	Close() error
}

// ContextFile is implemented by File handles whose reads can be
// cancelled mid-flight — remote backends whose reads are network
// requests, and fault backends that simulate them. The Resilient
// wrapper uses it to enforce per-op deadlines and to cancel the losing
// leg of a hedged read; handles without it (local files) are read
// synchronously and never hedged.
type ContextFile interface {
	ReadAtContext(ctx context.Context, p []byte, off int64) (int, error)
}

// ETagged is the optional File upgrade for backends that pin an object
// version at open (the HTTP range backend's HEAD + If-Match pin). A
// non-empty ETag is a content discriminator: two handles with the same
// ETag address the same bytes, which lets caches key immutable
// artifacts by version. Wrappers forward it from the handle they wrap.
type ETagged interface {
	ETag() string
}

// ErrReadOnly is returned by mutation operations on read-only backends
// (the HTTP range-read backend serves immutable published datasets).
var ErrReadOnly = errors.New("storage: backend is read-only")

// ErrListUnsupported is returned by List on backends with no namespace
// enumeration (HTTP exposes only named objects). Callers that can
// degrade — recovery sweeps, orphan classification — treat it as an
// empty, unknowable listing rather than a failure.
var ErrListUnsupported = errors.New("storage: backend cannot list its namespace")

// ErrChangedUnderRead reports that a remote file's ETag no longer
// matches the one pinned when the handle was opened: the object was
// replaced mid-scan. Never retryable — the bytes already read may be
// from the old object, so the caller must reopen and restart.
var ErrChangedUnderRead = errors.New("storage: remote file changed under read (etag mismatch)")

// ErrCircuitOpen is returned by a Resilient backend whose circuit
// breaker has tripped: the underlying backend failed too many
// consecutive operations and calls now fail fast until the cooldown
// elapses. Not retryable within the op — the point is to stop retrying.
var ErrCircuitOpen = errors.New("storage: circuit breaker open")

// StatusError is a non-2xx HTTP response surfaced as an error. 5xx and
// 429 are transient server trouble and retryable; other 4xx are
// caller/content errors and are not.
type StatusError struct {
	Name   string
	Status int
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("storage: %s: unexpected HTTP status %d", e.Name, e.Status)
}

// transientError marks an error as retryable (see Transient).
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient wraps err so IsRetryable reports true — the marker fault
// injectors and backends use for failures that a retry may outrun.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsRetryable classifies an error for the retry/hedge policy: true for
// failures where a fresh attempt can plausibly succeed (timeouts,
// connection resets, 5xx server responses, explicitly Transient-marked
// injections), false for everything else — 4xx responses, missing
// files, checksum mismatches, ETag changes, and unknown errors are
// permanent and must surface immediately.
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	var te *transientError
	if errors.As(err, &te) {
		return true
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Status >= 500 || se.Status == 429
	}
	if errors.Is(err, ErrChangedUnderRead) || errors.Is(err, ErrCircuitOpen) {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ne interface{ Timeout() bool } // net.Error without importing net
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	if errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.EPIPE) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	return false
}

// Backend is one flat directory of files. Implementations must be safe
// for concurrent use by multiple goroutines.
//
// Durability contract: Create, Rename, and Remove are namespace edits
// that a power cut may undo until a subsequent SyncDir returns; file
// contents are durable only up to the last File.Sync. A crash-safe
// publish of new bytes under a final name is therefore always the
// sequence: Create(tmp), write, Sync, Close, Rename(tmp, final),
// SyncDir.
type Backend interface {
	// ReadAt opens the named file for random-access reads, returning the
	// handle and the file's current size. Published files are never
	// written again, so the handle need not accept writes (Local's
	// reject them).
	ReadAt(name string) (File, int64, error)
	// Create creates or truncates the named file for writing.
	Create(name string) (File, error)
	// Rename atomically replaces newName with oldName's file.
	Rename(oldName, newName string) error
	// Remove deletes the named file.
	Remove(name string) error
	// SyncDir forces the directory's namespace — every Create, Rename,
	// and Remove issued so far — to stable storage.
	SyncDir() error
	// List returns the backend's file names in lexical order.
	List() ([]string, error)
	// Root identifies the directory this backend serves (an absolute
	// path for Local, a caller-chosen identity for fakes). Two backends
	// with equal Roots address the same underlying state; the dataset
	// layer keys its commit critical sections by Root.
	Root() string
}

// ValidateName rejects names that would escape the backend's flat
// namespace.
func ValidateName(name string) error {
	if name == "" || name == "." || name == ".." || strings.ContainsAny(name, "/\\") {
		return fmt.Errorf("storage: invalid file name %q", name)
	}
	return nil
}

// ReadFile reads the named file's full contents through b.
func ReadFile(b Backend, name string) ([]byte, error) {
	f, size, err := b.ReadAt(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data := make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil && err != io.EOF {
		return nil, err
	}
	return data, nil
}

// WriteFileAtomic publishes data under name via the crash-safe sequence:
// a deterministic temporary (name + ".tmp"), content sync, rename, and
// directory sync. A crash at any point leaves either the old file or the
// new one, never a torn mix; leftover temporaries are debris for the
// dataset layer's recovery sweep.
func WriteFileAtomic(b Backend, name string, data []byte) error {
	tmp := name + ".tmp"
	f, err := b.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		b.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		b.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		b.Remove(tmp)
		return err
	}
	if err := b.Rename(tmp, name); err != nil {
		b.Remove(tmp)
		return err
	}
	return b.SyncDir()
}
