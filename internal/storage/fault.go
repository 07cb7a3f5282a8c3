package storage

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// ErrCrashed is returned by every operation issued after a Fault
// backend's simulated power failure has tripped.
var ErrCrashed = errors.New("storage: simulated power failure")

// OpKind names one backend or file operation, for fault hooks.
type OpKind int

// Operation kinds observed by Fault hooks.
const (
	OpOpen OpKind = iota // Backend.ReadAt
	OpCreate
	OpRead // File.ReadAt
	OpWrite
	OpWriteAt
	OpSync
	OpClose
	OpRename
	OpRemove
	OpSyncDir
	OpList
)

var opNames = [...]string{"open", "create", "read", "write", "writeat",
	"sync", "close", "rename", "remove", "syncdir", "list"}

func (k OpKind) String() string {
	if int(k) < len(opNames) {
		return opNames[k]
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Op describes one operation about to execute: its global sequence
// number (counted from 0 across the backend's lifetime) and target file.
type Op struct {
	Index int
	Kind  OpKind
	Name  string
}

// Snapshot is the power-cut-durable state captured immediately after one
// sync operation completed — the only moments the durable state changes,
// so these snapshots cover every crash point exhaustively.
type Snapshot struct {
	// AfterOps is the backend's operation count when the snapshot was
	// taken (every operation with Index < AfterOps had completed).
	AfterOps int
	// Strict is the no-journal model: a file exists only if a SyncDir
	// covered its directory entry, with the contents of its last Sync.
	Strict map[string][]byte
	// Loose is the metadata-journaled model: every namespace edit
	// (create/rename/remove) survives, but file contents still revert to
	// the last Sync — never-synced files come back as zero-length husks.
	// This is the model that produces *.tmp debris and empty part files,
	// which recovery sweeps must tolerate.
	Loose map[string][]byte
}

// inode is one file's content state. durable is replaced wholesale on
// every sync and never mutated in place, so snapshots may alias it.
type inode struct {
	data    []byte
	durable []byte
	synced  bool
}

// Fault is a deterministic in-memory Backend with fault injection: a
// per-op error hook, a per-op latency hook, an op-indexed power-cut
// trigger, and exhaustive durable-state snapshots for crash-matrix
// testing. The zero value is not usable; construct with NewFault or
// NewFaultFromState.
type Fault struct {
	root string

	mu      sync.Mutex
	vdir    map[string]*inode // volatile namespace (what live readers see)
	ddir    map[string]*inode // durable namespace (what survives a crash)
	ops     int
	crashAt int // ops at or past this index fail; <0 = never
	crashed bool

	failOp func(Op) error

	net    *NetFaults
	netRng *rand.Rand

	snapOn bool
	snaps  []Snapshot
}

// NetFaults shapes network-like read faults, drawn per read from one
// seeded distribution — the deterministic stand-in for a flaky remote
// backend that the retry/hedge policy tests and the remote benchmark
// run against. All rates are probabilities in [0, 1]; zero fields
// inject nothing.
type NetFaults struct {
	// Seed seeds the fault distribution; equal seeds replay the same
	// fault sequence for a serial sequence of reads.
	Seed int64
	// ErrRate fails the read before any byte is served ("flaky first
	// byte") with a Transient error.
	ErrRate float64
	// PartialRate serves only a random prefix of the requested bytes,
	// then fails with a Transient error — a connection reset mid-body.
	PartialRate float64
	// TruncateAfter, when positive, caps every read: requests for more
	// than TruncateAfter bytes serve exactly that many and then fail
	// with a Transient error ("error after N bytes").
	TruncateAfter int
	// SpikeRate adds SpikeDur of latency to the read — the tail-latency
	// spike hedged reads exist to absorb. Spiked reads sleep
	// cancellably: a hedge or deadline cancellation wakes them.
	SpikeRate float64
	SpikeDur  time.Duration
	// StuckRate makes the read hang until its context is cancelled (a
	// stuck connection). Reads without a context (plain ReadAt) sleep
	// SpikeDur instead, since nothing could ever unblock them.
	StuckRate float64
}

// SetNetFaults installs (or, with nil, clears) the network fault
// policy. Only file reads (OpRead) are shaped; metadata ops stay
// governed by SetFailOp.
func (f *Fault) SetNetFaults(nf *NetFaults) {
	f.mu.Lock()
	f.net = nf
	if nf != nil {
		f.netRng = rand.New(rand.NewSource(nf.Seed))
	} else {
		f.netRng = nil
	}
	f.mu.Unlock()
}

// NewFault returns an empty fault backend. root is its identity (see
// Backend.Root); it must be unique per logical directory.
func NewFault(root string) *Fault {
	return &Fault{
		root:    root,
		vdir:    map[string]*inode{},
		ddir:    map[string]*inode{},
		crashAt: -1,
	}
}

// NewFaultFromState returns a fault backend whose files hold the given
// contents, all fully durable — the "machine rebooted into this state"
// constructor the crash matrix uses to reopen a Snapshot.
func NewFaultFromState(root string, files map[string][]byte) *Fault {
	f := NewFault(root)
	for name, data := range files {
		ino := &inode{
			data:    append([]byte(nil), data...),
			durable: append([]byte(nil), data...),
			synced:  true,
		}
		f.vdir[name] = ino
		f.ddir[name] = ino
	}
	return f
}

// Root returns the backend's identity.
func (f *Fault) Root() string { return f.root }

// SetFailOp installs a hook consulted before every operation; a non-nil
// return fails that operation without effect. Pass nil to clear.
func (f *Fault) SetFailOp(hook func(Op) error) {
	f.mu.Lock()
	f.failOp = hook
	f.mu.Unlock()
}

// CrashAfter arms the power-cut simulator: the n-th operation (0-based)
// and everything after it fail with ErrCrashed, leaving only durable
// state behind. Call Crash to complete the power cycle.
func (f *Fault) CrashAfter(n int) {
	f.mu.Lock()
	f.crashAt = n
	f.mu.Unlock()
}

// OpCount returns how many operations have completed or failed.
func (f *Fault) OpCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// EnableSnapshots starts recording a Snapshot after every sync
// operation (Sync and SyncDir) — the only points the durable state
// advances, so the recorded sequence covers every distinct crash state.
func (f *Fault) EnableSnapshots() {
	f.mu.Lock()
	f.snapOn = true
	f.mu.Unlock()
}

// Snapshots returns the recorded durable states, oldest first.
func (f *Fault) Snapshots() []Snapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Snapshot(nil), f.snaps...)
}

// Crash simulates the power cycle: every write not fsynced and every
// namespace edit not SyncDir'ed is dropped, open handles go stale, and
// the backend resumes serving the durable state. (With CrashAfter armed,
// the trip point decides what was durable; Crash itself may also be
// called directly at any moment.)
func (f *Fault) Crash() {
	f.mu.Lock()
	defer f.mu.Unlock()
	vdir := make(map[string]*inode, len(f.ddir))
	ddir := make(map[string]*inode, len(f.ddir))
	for name, ino := range f.ddir {
		re := &inode{
			data:    append([]byte(nil), ino.durable...),
			durable: append([]byte(nil), ino.durable...),
			synced:  ino.synced,
		}
		vdir[name] = re
		ddir[name] = re
	}
	f.vdir, f.ddir = vdir, ddir
	f.crashed = false
	f.crashAt = -1
}

func (f *Fault) strictLocked() map[string][]byte {
	out := make(map[string][]byte, len(f.ddir))
	for name, ino := range f.ddir {
		out[name] = ino.durable // nil durable = zero-length husk
	}
	return out
}

func (f *Fault) looseLocked() map[string][]byte {
	out := make(map[string][]byte, len(f.vdir))
	for name, ino := range f.vdir {
		out[name] = ino.durable
	}
	return out
}

// begin gates one operation: crash trigger, error hook, op accounting.
// It is called with f.mu held.
func (f *Fault) begin(kind OpKind, name string) error {
	op := Op{Index: f.ops, Kind: kind, Name: name}
	f.ops++
	if f.crashed || (f.crashAt >= 0 && op.Index >= f.crashAt) {
		f.crashed = true
		return ErrCrashed
	}
	if f.failOp != nil {
		if err := f.failOp(op); err != nil {
			return err
		}
	}
	return nil
}

// snap records the durable state if snapshotting is on (mu held).
func (f *Fault) snap() {
	if !f.snapOn {
		return
	}
	f.snaps = append(f.snaps, Snapshot{
		AfterOps: f.ops,
		Strict:   f.strictLocked(),
		Loose:    f.looseLocked(),
	})
}

// faultFile is an open handle on a Fault inode.
type faultFile struct {
	f    *Fault
	ino  *inode
	name string
	off  int64 // sequential Write offset
}

// ReadAt opens the named file.
func (f *Fault) ReadAt(name string) (File, int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.begin(OpOpen, name); err != nil {
		return nil, 0, err
	}
	ino, ok := f.vdir[name]
	if !ok {
		return nil, 0, fmt.Errorf("storage: open %s: %w", name, fs.ErrNotExist)
	}
	return &faultFile{f: f, ino: ino, name: name}, int64(len(ino.data)), nil
}

// Create creates or truncates the named file.
func (f *Fault) Create(name string) (File, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.begin(OpCreate, name); err != nil {
		return nil, err
	}
	// A fresh inode, never truncation in place: if the old inode was
	// durable under this name, a crash before the next SyncDir revives
	// the old contents — the adversarial (and legal) outcome.
	ino := &inode{}
	f.vdir[name] = ino
	return &faultFile{f: f, ino: ino, name: name}, nil
}

// Rename atomically replaces newName with oldName's file.
func (f *Fault) Rename(oldName, newName string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.begin(OpRename, oldName); err != nil {
		return err
	}
	ino, ok := f.vdir[oldName]
	if !ok {
		return fmt.Errorf("storage: rename %s: %w", oldName, fs.ErrNotExist)
	}
	delete(f.vdir, oldName)
	f.vdir[newName] = ino
	return nil
}

// Remove deletes the named file.
func (f *Fault) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.begin(OpRemove, name); err != nil {
		return err
	}
	if _, ok := f.vdir[name]; !ok {
		return fmt.Errorf("storage: remove %s: %w", name, fs.ErrNotExist)
	}
	delete(f.vdir, name)
	return nil
}

// SyncDir makes the namespace durable: the durable directory becomes the
// volatile one. File contents remain governed by File.Sync.
func (f *Fault) SyncDir() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.begin(OpSyncDir, ""); err != nil {
		return err
	}
	ddir := make(map[string]*inode, len(f.vdir))
	for name, ino := range f.vdir {
		ddir[name] = ino
	}
	f.ddir = ddir
	f.snap()
	return nil
}

// List returns the volatile namespace in lexical order.
func (f *Fault) List() ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.begin(OpList, ""); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(f.vdir))
	for name := range f.vdir {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

func (h *faultFile) ReadAt(p []byte, off int64) (int, error) {
	return h.readAt(nil, p, off)
}

// ReadAtContext is the cancellable read path (storage.ContextFile):
// injected latency spikes and stuck reads respect ctx, so hedged reads
// against a Fault backend can cancel a slow losing leg exactly as they
// would cancel an in-flight HTTP request.
func (h *faultFile) ReadAtContext(ctx context.Context, p []byte, off int64) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return h.readAt(ctx, p, off)
}

func (h *faultFile) readAt(ctx context.Context, p []byte, off int64) (int, error) {
	h.f.mu.Lock()
	if err := h.f.begin(OpRead, h.name); err != nil {
		h.f.mu.Unlock()
		return 0, err
	}
	// Draw this read's faults under the lock, from one shared rng, so a
	// given seed replays the same fault sequence across a serial run of
	// reads regardless of where they land.
	var (
		spike  time.Duration
		stuck  bool
		errNow bool
		cutAt  = -1
	)
	if nf := h.f.net; nf != nil {
		r := h.f.netRng
		if nf.SpikeRate > 0 && r.Float64() < nf.SpikeRate {
			spike = nf.SpikeDur
		}
		if nf.StuckRate > 0 && r.Float64() < nf.StuckRate {
			stuck = true
		}
		if nf.ErrRate > 0 && r.Float64() < nf.ErrRate {
			errNow = true
		}
		if nf.PartialRate > 0 && len(p) > 1 && r.Float64() < nf.PartialRate {
			cutAt = 1 + r.Intn(len(p)-1)
		}
		if nf.TruncateAfter > 0 && len(p) > nf.TruncateAfter && (cutAt < 0 || cutAt > nf.TruncateAfter) {
			cutAt = nf.TruncateAfter
		}
		if stuck && ctx == nil {
			// Nothing can ever cancel a context-free read, so a hang would
			// deadlock the caller; degrade to one latency spike.
			stuck = false
			if nf.SpikeDur > spike {
				spike = nf.SpikeDur
			}
		}
	}
	h.f.mu.Unlock()

	if stuck {
		<-ctx.Done()
		return 0, fmt.Errorf("storage: %s: stuck read: %w", h.name, ctx.Err())
	}
	if spike > 0 {
		if err := sleepCtx(ctx, spike); err != nil {
			return 0, fmt.Errorf("storage: %s: %w", h.name, err)
		}
	}
	if errNow {
		return 0, Transient(fmt.Errorf("storage: %s: injected connection error", h.name))
	}

	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("storage: %s: negative offset", h.name)
	}
	if len(p) == 0 {
		return 0, nil
	}
	if off >= int64(len(h.ino.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.ino.data[off:])
	if cutAt >= 0 && n > cutAt {
		return cutAt, Transient(fmt.Errorf("storage: %s: connection reset after %d of %d bytes",
			h.name, cutAt, len(p)))
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// sleepCtx sleeps d, or less if ctx (which may be nil) is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (h *faultFile) Write(p []byte) (int, error) {
	n, err := h.write(p, h.off, OpWrite)
	h.off += int64(n)
	return n, err
}

func (h *faultFile) WriteAt(p []byte, off int64) (int, error) {
	return h.write(p, off, OpWriteAt)
}

func (h *faultFile) write(p []byte, off int64, kind OpKind) (int, error) {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	if err := h.f.begin(kind, h.name); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("storage: %s: negative offset", h.name)
	}
	if grow := off + int64(len(p)) - int64(len(h.ino.data)); grow > 0 {
		h.ino.data = append(h.ino.data, make([]byte, grow)...)
	}
	copy(h.ino.data[off:], p)
	return len(p), nil
}

// Sync makes the file's current contents durable.
func (h *faultFile) Sync() error {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	if err := h.f.begin(OpSync, h.name); err != nil {
		return err
	}
	h.ino.durable = append([]byte(nil), h.ino.data...)
	h.ino.synced = true
	h.f.snap()
	return nil
}

func (h *faultFile) Close() error {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	if err := h.f.begin(OpClose, h.name); err != nil {
		return err
	}
	return nil
}
