package cache

import (
	"container/list"
	"io"
	"sync/atomic"
)

// The page tier is a segmented LRU (the classic 2Q shape): a miss
// enters probation, a second touch promotes to protected, and eviction
// always takes the probation tail first — one-shot scan traffic cannot
// flush the hot set. Entries are exact coalesced runs keyed by
// (member version, offset, length): the read planner is deterministic
// for a given projection and filter set, so repeated scans ask for
// byte-identical runs and exact matching hits without any range
// arithmetic.

// protectedShare is the fraction of the page budget the protected
// segment may hold before demoting back into probation.
const protectedShare = 0.8

type runKey struct {
	k   Key
	off int64
	n   int
}

type runEntry struct {
	key  runKey
	data []byte
	elem *list.Element
	prot bool
}

// removeRunLocked unlinks e from its segment and the accounting.
func (c *Cache) removeRunLocked(e *runEntry) {
	if e.prot {
		c.protected.Remove(e.elem)
		c.protBytes -= int64(len(e.data))
	} else {
		c.probation.Remove(e.elem)
	}
	delete(c.runs, e.key)
	c.pageBytes -= int64(len(e.data))
}

// evictLocked evicts least-valuable runs — the probation tail first,
// then the protected tail — until the PageBytes budget holds.
func (c *Cache) evictLocked() {
	for c.pageBytes > c.opts.PageBytes {
		back := c.probation.Back()
		if back == nil {
			back = c.protected.Back()
		}
		if back == nil {
			return
		}
		c.removeRunLocked(back.Value.(*runEntry))
		atomic.AddInt64(&c.pageEvictions, 1)
	}
}

// touchRunLocked records a hit: probation -> protected promotion, with
// protected overflow demoting its tail back to probation's MRU end.
func (c *Cache) touchRunLocked(e *runEntry) {
	if e.prot {
		c.protected.MoveToFront(e.elem)
		return
	}
	c.probation.Remove(e.elem)
	e.prot = true
	e.elem = c.protected.PushFront(e)
	c.protBytes += int64(len(e.data))
	protCap := int64(float64(c.opts.PageBytes) * protectedShare)
	for c.protBytes > protCap {
		back := c.protected.Back()
		if back == nil {
			break
		}
		de := back.Value.(*runEntry)
		c.protected.Remove(back)
		de.prot = false
		de.elem = c.probation.PushFront(de)
		c.protBytes -= int64(len(de.data))
	}
}

// lookupRun copies a cached exact run [off, off+len(p)) into p,
// reporting whether it hit.
func (c *Cache) lookupRun(k Key, p []byte, off int64) bool {
	c.pMu.Lock()
	e, ok := c.runs[runKey{k: k, off: off, n: len(p)}]
	if !ok {
		c.pMu.Unlock()
		return false
	}
	copy(p, e.data)
	c.touchRunLocked(e)
	c.pMu.Unlock()
	atomic.AddInt64(&c.pageHits, 1)
	return true
}

// insertRun stores a full successful read. Oversized runs (bigger than
// the whole budget) are never cached.
func (c *Cache) insertRun(k Key, off int64, data []byte) {
	n := int64(len(data))
	if n == 0 || n > c.opts.PageBytes {
		return
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	c.pMu.Lock()
	rk := runKey{k: k, off: off, n: len(data)}
	if _, ok := c.runs[rk]; ok {
		c.pMu.Unlock()
		return
	}
	e := &runEntry{key: rk, data: cp}
	e.elem = c.probation.PushFront(e)
	c.runs[rk] = e
	c.pageBytes += n
	c.evictLocked()
	c.pMu.Unlock()
}

// Reader wraps under with the page tier: ReadAt serves cached runs
// from memory and fills the cache from full successful reads. onErr,
// when non-nil, observes every error under returns (besides io.EOF) —
// the dataset layer uses it to invalidate a member whose backing object
// was replaced under its ETag pin.
func (c *Cache) Reader(k Key, under io.ReaderAt, onErr func(error)) io.ReaderAt {
	return &cachedReader{c: c, k: k, under: under, onErr: onErr}
}

type cachedReader struct {
	c     *Cache
	k     Key
	under io.ReaderAt
	onErr func(error)
}

func (r *cachedReader) ReadAt(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if r.c.lookupRun(r.k, p, off) {
		return len(p), nil
	}
	atomic.AddInt64(&r.c.pageMisses, 1)
	n, err := r.under.ReadAt(p, off)
	if err != nil {
		if err != io.EOF && r.onErr != nil {
			r.onErr(err)
		}
		return n, err
	}
	if n == len(p) {
		r.c.insertRun(r.k, off, p[:n])
	}
	return n, err
}
