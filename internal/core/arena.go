package core

import "sync"

// Pooled buffers for the read path. Two kinds of scratch dominate a
// steady-state scan: the coalesced-run read buffers (one large []byte per
// physical read) and short-lived per-page decode staging. Both are
// recycled through sync.Pool so that a scan over millions of rows settles
// into zero allocations per batch.
//
// Run buffers are only recycled when no projected column's decoded values
// can alias the encoded bytes (see projectionAliases): byte-string
// decoding is zero-copy out of the read buffer, so those buffers must live
// as long as the batch that references them.

// runBufPool holds coalesced-read buffers. Entries are *[]byte so Put
// never allocates.
var runBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64<<10)
		return &b
	},
}

// getRunBuf returns a pooled buffer of length n (contents undefined).
func getRunBuf(n int) *[]byte {
	p := runBufPool.Get().(*[]byte)
	if cap(*p) < n {
		*p = make([]byte, n)
	}
	*p = (*p)[:n]
	return p
}

func putRunBuf(p *[]byte) { runBufPool.Put(p) }

// pageIntsPool holds per-page []int64 decode staging: the bit patterns a
// float32 page or a list<float32> page's flattened values dequantize
// from. A buffer grown past maxPooledPageInts, by an unusually large list
// page, is left to the collector rather than pinned by the pool.
var pageIntsPool = sync.Pool{
	New: func() any {
		s := make([]int64, 0, 1024)
		return &s
	},
}

func getPageInts(n int) *[]int64 {
	p := pageIntsPool.Get().(*[]int64)
	if cap(*p) < n {
		*p = make([]int64, n)
	}
	*p = (*p)[:n]
	return p
}

const maxPooledPageInts = 1 << 18 // 2 MiB

func putPageInts(p *[]int64) {
	if cap(*p) <= maxPooledPageInts {
		pageIntsPool.Put(p)
	}
}
