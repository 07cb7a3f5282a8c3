package enc

import "sync"

// Pooled scratch buffers for the temporaries the codecs need around every
// page: bit-unpack staging ([]uint64), child-stream and dense-value
// staging ([]int64) and validity planes ([]bool). The steady-state scan
// path decodes thousands of pages per second; without the pools each page
// costs one or more short-lived heap allocations that dominate the decode
// profile under GC pressure. Scratch never escapes a single encode/decode
// call, so a plain sync.Pool (pointer-to-slice to keep Put
// allocation-free) is enough.

const scratchDefaultCap = 1024 // one default-sized page of values

var uint64ScratchPool = sync.Pool{
	New: func() any {
		s := make([]uint64, 0, scratchDefaultCap)
		return &s
	},
}

// getUint64Scratch returns a pooled slice of length n (contents undefined).
func getUint64Scratch(n int) *[]uint64 {
	p := uint64ScratchPool.Get().(*[]uint64)
	if cap(*p) < n {
		*p = make([]uint64, n)
	}
	*p = (*p)[:n]
	return p
}

func putUint64Scratch(p *[]uint64) { uint64ScratchPool.Put(p) }

var int64ScratchPool = sync.Pool{
	New: func() any {
		s := make([]int64, 0, scratchDefaultCap)
		return &s
	},
}

// getInt64Scratch returns a pooled slice of length n (contents undefined).
func getInt64Scratch(n int) *[]int64 {
	p := int64ScratchPool.Get().(*[]int64)
	if cap(*p) < n {
		*p = make([]int64, n)
	}
	*p = (*p)[:n]
	return p
}

func putInt64Scratch(p *[]int64) { int64ScratchPool.Put(p) }

var boolScratchPool = sync.Pool{
	New: func() any {
		s := make([]bool, 0, scratchDefaultCap)
		return &s
	},
}

// getBoolScratch returns a pooled slice of length n (contents undefined).
func getBoolScratch(n int) *[]bool {
	p := boolScratchPool.Get().(*[]bool)
	if cap(*p) < n {
		*p = make([]bool, n)
	}
	*p = (*p)[:n]
	return p
}

func putBoolScratch(p *[]bool) { boolScratchPool.Put(p) }
