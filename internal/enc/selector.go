package enc

// Amortized cascade selection. The sampling-based selector (cascade.go)
// trial-encodes every nominated candidate, which makes scheme selection —
// not encoding — the dominant ingest cost when it reruns for every page
// (the per-chunk advisor overhead LEA and the columnar-format evaluations
// identify). A SelectorCache remembers the winning top-level scheme per
// stream of a logical column and reuses it for subsequent pages, falling
// back to a full re-selection only when the cached scheme stops applying
// or its compression ratio drifts past Options.ResampleDrift. A
// re-selection over a page that fits in one sample appends the winning
// trial instead of encoding the page again (see cascade.go), and the
// DEFLATE state behind the ChunkedBytes trial is pooled (chunked.go), so
// a resample costs the trials and nothing more.
//
// The cached streams are every page's top-level streams: a scalar page's
// one stream, a list page's lengths and values, and a sparse page's value
// stream, which the core writer routes through a cache of its own on a
// copy of the sparse codec's options. Child streams of a composite winner
// (a Dict's codes, a Delta's deltas) re-select on every page. Caching
// them too was tried and dropped: it changed which schemes some child
// streams pick, and so the output bytes, for no clear gain.
//
// One cachedEncode serves every kind: an entry is a scheme id and a ratio
// whatever the value type, and a resample is the same table-driven choose
// the uncached path runs, so a scheme added to a kind's table is cached
// with no change here. The cache inherits choose's determinism, which
// rests on each table's fixed row order.

// DefaultResampleDrift is the relative encoded-size drift that invalidates
// a cached selector decision when Options.ResampleDrift is zero.
const DefaultResampleDrift = 0.25

// SelectorCache caches top-level cascade decisions across the successive
// pages of one logical column: every stream an Encode* call of these
// Options makes at depth 0, including a sparse page's value stream, and
// no child stream. A page may carry several top-level streams (list
// columns encode a lengths stream and a values stream); entries are keyed
// by the stream's ordinal within the page, which is fixed by the column's
// type. The cache is deterministic: given the same sequence of
// pages it makes the same decisions, regardless of what other columns do —
// this is what keeps parallel writers byte-identical to sequential ones.
//
// A SelectorCache is NOT safe for concurrent use. The core writer gives
// each column its own cache and encodes that column's pages in file order.
type SelectorCache struct {
	drift   float64
	ordinal int
	entries []selectorEntry

	hits      int64
	resamples int64
}

type selectorEntry struct {
	valid  bool
	scheme SchemeID
	ratio  float64 // encoded/raw size when the full selection last ran
}

// NewSelectorCache returns a cache that re-samples when the encoded-size
// ratio moves more than drift (relative) from the ratio observed at
// selection time. drift <= 0 selects DefaultResampleDrift.
func NewSelectorCache(drift float64) *SelectorCache {
	if drift <= 0 {
		drift = DefaultResampleDrift
	}
	return &SelectorCache{drift: drift}
}

// BeginPage resets the stream ordinal; the writer calls it once per page
// before the page's top-level Encode* calls.
func (c *SelectorCache) BeginPage() { c.ordinal = 0 }

// Stats reports how often the cache reused a decision versus running the
// full sampling-based selection (the first page of every stream counts as
// a resample).
func (c *SelectorCache) Stats() (hits, resamples int64) { return c.hits, c.resamples }

func (c *SelectorCache) entry() *selectorEntry {
	for c.ordinal >= len(c.entries) {
		c.entries = append(c.entries, selectorEntry{})
	}
	e := &c.entries[c.ordinal]
	c.ordinal++
	return e
}

// drifted reports whether ratio moved too far from the entry's baseline.
// The small absolute slack keeps near-zero baselines (constant pages) from
// re-sampling on sub-byte noise.
func (c *SelectorCache) drifted(base, ratio float64) bool {
	d := ratio - base
	if d < 0 {
		d = -d
	}
	return d > c.drift*base+1e-3
}

// cachedEncode is the cached path of the top-level encoders: try the
// remembered scheme, fall back to full selection when it errors (e.g.
// Constant on a page that is no longer constant) or drifts.
func cachedEncode[T any](c *SelectorCache, k *kind[T], dst []byte, vs []T, opts *Options) ([]byte, error) {
	if len(vs) == 0 {
		_, out, err := encodeChosen(k, dst, vs, opts, 0)
		return out, err
	}
	e := c.entry()
	mark := len(dst)
	raw := k.rawSize(vs)
	if e.valid {
		out, err := k.encode(dst, e.scheme, vs, opts, 0)
		if err == nil {
			if ratio := float64(len(out)-mark) / raw; !c.drifted(e.ratio, ratio) {
				c.hits++
				return out, nil
			}
		}
		dst = dst[:mark]
	}
	c.resamples++
	id, out, err := encodeChosen(k, dst, vs, opts, 0)
	if err != nil {
		return nil, err
	}
	*e = selectorEntry{valid: true, scheme: id, ratio: float64(len(out)-mark) / raw}
	return out, nil
}
