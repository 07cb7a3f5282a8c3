package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"bullion/internal/enc"
	"bullion/internal/merkle"
)

// This file implements the writer's ingest pipeline — the write-side twin
// of the streaming scan subsystem. The Writer's caller-facing half only
// assembles row groups (batch buffering, quality presorting); each cut
// group is handed to the pipeline, which encodes its columns as
// independent tasks on a fixed pool of EncodeWorkers goroutines, while a
// single serializer goroutine writes completed groups to the underlying
// io.Writer strictly in file order. MaxInflightGroups bounds how many
// groups may sit between assembly and serialization, capping memory.
//
// Two invariants make the parallel writer byte-identical to the
// sequential one (pinned by the golden and determinism tests):
//
//   - each column's chunks are encoded in group order: a column's tasks
//     queue in per-column FIFOs and at most one worker drains a given
//     column at a time, so its enc.SelectorCache sees the exact page
//     sequence a sequential writer would feed it;
//   - the serializer assigns offsets and footer entries in group order,
//     so worker scheduling never reaches the file layout.

// maxEncodeWorkers bounds explicit Options.EncodeWorkers requests.
const maxEncodeWorkers = 256

// encodedPage is one finished page: its bytes live in the owning chunk's
// buffer; the metadata feeds the footer without re-touching the payload.
type encodedPage struct {
	size   int // encoded bytes, including Level-2 slack
	rows   uint32
	scheme uint8
	stats  PageStats
	bloom  []byte // serialized page bloom (byte-string pages only)
	hash   merkle.Hash
}

// encodedChunk is one column's encoded pages for one row group,
// concatenated so the serializer issues a single Write per chunk.
type encodedChunk struct {
	buf   []byte
	pages []encodedPage
	// hashes is the chunk's distinct byte-string value hash set; the
	// serializer unions chunks into the column's file-level bloom input.
	hashes map[uint64]struct{}
}

// groupJob carries one row group through the pipeline.
type groupJob struct {
	rows      int
	chunks    []encodedChunk
	remaining atomic.Int32
	done      chan struct{} // closed when every column chunk is encoded
}

type colTask struct {
	g    *groupJob
	data ColumnData
}

// colQueue is one column's pending encode tasks. The running flag grants
// exclusive drain rights to a single worker, which serializes the
// column's tasks in FIFO (= group) order without a per-column goroutine.
type colQueue struct {
	mu      sync.Mutex
	tasks   []colTask
	running bool
}

// ingestPipeline is the worker-pool half of the Writer.
type ingestPipeline struct {
	w       *Writer
	colOpts []*Options  // per-column options with private selector caches
	cols    []*colQueue // per-column FIFO task queues

	inflight chan struct{} // group backpressure (MaxInflightGroups slots)
	runnable chan int      // columns with queued tasks and no active drainer
	ordered  chan *groupJob
	taskWG   sync.WaitGroup // open tasks, for shutdown draining
	workWG   sync.WaitGroup
	serWG    sync.WaitGroup

	mu  sync.Mutex
	err error
}

// resolveWorkers normalizes Options.EncodeWorkers.
func (o *Options) resolveWorkers() int {
	w := o.EncodeWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > maxEncodeWorkers {
		w = maxEncodeWorkers
	}
	return w
}

// newIngestPipeline starts the encode pool and the serializer. It is
// created lazily on the first cut group, so group-less writers (empty
// files) never spawn goroutines.
func newIngestPipeline(w *Writer) *ingestPipeline {
	workers := w.opts.resolveWorkers()
	inflight := w.opts.MaxInflightGroups
	if inflight <= 0 {
		inflight = workers + 2
	}
	nCols := len(w.schema.Fields)
	p := &ingestPipeline{
		w:       w,
		colOpts: make([]*Options, nCols),
		cols:    make([]*colQueue, nCols),
		// A column enters runnable only when it flips to running, so at
		// most one entry per column is ever outstanding: sends at nCols
		// capacity cannot block.
		runnable: make(chan int, nCols),
		inflight: make(chan struct{}, inflight),
		ordered:  make(chan *groupJob, inflight),
	}
	for ci := range w.schema.Fields {
		p.colOpts[ci] = columnOptions(w.opts)
		p.cols[ci] = &colQueue{}
	}
	p.workWG.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	p.serWG.Add(1)
	go p.serialize()
	return p
}

// columnOptions clones o for one column and gives its Enc a private
// selector cache, unless Enc.ResampleDrift is negative. Every stream of
// the column's pages encodes with that Enc, a sparse page's value stream
// included, so one cache amortizes selection over the whole column.
// Every column gets its own cache: SelectorCache is stateful and
// single-threaded, and per-column state is what keeps its decisions
// independent of worker scheduling. The caller's options are never
// mutated.
func columnOptions(o *Options) *Options {
	co := o.clone()
	if drift := co.Enc.ResampleDrift; drift >= 0 {
		e := *co.Enc
		e.Cache = enc.NewSelectorCache(drift)
		co.Enc = &e
	}
	return co
}

func (p *ingestPipeline) setErr(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

func (p *ingestPipeline) firstErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// dispatch hands one assembled group to the pipeline. It blocks only on
// the in-flight bound; once admitted, nothing downstream can block it.
func (p *ingestPipeline) dispatch(group []ColumnData, n int) error {
	if err := p.firstErr(); err != nil {
		return err
	}
	p.inflight <- struct{}{}
	g := &groupJob{rows: n, chunks: make([]encodedChunk, len(group)), done: make(chan struct{})}
	g.remaining.Store(int32(len(group)))
	p.ordered <- g
	for ci, col := range group {
		p.taskWG.Add(1)
		q := p.cols[ci]
		q.mu.Lock()
		q.tasks = append(q.tasks, colTask{g: g, data: col})
		wake := !q.running
		if wake {
			q.running = true
		}
		q.mu.Unlock()
		if wake {
			p.runnable <- ci
		}
	}
	return nil
}

// worker drains runnable columns: it claims a column, encodes its queued
// chunks in FIFO order, and releases the claim when the queue empties.
// After a failure workers keep draining (skipping the encode) so
// completed groups unblock the serializer and the in-flight bound.
func (p *ingestPipeline) worker() {
	defer p.workWG.Done()
	for ci := range p.runnable {
		q := p.cols[ci]
		for {
			q.mu.Lock()
			if len(q.tasks) == 0 {
				q.running = false
				q.mu.Unlock()
				break
			}
			task := q.tasks[0]
			q.tasks = q.tasks[1:]
			q.mu.Unlock()
			p.process(ci, task)
			p.taskWG.Done()
		}
	}
}

// process encodes one column chunk of one group.
func (p *ingestPipeline) process(ci int, task colTask) {
	if p.firstErr() == nil {
		field := p.w.schema.Fields[ci]
		chunk, err := encodeColumnChunk(field, task.data, task.g.rows, p.colOpts[ci])
		if err != nil {
			p.setErr(fmt.Errorf("core: column %q: %w", field.Name, err))
		} else {
			task.g.chunks[ci] = chunk
		}
	}
	if task.g.remaining.Add(-1) == 0 {
		close(task.g.done)
	}
}

// encodeColumnChunk encodes all pages of one column of one row group:
// cascade selection (through the column's selector cache), page encoding,
// zone-map statistics (including page blooms for byte-string columns),
// Level-2 slack, and the Merkle leaf hash. It is pure with respect to the
// Writer — all file-layout state stays with the serializer.
func encodeColumnChunk(field Field, col ColumnData, n int, opts *Options) (encodedChunk, error) {
	var c encodedChunk
	bloomBits := opts.resolveBloomBits()
	buildBlooms := bloomBits > 0 && (field.Type.Kind == Binary || field.Type.Kind == String)
	for lo := 0; lo < n; lo += opts.RowsPerPage {
		hi := lo + opts.RowsPerPage
		if hi > n {
			hi = n
		}
		page := col.slice(lo, hi)
		payload, scheme, err := encodePage(field, page, opts)
		if err != nil {
			return encodedChunk{}, err
		}
		if opts.Compliance == Level2 {
			// Reserve slack so masked re-encodes always fit in place.
			payload = append(payload, make([]byte, level2Slack(len(payload)))...)
		}
		ep := encodedPage{
			size:   len(payload),
			rows:   uint32(hi - lo),
			scheme: uint8(scheme),
			stats:  computePageStats(field, page),
			hash:   merkle.HashPage(payload),
		}
		if buildBlooms {
			if c.hashes == nil {
				c.hashes = map[uint64]struct{}{}
			}
			ep.bloom = bloomForPage(page.(BytesData), bloomBits, c.hashes)
		}
		c.pages = append(c.pages, ep)
		c.buf = append(c.buf, payload...)
	}
	return c, nil
}

// bloomForPage builds one page's membership filter from its distinct
// value hashes, adding them to the chunk-level set as a side effect.
func bloomForPage(vals BytesData, bloomBits int, chunkSet map[uint64]struct{}) []byte {
	pageSet := make(map[uint64]struct{}, len(vals))
	for _, v := range vals {
		h := enc.BloomHash(v)
		pageSet[h] = struct{}{}
		chunkSet[h] = struct{}{}
	}
	b := enc.NewBloomBuilder(len(pageSet), bloomBits)
	for h := range pageSet {
		b.AddHash(h)
	}
	return b.Marshal()
}

// serialize writes completed groups in dispatch order. On failure it keeps
// draining without writing, so assembly and the encode pool never wedge
// on a full pipeline.
func (p *ingestPipeline) serialize() {
	defer p.serWG.Done()
	for g := range p.ordered {
		<-g.done
		if p.firstErr() == nil {
			if err := p.w.serializeGroup(g); err != nil {
				p.setErr(err)
			}
		}
		g.chunks = nil
		<-p.inflight
	}
}

// shutdown drains every queued task and joins every pipeline goroutine.
// The Writer owns offset/footer state again once it returns.
func (p *ingestPipeline) shutdown() {
	p.taskWG.Wait()
	close(p.runnable)
	p.workWG.Wait()
	close(p.ordered)
	p.serWG.Wait()
}

// selectorStats sums cache reuse across the pipeline's columns. Only
// meaningful once the pipeline is idle (after Close).
func (p *ingestPipeline) selectorStats() (hits, resamples int64) {
	for _, co := range p.colOpts {
		if c := co.Enc.Cache; c != nil {
			h, r := c.Stats()
			hits += h
			resamples += r
		}
	}
	return hits, resamples
}
