package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span levels decide which span owns an instant when several are open:
// the highest level wins. Calls the benchmark makes nest by depth (the op
// is 0, a call inside it 1, ...); a storage call always sits below those,
// and the loopback server's handling of a request below the storage call
// that sent it.
const (
	levelStorage = 10
	levelServer  = 20
)

// span is one timed call. Start and End are nanoseconds since the tracer
// was created. Op is the id of the op span the call belongs to (0 = none:
// read-ahead running between ops).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Name   string `json:"name"`
	Level  int8   `json:"level"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. While off, every method returns at
// once without reading the clock, so the untraced run pays one atomic
// load per call.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	// stack holds the open spans of the benchmark's own goroutine; top and
	// topOp mirror its head for the storage and server goroutines.
	stack []int32
	top   atomic.Int32
	topOp atomic.Int32

	mu     sync.Mutex
	nextID int32
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// opSpan is the name of the span around a whole op.
const opSpan = "op"

// call times fn as a span nested under the benchmark goroutine's current
// span. Only that goroutine may use it. Calls made outside an op (a
// round's own set-up and checks) are not recorded.
func (t *tracer) call(name string, fn func() error) error {
	if !t.on.Load() || (len(t.stack) == 0 && name != opSpan) {
		return fn()
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	sp := span{ID: id, Parent: t.top.Load(), Op: t.topOp.Load(), Name: name, Level: int8(len(t.stack))}
	if len(t.stack) == 0 {
		sp.Op = id
		t.topOp.Store(id)
	}
	t.stack = append(t.stack, id)
	t.top.Store(id)
	sp.Start = t.now()
	err := fn()
	sp.End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
	t.top.Store(sp.Parent)
	if len(t.stack) == 0 {
		t.topOp.Store(0)
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return err
}

// leaf starts a span on any goroutine, as a child of whatever the
// benchmark goroutine has open, and returns the function that ends it.
func (t *tracer) leaf(name string, level int8) func() {
	if !t.on.Load() {
		return func() {}
	}
	sp := span{Parent: t.top.Load(), Op: t.topOp.Load(), Name: name, Level: level, Start: t.now()}
	return func() {
		sp.End = t.now()
		t.mu.Lock()
		t.nextID++
		sp.ID = t.nextID
		t.spans = append(t.spans, sp)
		t.mu.Unlock()
	}
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerOf maps a span name such as "dataset.Open" to its layer.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes splits every op's duration among the layers of its spans. An
// instant belongs to the open span of the highest level, which is the
// span's self time: its duration minus what its children cover. Spans of
// one level that overlap (parallel reads) share the instant equally, so
// the parts of an op always add up to its duration.
func selfTimes(spans []span) (byLayer map[string]float64, opTotal float64) {
	byOp := map[int32][]span{}
	for _, s := range spans {
		if s.Op != 0 {
			byOp[s.Op] = append(byOp[s.Op], s)
		}
	}
	byLayer = map[string]float64{}
	for id, group := range byOp {
		var op span
		for _, s := range group {
			if s.ID == id {
				op = s
			}
		}
		if op.ID == 0 {
			continue
		}
		opTotal += float64(op.End - op.Start)
		for layer, ns := range attribute(op, group) {
			byLayer[layer] += ns
		}
	}
	return byLayer, opTotal
}

// attribute implements selfTimes for one op and its spans.
func attribute(op span, group []span) map[string]float64 {
	clipped := make([]span, 0, len(group))
	cuts := make([]int64, 0, 2*len(group))
	for _, s := range group {
		if s.Start < op.Start {
			s.Start = op.Start
		}
		if s.End > op.End {
			s.End = op.End
		}
		if s.End <= s.Start {
			continue
		}
		clipped = append(clipped, s)
		cuts = append(cuts, s.Start, s.End)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start < clipped[j].Start })
	out := map[string]float64{}
	var open []span
	next := 0
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if hi == lo {
			continue
		}
		for next < len(clipped) && clipped[next].Start <= lo {
			open = append(open, clipped[next])
			next++
		}
		live := open[:0]
		best := int8(-1)
		for _, s := range open {
			if s.End > lo {
				live = append(live, s)
				if s.Level > best {
					best = s.Level
				}
			}
		}
		open = live
		n := 0
		for _, s := range open {
			if s.Level == best {
				n++
			}
		}
		for _, s := range open {
			if s.Level == best {
				out[layerOf(s.Name)] += float64(hi-lo) / float64(n)
			}
		}
	}
	return out
}

// spanMS returns the durations, in milliseconds, of the spans with the
// given name.
func spanMS(spans []span, name string) []float64 {
	var ms []float64
	for _, s := range spans {
		if s.Name == name {
			ms = append(ms, float64(s.End-s.Start)/1e6)
		}
	}
	return ms
}

// workloadTrace is one workload's part of trace.json.
type workloadTrace struct {
	Workload string `json:"workload"`
	Spans    []span `json:"spans"`
}

func writeTrace(path string, traces []workloadTrace) error {
	data, err := json.Marshal(traces)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
