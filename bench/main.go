// Command bench is the repository's benchmark: six workloads on the
// paper's ads table, each reporting the same end-to-end metrics, and a
// traced run that reports what each layer did. README.md in this
// directory defines every name; BENCHMARK.json at the repository root
// fixes the bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef is one row of BENCHMARK.json. bound is the share of the
// parent's median by which the metric may worsen; exact marks a count
// that must repeat exactly when a seed is run twice.
type metricDef struct {
	name, unit, better string
	bound              float64
	exact              bool
}

var endToEnd = []metricDef{
	{name: "rows_per_s", unit: "rows/s", better: "higher", bound: 0.25},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "op_tail_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "io_bytes_per_row", unit: "bytes/row", better: "lower", bound: 0.10, exact: true},
	{name: "stored_bytes_per_user_byte", unit: "ratio", better: "lower", bound: 0.05, exact: true},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

var perLayer = []metricDef{
	{name: "storage.read_ops", unit: "count", better: "lower"},
	{name: "storage.read_bytes", unit: "bytes", better: "lower"},
	{name: "storage.write_bytes", unit: "bytes", better: "lower"},
	{name: "storage.syncs", unit: "count", better: "lower"},
	{name: "storage.read_busy_ms", unit: "ms", better: "lower"},
	{name: "storage.sync_busy_ms", unit: "ms", better: "lower"},
	{name: "storage.http_requests", unit: "count", better: "lower"},
	{name: "storage.http_data_requests", unit: "count", better: "lower"},
	{name: "storage.retries", unit: "count", better: "lower"},
	{name: "storage.hedges", unit: "count", better: "lower"},
	{name: "cache.footer_hit_rate", unit: "ratio", better: "higher"},
	{name: "cache.handle_hit_rate", unit: "ratio", better: "higher"},
	{name: "cache.page_hit_rate", unit: "ratio", better: "higher"},
	{name: "cache.page_evictions", unit: "count", better: "lower"},
	{name: "core.footer_parse_ms", unit: "ms", better: "lower"},
	{name: "core.open_project_ms", unit: "ms", better: "lower"},
	{name: "core.scan_rows_per_s", unit: "rows/s", better: "higher"},
	{name: "core.read_ops", unit: "count", better: "lower"},
	{name: "core.wasted_bytes_share", unit: "ratio", better: "lower"},
	{name: "core.pages_pruned_share", unit: "ratio", better: "higher"},
	{name: "core.batches_pruned_share", unit: "ratio", better: "higher"},
	{name: "core.inplace_delete_bytes", unit: "bytes", better: "lower"},
	{name: "enc.encode_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "enc.decode_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "sparse.encode_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "sparse.decode_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "dataset.open_ms", unit: "ms", better: "lower"},
	{name: "dataset.plan_ms", unit: "ms", better: "lower"},
	{name: "dataset.first_batch_ms", unit: "ms", better: "lower"},
	{name: "dataset.commit_ms", unit: "ms", better: "lower"},
	{name: "dataset.delete_ms", unit: "ms", better: "lower"},
	{name: "dataset.compact_ms", unit: "ms", better: "lower"},
	{name: "dataset.compact_bytes_rewritten", unit: "bytes", better: "lower"},
	{name: "dataset.files_pruned_share", unit: "ratio", better: "higher"},
	{name: "loader.plan_ms", unit: "ms", better: "lower"},
	{name: "loader.next_wait_share", unit: "ratio", better: "lower"},
	{name: "legacy.open_project_ms", unit: "ms", better: "lower"},
	{name: "footer_speedup_vs_legacy", unit: "ratio", better: "higher"},
	{name: "self_share.op", unit: "ratio", better: "lower"},
	{name: "self_share.dataset", unit: "ratio", better: "lower"},
	{name: "self_share.loader", unit: "ratio", better: "lower"},
	{name: "self_share.storage", unit: "ratio", better: "lower"},
	{name: "self_share.http", unit: "ratio", better: "lower"},
	{name: "trace_overhead_share", unit: "ratio", better: "lower"},
}

// defaultSetups is how many times an untraced run sets the workload up;
// setup_s is the median.
const defaultSetups = 3

type config struct {
	seed    int64
	seconds float64
	trace   bool
	out     string
	procs   int
	setups  int // set-ups of an untraced run; a traced run sets up once
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads: exactly these four keys.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is what report.json keeps for each workload beside the result:
// the machine, the settings, and the numbers that explain the metrics.
type report struct {
	Workload    string             `json:"workload"`
	Why         string             `json:"why"`
	Machine     machine            `json:"machine"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Traced      bool               `json:"traced"`
	Result      result             `json:"result"`
	TailPct     float64            `json:"tail_pct"`
	Samples     int                `json:"n"`
	FailedShare float64            `json:"failed_share"`
	Diagnostics map[string]float64 `json:"diagnostics"`
	// Unsupported is set when the machine cannot show what the workload
	// is about: with one processor nothing overlaps, so read-ahead and
	// file concurrency measure nothing.
	Unsupported bool `json:"unsupported_on_this_machine,omitempty"`
}

// phase is the outcome of one measured phase.
type phase struct {
	rec    recorder
	io     ioSnapshot
	counts map[string]float64
	alloc  uint64
	heapMB float64
}

// measure runs rounds until d has passed.
func measure(e *env, inst instance, d time.Duration) (*phase, error) {
	p := &phase{rec: recorder{tr: e.tr}}
	for k := range e.counts {
		delete(e.counts, k)
	}
	before := map[string]float64{}
	inst.sample(before)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	io0 := e.io.snapshot()
	for start := time.Now(); time.Since(start) < d || p.rec.attempted == 0; {
		if err := inst.round(&p.rec); err != nil {
			return nil, err
		}
	}
	p.io = e.io.snapshot().sub(io0)
	runtime.ReadMemStats(&m1)
	p.alloc = m1.TotalAlloc - m0.TotalAlloc
	p.heapMB = float64(m1.HeapSys) / (1 << 20)
	p.counts = map[string]float64{}
	inst.sample(p.counts)
	for k, v := range before {
		p.counts[k] -= v
	}
	for k, v := range e.counts {
		p.counts[k] = v
	}
	return p, nil
}

// setUp prepares the workload in a fresh directory and warms it with one
// unmeasured round. The time it returns is everything before the first
// measured op.
func setUp(w workloadDef, cfg config, tr *tracer, n int) (*env, instance, float64, error) {
	start := time.Now()
	e := &env{seed: cfg.seed, procs: cfg.procs, tr: tr, io: &ioCounters{}, counts: map[string]float64{},
		dir: filepath.Join(cfg.out, w.name, fmt.Sprintf("setup-%d", n))}
	if err := os.RemoveAll(e.dir); err != nil {
		return nil, nil, 0, err
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	inst, err := w.setup(e)
	if err != nil {
		return nil, nil, 0, err
	}
	warm := recorder{tr: tr}
	if err := inst.round(&warm); err != nil {
		inst.close()
		return nil, nil, 0, err
	}
	if warm.failed > 0 {
		inst.close()
		return nil, nil, 0, fmt.Errorf("%s: the warm-up round returned a wrong result", w.name)
	}
	return e, inst, time.Since(start).Seconds(), nil
}

// runWorkload sets the workload up, measures it and returns its report.
// The spans of a traced run are appended to *traces.
func runWorkload(w workloadDef, cfg config, traces *[]workloadTrace) (*report, error) {
	defer os.RemoveAll(filepath.Join(cfg.out, w.name))
	tr := newTracer()
	var e *env
	var inst instance
	var setupTimes []float64
	n := cfg.setups
	if cfg.trace {
		n = 1
	}
	for i := 0; i < n; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		var s float64
		var err error
		if e, inst, s, err = setUp(w, cfg, tr, i); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, s)
	}
	defer inst.close()

	rep := &report{Workload: w.name, Why: w.why, Machine: fingerprint(cfg.procs), Seed: cfg.seed,
		Seconds: cfg.seconds, Traced: cfg.trace, Diagnostics: map[string]float64{},
		Unsupported: cfg.procs < 2 && w.overlap}
	total := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		p, err := measure(e, inst, total)
		if err != nil {
			return nil, err
		}
		stored, user := inst.sizes()
		tailMS, tailPct := tail(p.rec.ms)
		rep.fill(p, endToEnd, map[string]float64{
			"rows_per_s":                 float64(p.rec.rows) / (sum(p.rec.ms) / 1e3),
			"op_p50_ms":                  median(p.rec.ms),
			"op_tail_ms":                 tailMS,
			"io_bytes_per_row":           float64(p.io.readBytes+p.io.writeBytes) / float64(p.rec.rows),
			"stored_bytes_per_user_byte": float64(stored) / float64(user),
			"setup_s":                    median(setupTimes),
		})
		rep.TailPct = tailPct
		return rep, nil
	}

	// Traced run: half the time untraced, for the latency tracing is
	// compared with, then half with spans on.
	plain, err := measure(e, inst, total/2)
	if err != nil {
		return nil, err
	}
	tr.on.Store(true)
	p, err := measure(e, inst, total/2)
	tr.on.Store(false)
	if err != nil {
		return nil, err
	}
	traced := tr.snapshot()
	*traces = append(*traces, workloadTrace{Workload: w.name, Spans: traced})
	m := layerMetrics(p, traced)
	m["trace_overhead_share"] = share(median(p.rec.ms)-median(plain.rec.ms), median(plain.rec.ms))
	if err := runProbes(inst.probe(), cfg.procs, m); err != nil {
		return nil, err
	}
	rep.fill(p, perLayer, m)
	_, rep.TailPct = tail(p.rec.ms)
	return rep, nil
}

// fill completes the report from a phase and the values of defs.
func (rep *report) fill(p *phase, defs []metricDef, values map[string]float64) {
	rep.Result = result{Correct: p.rec.failed == 0, Attempted: p.rec.attempted, Failed: p.rec.failed,
		Metrics: map[string]value{}}
	for _, d := range defs {
		rep.Result.Metrics[d.name] = value{Value: values[d.name], Unit: d.unit}
	}
	rep.Samples = len(p.rec.ms)
	rep.FailedShare = share(float64(p.rec.failed), float64(p.rec.attempted))
	rep.Diagnostics["alloc_bytes_per_row"] = float64(p.alloc) / float64(p.rec.rows)
	rep.Diagnostics["peak_heap_mb"] = p.heapMB
	rep.Diagnostics["measured_s"] = sum(p.rec.ms) / 1e3
}

// layerMetrics derives the per-layer metrics of a traced phase from the
// wrapper's counts, the layers' own statistics and the spans.
func layerMetrics(p *phase, spans []span) map[string]float64 {
	c := p.counts
	rate := func(hits, misses string) float64 { return share(c[hits], c[hits]+c[misses]) }
	medianOf := func(name string) float64 { return median(spanMS(spans, name)) }
	busy := func(name string) float64 { return sum(spanMS(spans, name)) }
	m := map[string]float64{
		"storage.read_ops":           float64(p.io.readOps),
		"storage.read_bytes":         float64(p.io.readBytes),
		"storage.write_bytes":        float64(p.io.writeBytes),
		"storage.syncs":              float64(p.io.syncs),
		"storage.read_busy_ms":       busy("storage.read"),
		"storage.sync_busy_ms":       busy("storage.sync") + busy("storage.syncdir"),
		"storage.http_requests":      c["http.requests"],
		"storage.http_data_requests": c["http.data_requests"],
		"storage.retries":            c["res.retries"],
		"storage.hedges":             c["res.hedges"],

		"cache.footer_hit_rate": rate("cache.footer_hits", "cache.footer_misses"),
		"cache.handle_hit_rate": rate("cache.handle_hits", "cache.handle_misses"),
		"cache.page_hit_rate":   rate("cache.page_hits", "cache.page_misses"),
		"cache.page_evictions":  c["cache.page_evictions"],

		"core.read_ops":             c["scan.read_ops"],
		"core.wasted_bytes_share":   share(c["scan.wasted_bytes"], c["scan.bytes_read"]),
		"core.pages_pruned_share":   share(c["scan.pages_skipped"], c["scan.pages_skipped"]+c["scan.pages_decoded"]),
		"core.batches_pruned_share": share(c["scan.batches_skipped"], c["scan.batches_skipped"]+c["scan.batches_emitted"]),

		"dataset.open_ms":                 medianOf("dataset.Open"),
		"dataset.plan_ms":                 medianOf("dataset.Scan"),
		"dataset.first_batch_ms":          firstBatchMS(spans),
		"dataset.commit_ms":               medianOf("dataset.Commit"),
		"dataset.delete_ms":               medianOf("dataset.Delete"),
		"dataset.compact_ms":              medianOf("dataset.Compact"),
		"dataset.compact_bytes_rewritten": c["compact.bytes"],
		"dataset.files_pruned_share":      share(c["scan.files_pruned"], c["scan.files_pruned"]+c["scan.files_planned"]),

		"loader.plan_ms":         c["loader.plan_ms"],
		"loader.next_wait_share": share(c["loader.wait_ms"], c["loader.wall_ms"]),
	}
	self, opTotal := selfTimes(spans)
	for _, layer := range []string{"op", "dataset", "loader", "storage", "http"} {
		m["self_share."+layer] = share(self[layer], opTotal)
	}
	return m
}

// firstBatchMS is the median duration of the first dataset.Next of each
// op: the wait for the first batch.
func firstBatchMS(spans []span) float64 {
	first := map[int32]span{}
	for _, s := range spans {
		if s.Name != "dataset.Next" || s.Op == 0 {
			continue
		}
		if f, ok := first[s.Op]; !ok || s.Start < f.Start {
			first[s.Op] = s
		}
	}
	var ms []float64
	for _, s := range first {
		ms = append(ms, float64(s.End-s.Start)/1e6)
	}
	return median(ms)
}

func selectWorkloads(names string) ([]workloadDef, error) {
	if names == "" || names == "all" {
		return workloads, nil
	}
	var out []workloadDef
	for _, name := range strings.Split(names, ",") {
		found := false
		for _, w := range workloads {
			if w.name == name {
				out = append(out, w)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return out, nil
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	names := fs.String("workload", "all", "workload name, a comma-separated list, or all")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "measuring time per workload")
	trace := fs.Int("trace", 0, "1: record spans and report the per-layer metrics instead of the end-to-end ones")
	out := fs.String("out", filepath.Join(".bench_build", "work"), "directory for scratch data, report.json and trace.json")
	selfcheck := fs.Bool("selfcheck", false, "run every workload twice and compare the two runs against the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	selected, err := selectWorkloads(*names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace != 0, out: *out, procs: procs, setups: defaultSetups}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *selfcheck {
		return selfCheck(selected, cfg)
	}

	var reports []*report
	var traces []workloadTrace
	code := 0
	for _, w := range selected {
		rep, err := runWorkload(w, cfg, &traces)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		reports = append(reports, rep)
		printReport(rep)
		line, _ := json.Marshal(rep.Result)
		fmt.Println(string(line))
		if rep.Result.Failed > 0 {
			code = 1
		}
	}
	if err := writeJSON(filepath.Join(cfg.out, "report.json"), reports); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if cfg.trace {
		if err := writeTrace(filepath.Join(cfg.out, "trace.json"), traces); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printReport writes the human-readable table to standard error; standard
// output carries only the result lines.
func printReport(rep *report) {
	w := os.Stderr
	m := rep.Machine
	fmt.Fprintf(w, "\n%s  seed %d  %.1fs  traced=%v\n", rep.Workload, rep.Seed, rep.Seconds, rep.Traced)
	fmt.Fprintf(w, "  machine: %s, %d cpus, GOMAXPROCS %d, %s, rev %s; flush: %s\n",
		m.CPU, m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.GitRev, m.Flush)
	if rep.Unsupported {
		fmt.Fprintln(w, "  unsupported_on_this_machine: one processor, so read-ahead and file concurrency overlap nothing")
	}
	defs := endToEnd
	if rep.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		v := rep.Result.Metrics[d.name]
		fmt.Fprintf(w, "  %-34s %16.4f %s\n", d.name, v.Value, v.Unit)
	}
	fmt.Fprintf(w, "  ops %d, failed %d (failed_share %.4f); tail is p%.1f of n=%d\n",
		rep.Result.Attempted, rep.Result.Failed, rep.FailedShare, rep.TailPct, rep.Samples)
	fmt.Fprintf(w, "  alloc_bytes_per_row %.0f, peak_heap_mb %.1f, measured_s %.2f\n",
		rep.Diagnostics["alloc_bytes_per_row"], rep.Diagnostics["peak_heap_mb"], rep.Diagnostics["measured_s"])
}
