package main

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json and the program
// name the same workloads and metrics, with the same units, directions
// and bounds.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, at most 200 allowed", w.name, len(w.why))
		}
	}
	compare := func(kind string, got []benchmarkMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s metric %s: bound differs from the program's %v", kind, d.name, d.bound)
			}
		}
	}
	compare("end_to_end", bf.EndToEnd, endToEnd, true)
	compare("per_layer", bf.PerLayer, perLayer, false)
}

func testConfig(t *testing.T, trace bool) config {
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	return config{seed: 7, seconds: 0.05, trace: trace, out: t.TempDir(), procs: procs, setups: 1}
}

func checkMetrics(t *testing.T, rep *report, defs []metricDef) {
	t.Helper()
	if rep.Result.Failed != 0 || !rep.Result.Correct || rep.Result.Attempted < 1 {
		t.Errorf("%s: attempted %d, failed %d, correct %v", rep.Workload,
			rep.Result.Attempted, rep.Result.Failed, rep.Result.Correct)
	}
	if len(rep.Result.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", rep.Workload, len(rep.Result.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := rep.Result.Metrics[d.name]
		if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: metric %s is %+v (present %v), want a number in %s", rep.Workload, d.name, v, ok, d.unit)
		}
	}
	if rep.Machine.GoVersion == "" || rep.Machine.Flush == "" || rep.Machine.GOMAXPROCS < 1 {
		t.Errorf("%s: incomplete machine fingerprint %+v", rep.Workload, rep.Machine)
	}
}

// TestEveryWorkloadTraced runs each workload briefly with spans on and
// checks that every per-layer metric comes out and that the parts of each
// traced op add up to the op.
func TestEveryWorkloadTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up every workload")
	}
	for _, w := range workloads {
		var traces []workloadTrace
		rep, err := runWorkload(w, testConfig(t, true), &traces)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkMetrics(t, rep, perLayer)
		if len(traces) != 1 || len(traces[0].Spans) == 0 {
			t.Fatalf("%s: no spans recorded", w.name)
		}
		spans := traces[0].Spans
		byOp := map[int32][]span{}
		for _, s := range spans {
			byOp[s.Op] = append(byOp[s.Op], s)
		}
		ops := 0
		for _, s := range spans {
			if s.Name != opSpan {
				continue
			}
			ops++
			parts := 0.0
			for _, ns := range attribute(s, byOp[s.ID]) {
				parts += ns
			}
			if dur := float64(s.End - s.Start); math.Abs(parts-dur) > 1e-6*dur+1 {
				t.Errorf("%s: op %d lasts %v ns but its parts add up to %v", w.name, s.ID, dur, parts)
			}
		}
		if ops == 0 {
			t.Errorf("%s: no op span", w.name)
		}
		total := 0.0
		for _, layer := range []string{"op", "dataset", "loader", "storage", "http"} {
			total += rep.Result.Metrics["self_share."+layer].Value
		}
		if math.Abs(total-1) > 1e-6 {
			t.Errorf("%s: layer self-time shares add up to %v", w.name, total)
		}
	}
}

// TestEndToEndMetrics runs the cheapest workload untraced.
func TestEndToEndMetrics(t *testing.T) {
	w, err := selectWorkloads("wide_project")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runWorkload(w[0], testConfig(t, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, rep, endToEnd)
	for _, d := range endToEnd {
		if rep.Result.Metrics[d.name].Value <= 0 {
			t.Errorf("end-to-end metric %s is %v; it must never be 0", d.name, rep.Result.Metrics[d.name].Value)
		}
	}
}

func TestSelfTimesSplitOverlaps(t *testing.T) {
	op := span{ID: 1, Op: 1, Name: opSpan, Level: 0, Start: 0, End: 100}
	group := []span{
		op,
		{ID: 2, Parent: 1, Op: 1, Name: "dataset.Next", Level: 1, Start: 10, End: 70},
		// Two reads overlap on [30,40) and share it; the second outlives
		// dataset.Next and the op, and is clipped to the op.
		{ID: 3, Parent: 2, Op: 1, Name: "storage.read", Level: levelStorage, Start: 20, End: 40},
		{ID: 4, Parent: 2, Op: 1, Name: "storage.read", Level: levelStorage, Start: 30, End: 120},
		{ID: 5, Parent: 2, Op: 1, Name: "http.request", Level: levelServer, Start: 90, End: 95},
	}
	got := attribute(op, group)
	want := map[string]float64{"op": 10, "dataset": 10, "storage": 75, "http": 5}
	for layer, ns := range want {
		if math.Abs(got[layer]-ns) > 1e-9 {
			t.Errorf("layer %s: %v ns, want %v (all: %v)", layer, got[layer], ns, got)
		}
	}
	byLayer, total := selfTimes(group)
	sum := 0.0
	for _, ns := range byLayer {
		sum += ns
	}
	if total != 100 || math.Abs(sum-100) > 1e-9 {
		t.Errorf("op total %v, parts %v; want 100 and 100", total, sum)
	}
}

func TestTail(t *testing.T) {
	var vs []float64
	for i := 1; i <= 100; i++ {
		vs = append(vs, float64(i))
	}
	if v, pct := tail(vs); v != 90 || pct != 90 {
		t.Errorf("tail of 1..100 is %v at p%v, want 90 at p90", v, pct)
	}
	if v, pct := tail(vs[:12]); v != 6.5 || pct != 50 {
		t.Errorf("tail of 12 samples is %v at p%v, want the median", v, pct)
	}
}

func TestDigestIsFNV64a(t *testing.T) {
	d := newDigest()
	h := fnv.New64a()
	for _, u := range []int64{0, 1, -5, 0x0102030405060708} {
		d.add(u)
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(u))
		h.Write(buf[:])
	}
	if d.chain != h.Sum64() || d.rows != 4 {
		t.Errorf("digest %x over %d rows, hash/fnv gives %x over 4", d.chain, d.rows, h.Sum64())
	}
}
