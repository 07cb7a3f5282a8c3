package bullion

// Remote-read benchmarks: a closed-loop scan over a fault backend whose
// reads suffer seeded tail-latency spikes — the object-storage pathology
// hedged requests exist to absorb. Each iteration is one full dataset
// scan; the benchmark reports the p50 and p99 per-scan latency, and the
// hedged/unhedged pair is the
// acceptance comparison: hedging must cut p99 by >=2x under spikes
// while leaving the spike-free baseline untouched.

import (
	"io"
	"sort"
	"testing"
	"time"

	"bullion/internal/dataset"
	"bullion/internal/storage"
)

const (
	remBenchFiles = 4
	remBenchRows  = 4096
	remBenchCols  = 4
	// remBenchSpike models an object-store tail: ~4% of reads stall for
	// 10ms (hundreds of times the clean read cost).
	remBenchSpikeRate = 0.04
	remBenchSpikeDur  = 10 * time.Millisecond
	// remBenchHedge is the fixed hedge trigger — far above a clean read,
	// far below a spike.
	remBenchHedge = 500 * time.Microsecond
)

// remBenchBackend builds the dataset once per call on a fresh fault
// backend (cheap: in-memory) so each variant draws its own seeded spike
// sequence.
func remBenchBackend(b *testing.B, spikes bool) *storage.Fault {
	b.Helper()
	fb := storage.NewFault("mem://remotebench")
	fields := make([]Field, remBenchCols)
	for c := range fields {
		fields[c] = Field{Name: []string{"key", "f1", "f2", "f3"}[c], Type: Type{Kind: Int64}}
	}
	schema, err := NewSchema(fields...)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := dataset.Create("remotebench", schema, &dataset.Options{Backend: fb})
	if err != nil {
		b.Fatal(err)
	}
	for f := 0; f < remBenchFiles; f++ {
		cols := make([]ColumnData, remBenchCols)
		for c := range cols {
			vals := make(Int64Data, remBenchRows)
			for r := range vals {
				vals[r] = int64(f*remBenchRows + r + c)
			}
			cols[c] = vals
		}
		batch, err := NewBatch(schema, cols)
		if err != nil {
			b.Fatal(err)
		}
		if err := ds.Append(batch); err != nil {
			b.Fatal(err)
		}
	}
	ds.Close()
	if spikes {
		fb.SetNetFaults(&storage.NetFaults{
			Seed:      4177,
			SpikeRate: remBenchSpikeRate,
			SpikeDur:  remBenchSpikeDur,
		})
	}
	return fb
}

// benchRemoteScan runs one full scan per iteration and reports tail
// latency percentiles across iterations (p99 needs -benchtime 100x or
// more to be meaningful).
func benchRemoteScan(b *testing.B, spikes, hedged bool) {
	fb := remBenchBackend(b, spikes)
	hedge := remBenchHedge
	if !hedged {
		hedge = storage.DisableHedging
	}
	rb := storage.NewResilient(fb, &storage.ResilienceOptions{
		HedgeDelay: hedge,
	})
	d, err := dataset.Open("remotebench", &dataset.Options{Backend: rb})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	var opts dataset.ScanOptions
	opts.BatchRows = remBenchRows
	opts.ReuseBatches = true
	opts.FileConcurrency = 1 // serial: per-read latency is the axis under test

	// Warm member handles (footer opens) outside the timed region.
	warm, err := d.Scan(opts)
	if err != nil {
		b.Fatal(err)
	}
	warm.Close()

	wantRows := remBenchFiles * remBenchRows
	lats := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		sc, err := d.Scan(opts)
		if err != nil {
			b.Fatal(err)
		}
		rows := 0
		for {
			batch, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			rows += batch.NumRows()
			sc.Recycle(batch)
		}
		sc.Close()
		if rows != wantRows {
			b.Fatalf("scanned %d rows, want %d", rows, wantRows)
		}
		lats = append(lats, time.Since(start))
	}
	b.StopTimer()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) float64 {
		idx := int(p * float64(len(lats)-1))
		return float64(lats[idx].Nanoseconds())
	}
	b.ReportMetric(pct(0.50), "p50-ns")
	b.ReportMetric(pct(0.99), "p99-ns")
	st := rb.ResilienceStats()
	b.ReportMetric(float64(st.Hedges)/float64(b.N), "hedges/op")
	b.ReportMetric(float64(st.HedgeWins)/float64(b.N), "hedgewins/op")
}

// Scan-level pair: whole-scan wall clock with spikes, hedging off vs
// on. On a noisy shared machine whole-scan percentiles blur; the
// read-level pair below is the acceptance measurement.
func BenchmarkRemoteScanSpikesUnhedged(b *testing.B) { benchRemoteScan(b, true, false) }
func BenchmarkRemoteScanSpikesHedged(b *testing.B)   { benchRemoteScan(b, true, true) }

// Spike-free controls: hedging must cost nothing when the tail is clean
// (the 500µs trigger should rarely fire).
func BenchmarkRemoteScanCleanUnhedged(b *testing.B) { benchRemoteScan(b, false, false) }
func BenchmarkRemoteScanCleanHedged(b *testing.B)   { benchRemoteScan(b, false, true) }

// benchRemoteRead is the closed-loop per-read benchmark: one 64 KiB
// range read per iteration against a spiking backend. The injected
// 20ms spikes put the unhedged p99 at the spike duration; hedging must
// cut it by >=2x (the hedge leg redraws the spike lottery after 1ms).
func benchRemoteRead(b *testing.B, hedged bool) {
	const (
		blobSize = 1 << 20
		readSize = 64 << 10
	)
	data := make([]byte, blobSize)
	for i := range data {
		data[i] = byte(i * 131)
	}
	fb := storage.NewFaultFromState("mem://remoteread", map[string][]byte{"blob": data})
	fb.SetNetFaults(&storage.NetFaults{
		Seed:      4177,
		SpikeRate: 0.05,
		SpikeDur:  50 * time.Millisecond,
	})
	hedge := time.Millisecond
	if !hedged {
		hedge = storage.DisableHedging
	}
	rb := storage.NewResilient(fb, &storage.ResilienceOptions{HedgeDelay: hedge})
	f, _, err := rb.ReadAt("blob")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	p := make([]byte, readSize)
	lats := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i*readSize) % (blobSize - readSize)
		start := time.Now()
		if _, err := f.ReadAt(p, off); err != nil {
			b.Fatal(err)
		}
		lats = append(lats, time.Since(start))
	}
	b.StopTimer()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) float64 {
		idx := int(p * float64(len(lats)-1))
		return float64(lats[idx].Nanoseconds())
	}
	b.ReportMetric(pct(0.50), "p50-ns")
	b.ReportMetric(pct(0.99), "p99-ns")
	st := rb.ResilienceStats()
	b.ReportMetric(float64(st.Hedges)/float64(b.N), "hedges/op")
	b.ReportMetric(float64(st.HedgeWins)/float64(b.N), "hedgewins/op")
}

// The acceptance pair: hedging must show the >=2x p99 gap.
func BenchmarkRemoteReadSpikesUnhedged(b *testing.B) { benchRemoteRead(b, false) }
func BenchmarkRemoteReadSpikesHedged(b *testing.B)   { benchRemoteRead(b, true) }
