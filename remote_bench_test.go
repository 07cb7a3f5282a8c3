package bullion

// Remote-read benchmarks against a fault backend whose reads suffer
// seeded tail-latency spikes — the object-storage pathology hedged
// requests exist to absorb. ci.yml's bench smoke runs all four; each
// b.Fatals on a failed read or a short scan and reports p50/p99 latency
// plus hedges per op (p99 needs -benchtime 100x or more to mean much):
//
//   - BenchmarkRemoteReadSpikes{Unhedged,Hedged}: one 64 KiB range read
//     per iteration — the acceptance pair, where hedging must show the
//     >=2x p99 gap.
//   - BenchmarkRemoteScanSpikes{Unhedged,Hedged}: one full dataset scan
//     per iteration; on a noisy shared machine whole-scan percentiles
//     blur.

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
	// remBenchSpike models an object-store tail: ~4% of reads stall for
	// 10ms (hundreds of times the clean read cost).
	remBenchSpikeRate = 0.04
	remBenchSpikeDur  = 10 * time.Millisecond
	// remBenchHedge is the fixed hedge trigger — far above a clean read,
	// far below a spike.
	remBenchHedge = 500 * time.Microsecond
)

// reportLatencies reports the p50 and p99 of lats and rb's hedging work
// per op.
func reportLatencies(b *testing.B, lats []time.Duration, rb *storage.Resilient) {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) float64 {
		return float64(lats[int(p*float64(len(lats)-1))].Nanoseconds())
	}
	b.ReportMetric(pct(0.50), "p50-ns")
	b.ReportMetric(pct(0.99), "p99-ns")
	st := rb.ResilienceStats()
	b.ReportMetric(float64(st.Hedges)/float64(b.N), "hedges/op")
	b.ReportMetric(float64(st.HedgeWins)/float64(b.N), "hedgewins/op")
}

// benchRemoteScan builds the dataset on a fresh in-memory fault backend,
// so each variant draws its own seeded spike sequence, then runs one full
// scan per iteration.
func benchRemoteScan(b *testing.B, hedged bool) {
	fb := storage.NewFault("mem://remotebench")
	if err := writeBenchDataset("remotebench", fb, Level1, remBenchFiles, remBenchRows, 4, rowPlusCol); err != nil {
		b.Fatal(err)
	}
	fb.SetNetFaults(&storage.NetFaults{
		Seed:      4177,
		SpikeRate: remBenchSpikeRate,
		SpikeDur:  remBenchSpikeDur,
	})
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
	reportLatencies(b, lats, rb)
}

func BenchmarkRemoteScanSpikesUnhedged(b *testing.B) { benchRemoteScan(b, false) }
func BenchmarkRemoteScanSpikesHedged(b *testing.B)   { benchRemoteScan(b, true) }

// benchRemoteRead is the closed-loop per-read benchmark: one 64 KiB
// range read per iteration against a backend where 5% of reads stall for
// 50ms. The unhedged p99 sits at the spike duration; the hedge leg
// redraws the spike lottery after 1ms.
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
	reportLatencies(b, lats, rb)
}

func BenchmarkRemoteReadSpikesUnhedged(b *testing.B) { benchRemoteRead(b, false) }
func BenchmarkRemoteReadSpikesHedged(b *testing.B)   { benchRemoteRead(b, true) }
