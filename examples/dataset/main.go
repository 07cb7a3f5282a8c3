// Dataset: the multi-file table layer. Training tables are fleets of
// immutable column-store files behind a manifest, not one file: ingest
// shards across member files, scans prune whole files from the manifest's
// zone maps before any I/O, deletes record rows in the manifest's
// per-member deletion bitmaps without touching a member file, and
// compaction folds deletion-heavy members into fresh files — the step
// that physically erases deleted rows — all with atomic manifest commits
// and snapshot-isolated scans. The finale
// publishes the directory over HTTP and scans it remotely through the
// range-read backend. Run with:
//
//	go run ./examples/dataset [dir]
//
// With no argument the dataset is built in a temporary directory and
// removed on exit; with a directory argument it is left in place (so CI
// can audit the output with `bullion fsck`).
package main

import (
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"os"
	"sync/atomic"

	"bullion"
)

func main() {
	var dir string
	if len(os.Args) > 1 {
		dir = os.Args[1]
	} else {
		tmp, err := os.MkdirTemp("", "bullion-dataset")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	schema, err := bullion.NewSchema(
		bullion.Field{Name: "uid", Type: bullion.Type{Kind: bullion.Int64}},
		bullion.Field{Name: "ctr", Type: bullion.Type{Kind: bullion.Float64}},
		bullion.Field{Name: "campaign", Type: bullion.Type{Kind: bullion.String}},
	)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Create the dataset and shard ingest across 4 member files: one
	//    pipelined writer per shard, one atomic manifest commit for all.
	ds, err := bullion.CreateDataset(dir, schema, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer ds.Close()

	// Batches route round-robin across the shards, so with one batch per
	// shard each member file holds one contiguous uid quarter — disjoint
	// zone maps, the shape file-level pruning exploits best. (Many small
	// batches would interleave ranges across shards and zone maps would
	// overlap.)
	const batchRows = 16384
	const nBatches = 4
	sw, err := ds.ShardedWriter(4)
	if err != nil {
		log.Fatal(err)
	}
	for b := 0; b < nBatches; b++ {
		uid := make(bullion.Int64Data, batchRows)
		ctr := make(bullion.Float64Data, batchRows)
		campaign := make(bullion.BytesData, batchRows)
		for i := range uid {
			uid[i] = int64(b*batchRows + i)
			ctr[i] = float64(i%100) / 100
			// Each shard serves its own campaign set, so the per-member
			// bloom filters are disjoint — string membership prunes files.
			campaign[i] = []byte(fmt.Sprintf("camp-%d-%d", b, i%8))
		}
		batch, err := bullion.NewBatch(schema, []bullion.ColumnData{uid, ctr, campaign})
		if err != nil {
			log.Fatal(err)
		}
		if err := sw.Write(batch); err != nil {
			log.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d rows into %d member files (generation %d)\n",
		ds.NumRows(), ds.NumFiles(), ds.Generation())

	// 2. A selective scan: the manifest's per-file uid zone maps prove
	//    most members can't match, so they are never even opened.
	lo := int64(60000)
	sc, err := ds.Scan(bullion.DatasetScanOptions{
		ScanOptions: bullion.ScanOptions{
			Columns: []string{"uid", "ctr"},
			Filters: []bullion.ColumnFilter{{Column: "uid", Min: &lo}},
		},
		FileConcurrency: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	rows := drain(sc)
	stats := sc.Stats()
	sc.Close()
	fmt.Printf("filtered scan (uid >= %d): %d rows, %d files pruned by manifest, %d scanned, %d reads\n",
		lo, rows, stats.FilesPruned, stats.FilesScanned, stats.ReadOps)

	// 2b. String membership: the manifest carries a bloom filter per
	//     member over its campaign values, so a ValueIn filter prunes the
	//     shards that never served the campaign — again without opening
	//     them. Surviving batches may still hold other campaigns (blooms
	//     are conservative); exact filtering stays with the caller.
	sc, err = ds.Scan(bullion.DatasetScanOptions{
		ScanOptions: bullion.ScanOptions{
			Columns: []string{"uid", "campaign"},
			Filters: []bullion.ColumnFilter{
				{Column: "campaign", ValueIn: [][]byte{[]byte("camp-2-5")}},
			},
		},
		FileConcurrency: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	rows = drain(sc)
	stats = sc.Stats()
	sc.Close()
	fmt.Printf("membership scan (campaign camp-2-5): %d rows, %d files pruned by bloom, %d scanned\n",
		rows, stats.FilesPruned, stats.FilesScanned)

	// 3. Delete the first quarter of the table: one manifest commit. Scans
	//    filter the rows immediately; the bytes stay on disk until
	//    compaction.
	del := make([]uint64, ds.NumRows()/4)
	for i := range del {
		del[i] = uint64(i)
	}
	if err := ds.Delete(del); err != nil {
		log.Fatal(err)
	}
	bytesBefore := ds.TotalBytes()
	fmt.Printf("deleted %d rows: %d live of %d, still %d bytes on disk\n",
		len(del), ds.NumLiveRows(), ds.NumRows(), bytesBefore)

	// 4. Compact members whose live-row ratio fell below 90%: each victim
	//    is rewritten without its deleted rows and the replacement set is
	//    committed as a new manifest generation. Old files remain for any
	//    in-flight scanner of the previous generation until Vacuum.
	cstats, err := ds.Compact(0.9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compacted %d files, dropped %d, reclaimed %d rows: %d -> %d bytes (generation %d)\n",
		cstats.FilesCompacted, cstats.FilesDropped, cstats.RowsReclaimed,
		cstats.BytesBefore, cstats.BytesAfter, ds.Generation())
	if rep, err := ds.Vacuum(); err == nil {
		fmt.Printf("vacuumed %d superseded files\n", len(rep.Removed))
	}

	// 5. The compacted dataset serves exactly the live rows.
	sc, err = ds.Scan(bullion.DatasetScanOptions{})
	if err != nil {
		log.Fatal(err)
	}
	rows = drain(sc)
	sc.Close()
	fmt.Printf("post-compaction scan: %d rows across %d files\n", rows, ds.NumFiles())

	// 6. Publish the directory over HTTP and scan it remotely: any plain
	//    HTTP server works (here an in-process one); OpenDataset on the
	//    URL reads the same manifest and members through range requests,
	//    wrapped in the retry/hedging policy automatically. Remote
	//    datasets are read-only — writes fail with ErrBackendReadOnly.
	lb, err := bullion.NewLocalBackend(dir)
	if err != nil {
		log.Fatal(err)
	}
	srv := httptest.NewServer(bullion.DatasetHTTPHandler(lb))
	defer srv.Close()
	remote, err := bullion.OpenDataset(srv.URL, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer remote.Close()
	sc, err = remote.Scan(bullion.DatasetScanOptions{})
	if err != nil {
		log.Fatal(err)
	}
	rows = drain(sc)
	rstats := sc.Stats()
	sc.Close()
	fmt.Printf("remote scan over %s: %d rows, %d reads, %d retries, %d hedges, %d degraded members\n",
		srv.URL, rows, rstats.ReadOps, rstats.Retries, rstats.Hedges, len(rstats.DegradedMembers))

	// 7. Scan it again from a fresh handle: member files are immutable,
	//    so the first scan's footers, open handles, and page bytes are
	//    still good in the process-wide artifact cache. The warm rescan
	//    never asks the server for member metadata (or, here, any member
	//    bytes at all) — on a real object store that is the difference
	//    between a scan of round-trips and a scan of decode.
	warm, err := bullion.OpenDataset(srv.URL, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer warm.Close()
	sc, err = warm.Scan(bullion.DatasetScanOptions{})
	if err != nil {
		log.Fatal(err)
	}
	rows = drain(sc)
	wstats := sc.Stats()
	sc.Close()
	fmt.Printf("warm rescan: %d rows; cache served %d footers, %d handles, %d page runs (%d footer misses)\n",
		rows, wstats.Cache.FooterHits, wstats.Cache.HandleHits, wstats.Cache.PageHits,
		wstats.Cache.FooterMisses)
	if wstats.Cache.FooterMisses != 0 {
		log.Fatalf("warm rescan re-parsed %d footers; expected all from cache", wstats.Cache.FooterMisses)
	}

	// 8. Time travel and the training loader. Tag today's generation,
	//    stream a shuffled epoch from the frozen snapshot, and keep
	//    training through whatever the pipeline does to the live table:
	//    the tag pins the generation's files across Append and Vacuum.
	if err := ds.Tag("train-v1", 0); err != nil {
		log.Fatal(err)
	}
	snap, err := bullion.OpenDatasetAt(dir, "train-v1", nil)
	if err != nil {
		log.Fatal(err)
	}
	defer snap.Close()

	ld, err := bullion.NewLoader(snap, bullion.LoaderOptions{
		Columns: []string{"uid", "ctr"}, Seed: 42, ShardRows: 4096,
	})
	if err != nil {
		log.Fatal(err)
	}
	var epochRows atomic.Int64
	err = ld.Feed(4, func(_ int, b *bullion.Batch) error { // 4 parallel consumers
		epochRows.Add(int64(b.NumRows()))
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	lstats := ld.Stats()
	ld.Close()
	fmt.Printf("epoch over tag train-v1: %d rows via %d shuffled shards, planned in %v (zero data reads)\n",
		epochRows.Load(), lstats.EpochShards, lstats.PlanTime)

	// The live table moves on: append fresh rows, vacuum. The tagged
	// generation's files are retained — the snapshot keeps serving.
	extra := make(bullion.Int64Data, 1000)
	ectr := make(bullion.Float64Data, 1000)
	ecmp := make(bullion.BytesData, 1000)
	for i := range extra {
		extra[i] = int64(900000 + i)
		ecmp[i] = []byte("camp-new")
	}
	nb, err := bullion.NewBatch(schema, []bullion.ColumnData{extra, ectr, ecmp})
	if err != nil {
		log.Fatal(err)
	}
	if err := ds.Append(nb); err != nil {
		log.Fatal(err)
	}
	vrep, err := ds.Vacuum()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("appended 1000 rows, vacuumed %d files; retained generations %v for the tag\n",
		len(vrep.Removed), vrep.RetainedGenerations)

	sc2, err := snap.Scan(bullion.DatasetScanOptions{})
	if err != nil {
		log.Fatal(err)
	}
	snapRows := drain(sc2)
	sc2.Close()
	fmt.Printf("snapshot still serves %d rows (live table now has %d)\n", snapRows, ds.NumLiveRows())
	if uint64(snapRows) == ds.NumLiveRows() {
		log.Fatal("snapshot should predate the append")
	}
}

func drain(sc *bullion.DatasetScanner) int {
	rows := 0
	for {
		batch, err := sc.Next()
		if err == io.EOF {
			return rows
		}
		if err != nil {
			log.Fatal(err)
		}
		rows += batch.NumRows()
	}
}
