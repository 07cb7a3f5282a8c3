// Widetable: the §2.3 scenario — a training job projects a handful of
// features out of thousands. Bullion's compact footer makes opening the
// file and locating columns independent of schema width. Run with:
//
//	go run ./examples/widetable
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"bullion"
)

func main() {
	dir, err := os.MkdirTemp("", "bullion-widetable")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "wide.bln")

	// 5,000 feature columns (a 1/4-scale Table 1 ads file), 64 rows each —
	// metadata, not data, is the subject here.
	const nCols = 5000
	const nRows = 64
	fields := make([]bullion.Field, nCols)
	cols := make([]bullion.ColumnData, nCols)
	vals := make(bullion.Int64Data, nRows)
	for r := range vals {
		vals[r] = int64(r * 3)
	}
	for i := 0; i < nCols; i++ {
		fields[i] = bullion.Field{
			Name: fmt.Sprintf("feat_%05d", i),
			Type: bullion.Type{Kind: bullion.Int64},
		}
		cols[i] = vals
	}
	schema, err := bullion.NewSchema(fields...)
	if err != nil {
		log.Fatal(err)
	}

	// A training job projects 10 features (0.2% of the schema). Reorder
	// them to the front at write time (§2.5) so their chunks are adjacent
	// in every row group and the scan below coalesces each group's hot
	// set into a single read.
	want := []string{
		"feat_00000", "feat_00500", "feat_01000", "feat_01500", "feat_02000",
		"feat_02500", "feat_03000", "feat_03500", "feat_04000", "feat_04999",
	}
	schema, perm, err := bullion.ReorderFields(schema, want)
	if err != nil {
		log.Fatal(err)
	}
	batch, err := bullion.NewBatch(schema, bullion.ReorderBatchColumns(cols, perm))
	if err != nil {
		log.Fatal(err)
	}
	// The ingest pipeline encodes the 5,000 column chunks as independent
	// tasks on a GOMAXPROCS worker pool (EncodeWorkers: 0); the file bytes
	// are identical at any worker count.
	opts := bullion.DefaultOptions()
	opts.EncodeWorkers = 0
	start := time.Now()
	w, err := bullion.Create(path, schema, opts)
	if err != nil {
		log.Fatal(err)
	}
	if err := w.Write(batch); err != nil {
		log.Fatal(err)
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	ingestTime := time.Since(start)
	st, _ := os.Stat(path)
	fmt.Printf("wrote %d columns x %d rows in %v (%d bytes, %.0f rows/sec)\n",
		nCols, nRows, ingestTime.Round(time.Millisecond), st.Size(),
		float64(nRows)/ingestTime.Seconds())

	start = time.Now()
	f, err := bullion.OpenPath(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	openTime := time.Since(start)

	// Stream the projection the way a training loader would: fixed-size
	// row batches, columns decoded in parallel, emitted in file order.
	// The hot columns are adjacent, so the planner fetches each group's
	// ten chunks in one ReadAt, and recycling each finished batch keeps
	// the steady-state loop allocation-free.
	start = time.Now()
	sc, err := f.Scan(bullion.ScanOptions{
		Columns:   want,
		BatchRows: 32, // tiny table; production loaders use the 4096 default
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sc.Close()
	rows, batches := 0, 0
	for {
		batch, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		rows += batch.NumRows()
		batches++
		sc.Recycle(batch) // done with this batch: recycle its storage
	}
	scanTime := time.Since(start)

	stats := sc.Stats()
	fmt.Printf("open (footer header only): %v\n", openTime)
	fmt.Printf("stream %d/%d columns:      %v (%d rows in %d batches)\n",
		len(want), nCols, scanTime, rows, batches)
	fmt.Printf("bytes decoded:             %d\n", stats.BytesRead)
	fmt.Printf("physical reads:            %d (%d coalesced bytes, %d wasted)\n",
		stats.ReadOps, stats.CoalescedBytes, stats.WastedBytes)
	fmt.Println("\ncompare: `go run ./cmd/experiments -exp fig5` measures this against")
	fmt.Println("a Parquet-style footer that must deserialize all 5,000 column structs")
}
