// Multimodal: quality-aware organization of LLM training data (§2.5,
// Figure 7). The meta table inlines frame highlights and is presorted by
// quality score, so a thresholded training read touches one contiguous
// prefix of pages per row group instead of scattering reads across the
// file. Run with:
//
//	go run ./examples/multimodal
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"bullion"
)

// rowsPerPage is the tables' page size; the scan reads one page per batch
// so that the quality zone maps prune page by page.
const rowsPerPage = 256

func main() {
	dir, err := os.MkdirTemp("", "bullion-multimodal")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// The meta table of Figure 7: text hash, tags, captions, audio
	// snippet, quality score, highlight frame indexes, the inlined
	// reduced-resolution frames, and a reference row into the (external)
	// full-size video table.
	schema, err := bullion.NewSchema(
		bullion.Field{Name: "text_hash", Type: bullion.Type{Kind: bullion.Int64}},
		bullion.Field{Name: "tags", Type: bullion.Type{Kind: bullion.Binary}},
		bullion.Field{Name: "caption", Type: bullion.Type{Kind: bullion.Binary}},
		bullion.Field{Name: "audio", Type: bullion.Type{Kind: bullion.Binary}},
		bullion.Field{Name: "quality", Type: bullion.Type{Kind: bullion.Float64}},
		bullion.Field{Name: "frame_idx",
			Type: bullion.Type{Kind: bullion.List, Elem: bullion.Int64}},
		bullion.Field{Name: "frames",
			Type: bullion.Type{Kind: bullion.List, Elem: bullion.Binary}},
		bullion.Field{Name: "video_row", Type: bullion.Type{Kind: bullion.Int64}},
	)
	if err != nil {
		log.Fatal(err)
	}

	const n = 30000
	rng := rand.New(rand.NewSource(3))
	textHash := make(bullion.Int64Data, n)
	tags := make(bullion.BytesData, n)
	caption := make(bullion.BytesData, n)
	audio := make(bullion.BytesData, n)
	quality := make(bullion.Float64Data, n)
	frameIdx := make(bullion.ListInt64Data, n)
	frames := make(bullion.ListBytesData, n)
	videoRow := make(bullion.Int64Data, n)
	for i := 0; i < n; i++ {
		textHash[i] = rng.Int63()
		tags[i] = []byte("web,video")
		caption[i] = []byte(fmt.Sprintf("auto caption %d", i))
		a := make([]byte, 64)
		rng.Read(a)
		audio[i] = a
		q := rng.Float64()
		quality[i] = q * q // most crawled content is low quality
		frameIdx[i] = []int64{0, 3, 6}
		fr := make([][]byte, 3)
		for k := range fr {
			b := make([]byte, 128)
			rng.Read(b)
			fr[k] = b
		}
		frames[i] = fr
		videoRow[i] = int64(i)
	}
	batch, err := bullion.NewBatch(schema, []bullion.ColumnData{
		textHash, tags, caption, audio, quality, frameIdx, frames, videoRow,
	})
	if err != nil {
		log.Fatal(err)
	}

	write := func(name string, presort bool) string {
		path := filepath.Join(dir, name)
		opts := bullion.DefaultOptions()
		opts.RowsPerPage = rowsPerPage
		if presort {
			opts.QualityColumn = "quality" // §2.5 quality-aware presorting
		}
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
		return path
	}
	sortedPath := write("meta_sorted.bln", true)
	unsortedPath := write("meta_unsorted.bln", false)

	// A curation-filtered epoch: train on samples with quality >= 0.6.
	// Both layouts are read by the same filtered scan. The float zone maps
	// skip every page that holds no qualifying sample before any I/O, and
	// the rows a surviving page holds below the threshold are dropped here.
	threshold := 0.6
	read := func(path string) (selected int, stats bullion.ScanStats) {
		f, err := bullion.OpenPath(path)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		sc, err := f.Scan(bullion.ScanOptions{
			Columns:   []string{"quality", "caption", "frames", "audio", "video_row"},
			BatchRows: rowsPerPage,
			Filters:   []bullion.ColumnFilter{{Column: "quality", FloatMin: &threshold}},
		})
		if err != nil {
			log.Fatal(err)
		}
		defer sc.Close()
		for {
			b, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				log.Fatal(err)
			}
			for _, q := range b.Columns[0].(bullion.Float64Data) {
				if q >= threshold {
					selected++
				}
			}
		}
		return selected, sc.Stats()
	}
	for _, layout := range []struct{ name, path string }{
		{"presorted", sortedPath},
		{"unsorted", unsortedPath},
	} {
		selected, st := read(layout.path)
		fmt.Printf("%-9s layout: %d/%d samples qualify; %d pages skipped, %d decoded, %d bytes read\n",
			layout.name, selected, n, st.PagesSkipped, st.PagesDecoded, st.BytesRead)
	}
	fmt.Println("see `go run ./cmd/experiments -exp fig7` for the measured I/O gap")
}
