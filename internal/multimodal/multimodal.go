// Package multimodal implements Bullion's hybrid storage layout for LLM
// training data (paper §2.5, Figure 7): a columnar *meta table* holding
// text, tags, captions, audio snippets, quality scores, and inlined
// reduced-resolution frame highlights, next to a *media table* holding
// full-size video, referenced by row and touched "only in rare cases".
// Both tables are Bullion files; the media table's 8-row pages keep one
// video fetch to one small page read.
//
// The meta table is written with quality-score presorting (descending), so
// a quality-thresholded training read — the common filter in curation
// pipelines — touches one contiguous prefix of pages per row group: the
// scan's float zone maps prune every page below the threshold before any
// I/O, the same filtered scan serving presorted and unsorted tables alike.
package multimodal

import (
	"fmt"
	"io"
	"math/rand"

	"bullion/internal/core"
)

// Page sizes of the two tables. TrainingRead scans the meta table in
// batches of exactly one page, so zone-map pruning works page by page.
const (
	metaRowsPerPage  = 128
	mediaRowsPerPage = 8
)

// Sample is one multimodal training example before storage.
type Sample struct {
	ID           int64
	TextHash     int64
	Tags         []byte
	Caption      []byte
	AudioSnippet []byte   // short audio excerpt, stored inline
	Quality      float64  // curation quality score in [0,1]
	FrameIdx     []int64  // highlight frame indexes, e.g. [0, 3, 6]
	Frames       [][]byte // reduced-resolution highlight frames, inline
	VideoRow     int64    // row in the media table for full-size lookup
}

// MetaSchema returns the Bullion schema of the meta table.
func MetaSchema() (*core.Schema, error) {
	return core.NewSchema(
		core.Field{Name: "id", Type: core.Type{Kind: core.Int64}},
		core.Field{Name: "text_hash", Type: core.Type{Kind: core.Int64}},
		core.Field{Name: "tags", Type: core.Type{Kind: core.Binary}},
		core.Field{Name: "caption", Type: core.Type{Kind: core.Binary}},
		core.Field{Name: "audio", Type: core.Type{Kind: core.Binary}},
		core.Field{Name: "quality", Type: core.Type{Kind: core.Float64}},
		core.Field{Name: "frame_idx", Type: core.Type{Kind: core.List, Elem: core.Int64}},
		core.Field{Name: "frames", Type: core.Type{Kind: core.List, Elem: core.Binary}},
		core.Field{Name: "video_row", Type: core.Type{Kind: core.Int64}},
	)
}

// MediaSchema returns the Bullion schema of the media table.
func MediaSchema() (*core.Schema, error) {
	return core.NewSchema(
		core.Field{Name: "id", Type: core.Type{Kind: core.Int64}},
		core.Field{Name: "video", Type: core.Type{Kind: core.Binary}},
	)
}

// WriteDataset writes samples into a meta table (metaOut) and media table
// (mediaOut). presort enables quality-aware row organization. Sample i's
// video is media row i, which WriteDataset records in samples[i].VideoRow.
func WriteDataset(metaOut, mediaOut io.Writer, samples []Sample, presort bool) error {
	n := len(samples)
	mediaID := make(core.Int64Data, n)
	video := make(core.BytesData, n)
	for i := range samples {
		mediaID[i] = samples[i].ID
		video[i] = samples[i].videoPayload()
		samples[i].VideoRow = int64(i)
	}
	mediaSchema, err := MediaSchema()
	if err != nil {
		return err
	}
	mediaOpts := core.DefaultOptions()
	mediaOpts.RowsPerPage = mediaRowsPerPage
	if err := writeTable(mediaOut, mediaSchema, mediaOpts, mediaID, video); err != nil {
		return err
	}

	schema, err := MetaSchema()
	if err != nil {
		return err
	}
	opts := core.DefaultOptions()
	opts.RowsPerPage = metaRowsPerPage
	opts.GroupRows = 4096
	if presort {
		opts.QualityColumn = "quality"
	}
	id := make(core.Int64Data, n)
	textHash := make(core.Int64Data, n)
	tags := make(core.BytesData, n)
	caption := make(core.BytesData, n)
	audio := make(core.BytesData, n)
	quality := make(core.Float64Data, n)
	frameIdx := make(core.ListInt64Data, n)
	frames := make(core.ListBytesData, n)
	videoRow := make(core.Int64Data, n)
	for i, s := range samples {
		id[i] = s.ID
		textHash[i] = s.TextHash
		tags[i] = s.Tags
		caption[i] = s.Caption
		audio[i] = s.AudioSnippet
		quality[i] = s.Quality
		frameIdx[i] = s.FrameIdx
		frames[i] = s.Frames
		videoRow[i] = s.VideoRow
	}
	return writeTable(metaOut, schema, opts,
		id, textHash, tags, caption, audio, quality, frameIdx, frames, videoRow)
}

// writeTable writes cols as one Bullion file.
func writeTable(out io.Writer, schema *core.Schema, opts *core.Options, cols ...core.ColumnData) error {
	batch, err := core.NewBatch(schema, cols)
	if err != nil {
		return err
	}
	w, err := core.NewWriter(out, schema, opts)
	if err != nil {
		return err
	}
	if err := w.Write(batch); err != nil {
		return err
	}
	return w.Close()
}

// videoPayload synthesizes the full-size video blob for a sample (a
// deterministic pseudo-random payload sized like a short clip).
func (s *Sample) videoPayload() []byte {
	rng := rand.New(rand.NewSource(s.ID))
	b := make([]byte, 4096+rng.Intn(4096))
	rng.Read(b)
	return b
}

// GenerateSamples synthesizes n multimodal samples with Beta-ish skewed
// quality scores (most content is low quality, as curation pipelines see).
func GenerateSamples(rng *rand.Rand, n int) []Sample {
	samples := make([]Sample, n)
	for i := range samples {
		q := rng.Float64()
		q = q * q // skew toward low quality
		frames := make([][]byte, 3)
		for f := range frames {
			fr := make([]byte, 256)
			rng.Read(fr)
			frames[f] = fr
		}
		audio := make([]byte, 128)
		rng.Read(audio)
		samples[i] = Sample{
			ID:           int64(i),
			TextHash:     rng.Int63(),
			Tags:         []byte(fmt.Sprintf("tag%d,tag%d", rng.Intn(20), rng.Intn(20))),
			Caption:      []byte(fmt.Sprintf("auto caption for sample %d", i)),
			AudioSnippet: audio,
			Quality:      q,
			FrameIdx:     []int64{0, 3, 6},
			Frames:       frames,
		}
	}
	return samples
}

// TrainingStats reports one filtered training read.
type TrainingStats struct {
	SamplesRead int
	// Scan is the meta-table scan's own counters: bytes, read ops and the
	// pages its quality filter skipped.
	Scan core.ScanStats
	// Videos holds the full-size videos fetched from the media table (the
	// rare path), keyed by sample id.
	Videos map[int64][]byte
}

// TrainingRead performs a quality-thresholded epoch read against the meta
// table: one filtered scan selects every sample with quality >= threshold
// and fetches its caption, frames and audio; a fraction fullVideoRate of
// the selected samples additionally fetches its full-size video from the
// media table at the sample's video_row. media may be nil when
// fullVideoRate is 0.
//
// The scan reads one page per batch, and the quality filter skips every
// page whose zone map lies below the threshold. On a presorted table the
// surviving pages are one prefix per row group; on an unsorted one nearly
// every page survives. Either way the rows a surviving page holds below
// the threshold are dropped here.
func TrainingRead(meta, media *core.File, threshold, fullVideoRate float64) (TrainingStats, error) {
	stats := TrainingStats{Videos: map[int64][]byte{}}
	var videoCol int
	if fullVideoRate > 0 {
		var ok bool
		if videoCol, ok = media.LookupColumn("video"); !ok {
			return stats, fmt.Errorf("multimodal: media table has no video column")
		}
	}
	sc, err := meta.Scan(core.ScanOptions{
		Columns:   []string{"quality", "caption", "frames", "audio", "id", "video_row"},
		BatchRows: metaRowsPerPage,
		Filters:   []core.ColumnFilter{{Column: "quality", FloatMin: &threshold}},
		// One worker issues the reads in file order, so the I/O pattern a
		// wrapping reader observes is the same on every run.
		Workers: 1,
	})
	if err != nil {
		return stats, err
	}
	defer sc.Close()

	rng := rand.New(rand.NewSource(99))
	for {
		b, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return stats, err
		}
		quality := b.Columns[0].(core.Float64Data)
		ids := b.Columns[4].(core.Int64Data)
		videoRows := b.Columns[5].(core.Int64Data)
		for r, q := range quality {
			if q < threshold {
				continue
			}
			stats.SamplesRead++
			if fullVideoRate <= 0 || rng.Float64() >= fullVideoRate {
				continue
			}
			vr := uint64(videoRows[r])
			v, err := media.ReadRows(videoCol, vr, vr+1)
			if err != nil {
				return stats, err
			}
			stats.Videos[ids[r]] = v.(core.BytesData)[0]
		}
	}
	stats.Scan = sc.Stats()
	return stats, nil
}
