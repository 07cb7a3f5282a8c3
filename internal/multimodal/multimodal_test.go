package multimodal

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"bullion/internal/core"
	"bullion/internal/iostats"
)

type memFile struct{ data []byte }

func (m *memFile) Write(p []byte) (int, error) {
	m.data = append(m.data, p...)
	return len(p), nil
}

func (m *memFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// buildDataset writes n samples (seed 5) and opens both tables; meta reads
// go through counters.
func buildDataset(t *testing.T, n int, presort bool) (meta *core.File, counters *iostats.Counters, media *core.File) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	samples := GenerateSamples(rng, n)
	metaOut := &memFile{}
	mediaOut := &memFile{}
	if err := WriteDataset(metaOut, mediaOut, samples, presort); err != nil {
		t.Fatal(err)
	}
	counters = &iostats.Counters{}
	counters.Reset()
	meta, err := core.Open(&iostats.ReaderAt{R: metaOut, C: counters}, int64(len(metaOut.data)))
	if err != nil {
		t.Fatal(err)
	}
	media, err = core.Open(mediaOut, int64(len(mediaOut.data)))
	if err != nil {
		t.Fatal(err)
	}
	return meta, counters, media
}

func TestDatasetRoundTrip(t *testing.T) {
	metaFile, _, media := buildDataset(t, 500, false)
	if metaFile.NumRows() != 500 {
		t.Fatalf("meta rows = %d", metaFile.NumRows())
	}
	if media.NumRows() != 500 {
		t.Fatalf("media rows = %d", media.NumRows())
	}
	ids, err := metaFile.ReadColumn("id")
	if err != nil {
		t.Fatal(err)
	}
	idd := ids.(core.Int64Data)
	seen := map[int64]bool{}
	for _, id := range idd {
		seen[id] = true
	}
	if len(seen) != 500 {
		t.Fatalf("distinct ids = %d", len(seen))
	}
	frames, err := metaFile.ReadColumn("frames")
	if err != nil {
		t.Fatal(err)
	}
	fd := frames.(core.ListBytesData)
	if len(fd[0]) != 3 || len(fd[0][0]) != 256 {
		t.Fatalf("frame highlights wrong shape: %d x %d", len(fd[0]), len(fd[0][0]))
	}
}

func TestPresortOrdersQualityDescending(t *testing.T) {
	metaFile, _, _ := buildDataset(t, 2000, true)
	q, err := metaFile.ReadColumn("quality")
	if err != nil {
		t.Fatal(err)
	}
	qd := q.(core.Float64Data)
	// Presorting is per row group (4096 rows > 2000, so globally here).
	for i := 1; i < len(qd); i++ {
		if qd[i] > qd[i-1] {
			t.Fatalf("quality not descending at %d", i)
		}
	}
}

func TestTrainingReadEquivalence(t *testing.T) {
	// Presorted and unsorted reads must select the same samples — across
	// MULTIPLE row groups (presorting is per group, so the qualifying rows
	// are one prefix per group, not one global prefix).
	const n = 9000 // > 2 groups at GroupRows=4096
	const threshold = 0.5
	sortedFile, _, media := buildDataset(t, n, true)
	unsortedFile, _, _ := buildDataset(t, n, false)
	if groups := len(sortedFile.GroupRowCounts()); groups <= 2 {
		t.Fatalf("%d row groups, want more than 2", groups)
	}
	want := 0
	for _, s := range GenerateSamples(rand.New(rand.NewSource(5)), n) {
		if s.Quality >= threshold {
			want++
		}
	}

	sortedStats, err := TrainingRead(sortedFile, media, threshold, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	unsortedStats, err := TrainingRead(unsortedFile, media, threshold, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if sortedStats.SamplesRead != want || unsortedStats.SamplesRead != want {
		t.Fatalf("selected %d (sorted) and %d (unsorted), want %d", sortedStats.SamplesRead, unsortedStats.SamplesRead, want)
	}
	if want == 0 {
		t.Fatal("threshold selected nothing; test is vacuous")
	}
}

// The §2.5 claim: quality-aware presorting turns filtered reads into
// contiguous I/O — fewer bytes, fewer read ops and fewer seeks than the
// unsorted layout.
func TestQualityAwareReadAdvantage(t *testing.T) {
	const n = 5000
	const threshold = 0.7 // selects ~16% of samples (quality = U^2)
	sortedFile, sc, _ := buildDataset(t, n, true)
	unsortedFile, uc, _ := buildDataset(t, n, false)

	read := func(f *core.File, c *iostats.Counters) (core.ScanStats, int64) {
		t.Helper()
		before := c.Snapshot()
		st, err := TrainingRead(f, nil, threshold, 0)
		if err != nil {
			t.Fatal(err)
		}
		return st.Scan, c.Snapshot().Sub(before).Seeks
	}
	s, sSeeks := read(sortedFile, sc)
	u, uSeeks := read(unsortedFile, uc)
	ratio := float64(u.BytesRead) / float64(s.BytesRead)
	t.Logf("fig7: presorted %d bytes / %d ops / %d seeks vs unsorted %d bytes / %d ops / %d seeks (%.1fx fewer bytes)",
		s.BytesRead, s.ReadOps, sSeeks, u.BytesRead, u.ReadOps, uSeeks, ratio)
	if ratio < 1.5 {
		t.Fatalf("presorting advantage only %.2fx", ratio)
	}
	if s.ReadOps >= u.ReadOps {
		t.Fatalf("presorted issued %d read ops, unsorted %d", s.ReadOps, u.ReadOps)
	}
	if sSeeks >= uSeeks {
		t.Fatalf("presorted made %d seeks, unsorted %d", sSeeks, uSeeks)
	}
	if s.PagesSkipped <= u.PagesSkipped {
		t.Fatalf("presorted skipped %d pages, unsorted %d", s.PagesSkipped, u.PagesSkipped)
	}
}

func TestMediaLookupPath(t *testing.T) {
	metaFile, _, media := buildDataset(t, 1000, true)
	stats, err := TrainingRead(metaFile, media, 0.3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Videos) == 0 {
		t.Fatal("no media lookups despite fullVideoRate > 0")
	}
	for id, v := range stats.Videos {
		if len(v) == 0 {
			t.Fatalf("media lookup for sample %d read no bytes", id)
		}
	}
	// The rare path must stay rare: lookups well below selected samples.
	if len(stats.Videos)*5 > stats.SamplesRead {
		t.Fatalf("media lookups %d too frequent for %d samples", len(stats.Videos), stats.SamplesRead)
	}
}

// A presorted meta table no longer matches media row order: every lookup
// must follow the selected row's video_row, not its meta row index.
func TestMediaLookupFollowsVideoRow(t *testing.T) {
	metaFile, _, media := buildDataset(t, 9000, true)
	if groups := len(metaFile.GroupRowCounts()); groups < 2 {
		t.Fatalf("%d row groups, want several", groups)
	}
	stats, err := TrainingRead(metaFile, media, 0.3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Videos) == 0 {
		t.Fatal("no media lookups; test is vacuous")
	}
	for id, v := range stats.Videos {
		if want := (&Sample{ID: id}).videoPayload(); !bytes.Equal(v, want) {
			t.Fatalf("sample %d: fetched a %d-byte video, want its own %d-byte video", id, len(v), len(want))
		}
	}
}

func TestGenerateSamplesShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := GenerateSamples(rng, 100)
	if len(samples) != 100 {
		t.Fatalf("generated %d", len(samples))
	}
	lowQ := 0
	for i, s := range samples {
		if s.ID != int64(i) {
			t.Fatalf("sample %d has id %d", i, s.ID)
		}
		if s.Quality < 0 || s.Quality > 1 {
			t.Fatalf("quality %v out of range", s.Quality)
		}
		if s.Quality < 0.25 {
			lowQ++
		}
		if len(s.Frames) != 3 {
			t.Fatalf("sample %d has %d frames", i, len(s.Frames))
		}
	}
	// The U^2 skew: at least half the samples below 0.25.
	if lowQ < 40 {
		t.Fatalf("quality distribution not skewed low: %d/100 below 0.25", lowQ)
	}
}
