package enc

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
)

// TestFlateEncodeAllocs: ChunkedBytes takes its compressor from a pool,
// so past the selection of its lengths stream a warm 1,024-value encode
// allocates its concatenation and output and little else — not
// flate.NewWriter's ~1 MB of match-finder tables. Medians of several runs
// are compared, because the race detector drops a share of pooled objects
// on purpose.
func TestFlateEncodeAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	vs := genRepeatedBlobs(rand.New(rand.NewSource(71)), 1024)
	lens := make([]int64, len(vs))
	for i, v := range vs {
		lens[i] = int64(len(v))
	}
	opts := DefaultOptions()
	chunked := medianAllocs(t, func() error { _, err := EncodeBytesWith(nil, ChunkedB, vs, opts); return err })
	child := medianAllocs(t, func() error { _, err := encodeChildInts(nil, lens, opts, 1); return err })
	if chunked-child >= 64<<10 {
		t.Errorf("a 1,024-value ChunkedBytes encode allocates %d bytes past its lengths stream's %d, want < 64 KiB",
			chunked-child, child)
	}
}

// medianAllocs is the median of the bytes 21 warm runs of fn allocate.
func medianAllocs(t *testing.T, fn func() error) int64 {
	t.Helper()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	per := make([]int64, 21)
	for i := range per {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		per[i] = int64(after.TotalAlloc - before.TotalAlloc)
	}
	slices.Sort(per)
	return per[len(per)/2]
}

// TestFlatePoolsConcurrent: goroutines sharing the compressor and
// decompressor pools must each get exactly the bytes a lone encoder
// produces, and decode them back.
func TestFlatePoolsConcurrent(t *testing.T) {
	opts := DefaultOptions()
	type job struct {
		blobs [][]byte
		want  []byte
	}
	jobs := make([]*job, 8)
	for g := range jobs {
		rng := rand.New(rand.NewSource(int64(80 + g)))
		j := &job{blobs: genURLs(rng, 75+50*g)}
		var err error
		if j.want, err = EncodeBytesWith(nil, ChunkedB, j.blobs, opts); err != nil {
			t.Fatal(err)
		}
		jobs[g] = j
	}
	var wg sync.WaitGroup
	errs := make(chan string, len(jobs))
	for _, j := range jobs {
		wg.Add(1)
		go func(j *job) {
			defer wg.Done()
			for iter := 0; iter < 10; iter++ {
				got, err := EncodeBytesWith(nil, ChunkedB, j.blobs, opts)
				if err != nil {
					errs <- err.Error()
					return
				}
				if !bytes.Equal(got, j.want) {
					errs <- "concurrent encode differs from a lone one"
					return
				}
				blobs, err := DecodeBytes(got, len(j.blobs))
				if err != nil || !reflect.DeepEqual(blobs, j.blobs) {
					errs <- "ChunkedBytes round trip failed"
					return
				}
			}
		}(j)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
