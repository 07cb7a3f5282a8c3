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

// TestFlateEncodeAllocs: BitShuffle and Chunked take their compressor from
// a pool, so a warm 1,024-value encode allocates the output and little
// else — not flate.NewWriter's ~1 MB of match-finder tables. The median of
// several runs is compared, because the race detector drops a share of
// pooled objects on purpose.
func TestFlateEncodeAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	vs := genSmallNonNeg(rand.New(rand.NewSource(71)), 1024)
	opts := DefaultOptions()
	for _, id := range []SchemeID{BitShuffle, Chunked} {
		if _, err := EncodeIntsWith(nil, id, vs, opts); err != nil {
			t.Fatal(err)
		}
		per := make([]uint64, 21)
		for i := range per {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := EncodeIntsWith(nil, id, vs, opts); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			per[i] = after.TotalAlloc - before.TotalAlloc
		}
		slices.Sort(per)
		if median := per[len(per)/2]; median >= 64<<10 {
			t.Errorf("%v: a 1,024-value encode allocates %d bytes, want < 64 KiB", id, median)
		}
	}
}

// TestFlatePoolsConcurrent: goroutines sharing the compressor and
// decompressor pools must each get exactly the bytes a lone encoder
// produces, and decode them back.
func TestFlatePoolsConcurrent(t *testing.T) {
	opts := DefaultOptions()
	type job struct {
		ints   []int64
		floats []float64
		blobs  [][]byte
		want   [][]byte // BitShuffle, Chunked, ChunkedF, ChunkedB
	}
	encodeAll := func(j *job) ([][]byte, error) {
		var out [][]byte
		for _, id := range []SchemeID{BitShuffle, Chunked} {
			b, err := EncodeIntsWith(nil, id, j.ints, opts)
			if err != nil {
				return nil, err
			}
			out = append(out, b)
		}
		b, err := EncodeFloatsWith(nil, ChunkedF, j.floats, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
		if b, err = EncodeBytesWith(nil, ChunkedB, j.blobs, opts); err != nil {
			return nil, err
		}
		return append(out, b), nil
	}
	jobs := make([]*job, 8)
	for g := range jobs {
		rng := rand.New(rand.NewSource(int64(80 + g)))
		n := 300 + 200*g
		j := &job{ints: genSmallNonNeg(rng, n), floats: genTimeSeries(rng, n), blobs: genURLs(rng, n/4)}
		var err error
		if j.want, err = encodeAll(j); err != nil {
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
				got, err := encodeAll(j)
				if err != nil {
					errs <- err.Error()
					return
				}
				for k := range got {
					if !bytes.Equal(got[k], j.want[k]) {
						errs <- "concurrent encode differs from a lone one"
						return
					}
				}
				ints, err := DecodeInts(got[0], len(j.ints))
				if err != nil || !reflect.DeepEqual(ints, j.ints) {
					errs <- "BitShuffle round trip failed"
					return
				}
				if ints, err = DecodeInts(got[1], len(j.ints)); err != nil || !reflect.DeepEqual(ints, j.ints) {
					errs <- "Chunked round trip failed"
					return
				}
				floats, err := DecodeFloats(got[2], len(j.floats))
				if err != nil || !reflect.DeepEqual(floats, j.floats) {
					errs <- "ChunkedF round trip failed"
					return
				}
				blobs, err := DecodeBytes(got[3], len(j.blobs))
				if err != nil || !reflect.DeepEqual(blobs, j.blobs) {
					errs <- "ChunkedB round trip failed"
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
