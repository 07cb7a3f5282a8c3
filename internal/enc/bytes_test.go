package enc

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

var bytesSchemes = []struct {
	id  SchemeID
	gen func(rng *rand.Rand, n int) [][]byte
}{
	{PlainB, genRandomBlobs},
	{DictB, genRepeatedBlobs},
	{FSST, genURLs},
	{ChunkedB, genURLs},
	{ConstantB, genConstantBlobs},
}

func genRandomBlobs(rng *rand.Rand, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		b := make([]byte, rng.Intn(40))
		rng.Read(b)
		out[i] = b
	}
	return out
}

func genRepeatedBlobs(rng *rand.Rand, n int) [][]byte {
	domain := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma"), []byte(""), []byte("delta-very-long-value")}
	out := make([][]byte, n)
	for i := range out {
		out[i] = domain[rng.Intn(len(domain))]
	}
	return out
}

func genURLs(rng *rand.Rand, n int) [][]byte {
	hosts := []string{"example.com", "bytedance.com", "video.cdn.net"}
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("https://%s/watch?v=%08x&t=%d",
			hosts[rng.Intn(len(hosts))], rng.Uint32(), rng.Intn(600)))
	}
	return out
}

func genConstantBlobs(rng *rand.Rand, n int) [][]byte {
	v := []byte("same-value")
	out := make([][]byte, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestBytesSchemesRoundTrip(t *testing.T) {
	opts := DefaultOptions()
	for _, tc := range bytesSchemes {
		t.Run(tc.id.String(), func(t *testing.T) {
			if retired(tc.id) {
				checkRetired(t, tc.id)
				return
			}
			rng := rand.New(rand.NewSource(21))
			for _, n := range []int{0, 1, 2, 100, 500} {
				vs := tc.gen(rng, n)
				encoded, err := EncodeBytesWith(nil, tc.id, vs, opts)
				if err != nil {
					t.Fatalf("n=%d: encode: %v", n, err)
				}
				got, err := DecodeBytes(encoded, n)
				if err != nil {
					t.Fatalf("n=%d: decode: %v", n, err)
				}
				for i := range vs {
					if !bytes.Equal(got[i], vs[i]) {
						t.Fatalf("n=%d value %d = %q, want %q", n, i, got[i], vs[i])
					}
				}
			}
		})
	}
}

func TestDictBytesCompresses(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vs := genRepeatedBlobs(rng, 2000)
	opts := DefaultOptions()
	plain, _ := EncodeBytesWith(nil, PlainB, vs, opts)
	dict, err := EncodeBytesWith(nil, DictB, vs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if float64(len(dict)) > 0.25*float64(len(plain)) {
		t.Fatalf("DictB %d > 25%% of plain %d on repeated blobs", len(dict), len(plain))
	}
}

func TestBytesCascadeProperty(t *testing.T) {
	opts := DefaultOptions()
	f := func(seed int64, kind uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200)
		vs := bytesSchemes[int(kind)%len(bytesSchemes)].gen(rng, n)
		encoded, err := EncodeBytes(nil, vs, opts)
		if err != nil {
			return false
		}
		got, err := DecodeBytes(encoded, n)
		if err != nil {
			return false
		}
		for i := range vs {
			if !bytes.Equal(got[i], vs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBytesDecodeCorrupt(t *testing.T) {
	if _, err := DecodeBytes([]byte{}, 2); err == nil {
		t.Fatal("empty stream decoded")
	}
	if _, err := DecodeBytes([]byte{byte(GorillaF)}, 2); err == nil {
		t.Fatal("float scheme id decoded as bytes")
	}
	opts := DefaultOptions()
	vs := genURLs(rand.New(rand.NewSource(1)), 50)
	encoded, _ := EncodeBytesWith(nil, ChunkedB, vs, opts)
	if _, err := DecodeBytes(encoded[:len(encoded)/2], 50); err == nil {
		t.Fatal("truncated ChunkedBytes stream decoded")
	}
}
