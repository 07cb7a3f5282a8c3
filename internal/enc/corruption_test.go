package enc

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"bullion/internal/bitutil"
)

// Decoders face hostile bytes (disk corruption, truncation, crossed
// streams). They must return errors — never panic, never hang — for any
// mutation of a valid stream. These tests hammer every decoder with
// random corruptions.

func mutate(rng *rand.Rand, data []byte) []byte {
	out := append([]byte{}, data...)
	switch rng.Intn(4) {
	case 0: // flip random bytes
		for k := 0; k < 1+rng.Intn(4); k++ {
			out[rng.Intn(len(out))] ^= byte(1 << uint(rng.Intn(8)))
		}
	case 1: // truncate
		out = out[:rng.Intn(len(out))]
	case 2: // splice garbage
		pos := rng.Intn(len(out))
		g := make([]byte, 1+rng.Intn(16))
		rng.Read(g)
		out = append(out[:pos:pos], g...)
	case 3: // duplicate a window
		if len(out) > 4 {
			pos := rng.Intn(len(out) - 2)
			out = append(out[:pos:pos], out[pos:]...)
		}
	}
	return out
}

func noPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: decoder panicked: %v", name, r)
		}
	}()
	fn()
}

func TestIntDecodersSurviveCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	opts := DefaultOptions()
	for _, tc := range intSchemes {
		vs := tc.gen(rng, 300)
		encoded, err := EncodeIntsWith(nil, tc.id, vs, opts)
		if err != nil {
			continue
		}
		for trial := 0; trial < 200; trial++ {
			bad := mutate(rng, encoded)
			if len(bad) == 0 {
				continue
			}
			noPanic(t, tc.id.String(), func() {
				_, _ = DecodeInts(bad, 300)
				_, _ = DecodeInts(bad, 1) // wrong count too
			})
		}
	}
}

func TestFloatDecodersSurviveCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	opts := DefaultOptions()
	for _, tc := range floatSchemes {
		vs := tc.gen(rng, 300)
		encoded, err := EncodeFloatsWith(nil, tc.id, vs, opts)
		if err != nil {
			continue
		}
		for trial := 0; trial < 200; trial++ {
			bad := mutate(rng, encoded)
			if len(bad) == 0 {
				continue
			}
			noPanic(t, tc.id.String(), func() {
				_, _ = DecodeFloats(bad, 300)
			})
		}
	}
}

func TestBytesDecodersSurviveCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	opts := DefaultOptions()
	for _, tc := range bytesSchemes {
		vs := tc.gen(rng, 200)
		encoded, err := EncodeBytesWith(nil, tc.id, vs, opts)
		if err != nil {
			continue
		}
		for trial := 0; trial < 200; trial++ {
			bad := mutate(rng, encoded)
			if len(bad) == 0 {
				continue
			}
			noPanic(t, tc.id.String(), func() {
				_, _ = DecodeBytes(bad, 200)
			})
		}
	}
}

func TestBoolDecodersSurviveCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, id := range []SchemeID{PlainBool, SparseBool, Roaring} {
		vs := genBools(rng, 5000, 0.3)
		encoded, err := EncodeBoolsWith(nil, id, vs)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 200; trial++ {
			bad := mutate(rng, encoded)
			if len(bad) == 0 {
				continue
			}
			noPanic(t, id.String(), func() {
				_, _ = DecodeBools(bad, 5000)
			})
		}
	}
}

func TestNullableDecodersSurviveCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	opts := DefaultOptions()
	n := 200
	vs := make([]int64, n)
	valid := boolsBitmap(n, func(i int) bool { return i%3 != 0 })
	for i := range vs {
		vs[i] = rng.Int63n(1000)
	}
	encoded, err := EncodeNullableInts(nil, vs, valid, opts)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 300; trial++ {
		bad := mutate(rng, encoded)
		if len(bad) == 0 {
			continue
		}
		noPanic(t, "nullable", func() {
			_, _, _ = DecodeNullableInts(bad, n)
		})
	}
}

// TestChunkedBytesHostileTotal: a ~20-byte ChunkedB page whose declared
// total is absurd, or disagrees with its lengths, must be rejected before
// anything is sized from it.
func TestChunkedBytesHostileTotal(t *testing.T) {
	valid, err := EncodeBytesWith(nil, ChunkedB, [][]byte{[]byte("ab"), []byte("c")}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, rest, err := readChild(valid[1:])
	if err != nil {
		t.Fatal(err)
	}
	head := valid[:len(valid)-len(rest)] // scheme id + lengths child
	_, sz := binary.Uvarint(rest)
	chunks := rest[sz:]
	for _, total := range []uint64{1 << 62, 1<<64 - 1, 1 << 63, 4, 2, 0} {
		page := binary.AppendUvarint(append([]byte{}, head...), total)
		page = append(page, chunks...)
		noPanic(t, fmt.Sprintf("total %d", total), func() {
			if _, err := DecodeBytes(page, 2); !errors.Is(err, ErrCorrupt) {
				t.Errorf("total %d in a %d-byte page: got %v, want ErrCorrupt", total, len(page), err)
			}
		})
	}
	if got, err := DecodeBytes(valid, 2); err != nil || string(got[0])+string(got[1]) != "abc" {
		t.Fatalf("valid page: %q, %v", got, err)
	}
}

// TestChunkedDecompressionBounded: a chunk that inflates to 16 MiB must
// fail with ErrCorrupt after inflating no more than the bytes it may hold —
// the 64 bytes its one value declares, or one ChunkSize chunk of a
// ChunkedB page declaring 1 TiB — not after the whole bomb.
func TestChunkedDecompressionBounded(t *testing.T) {
	var bomb bytes.Buffer
	fw, err := flate.NewWriter(&bomb, flate.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	zeros := make([]byte, 1<<20)
	for i := 0; i < 16; i++ {
		if _, err := fw.Write(zeros); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	// bombFirst is a chunk sequence of n chunks whose first one is the bomb.
	bombFirst := func(n uint64) []byte {
		b := binary.AppendUvarint(nil, n)
		b = binary.AppendUvarint(b, uint64(bomb.Len()))
		return append(b, bomb.Bytes()...)
	}
	// chunkedB is the head of a one-value ChunkedB page of the given length.
	chunkedB := func(total int64) []byte {
		lens, err := EncodeIntsWith(nil, Plain, []int64{total}, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return binary.AppendUvarint(appendChild([]byte{byte(ChunkedB)}, lens), uint64(total))
	}
	decodeBytes := func(p []byte) error { _, err := DecodeBytes(p, 1); return err }
	cases := []struct {
		name   string
		page   []byte
		decode func([]byte) error
	}{
		{"ChunkedB", append(chunkedB(64), bombFirst(1)...), decodeBytes},
		{"ChunkedB 1 TiB", append(chunkedB(1<<40), bombFirst(1<<40/ChunkSize)...), decodeBytes},
	}
	for _, c := range cases {
		page := c.page
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.decode(page)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", c.name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 4<<20 {
			t.Errorf("%s: decoding a %d-byte page allocated %d bytes", c.name, len(page), grew)
		}
	}
}

// retiredSchemes are the reserved ids of the retired codecs.
var retiredSchemes = []SchemeID{BitShuffle, Chunked, PseudoDec, ChunkedF, FSST}

// TestRetiredSchemesRefused sweeps every decoder with streams that start
// with a retired id — empty, short, 0xff-filled and random payloads, at
// several counts — and every typed encoder with the id itself.
func TestRetiredSchemesRefused(t *testing.T) {
	for _, id := range retiredSchemes {
		if !retired(id) {
			t.Errorf("%v is not retired", id)
		}
		t.Run(id.String(), func(t *testing.T) { checkRetired(t, id) })
	}
	for id := SchemeID(1); id != 0; id++ {
		if retired(id) && !slices.Contains(retiredSchemes, id) {
			t.Errorf("%v is retired but not swept", id)
		}
	}
}

// checkRetired asserts a retired id's contract: no Encode*With accepts
// it, and every Decode* and Decode*Into returns ErrUnknownScheme naming
// it, without panicking, whatever payload follows it.
func checkRetired(t *testing.T, id SchemeID) {
	t.Helper()
	opts := DefaultOptions()
	encoders := map[string]func() error{
		"EncodeIntsWith":   func() error { _, err := EncodeIntsWith(nil, id, []int64{1, 2, 3}, opts); return err },
		"EncodeFloatsWith": func() error { _, err := EncodeFloatsWith(nil, id, []float64{1.5, 2}, opts); return err },
		"EncodeBytesWith":  func() error { _, err := EncodeBytesWith(nil, id, [][]byte{[]byte("a")}, opts); return err },
		"EncodeBoolsWith":  func() error { _, err := EncodeBoolsWith(nil, id, []bool{true}); return err },
	}
	for name, encode := range encoders {
		if encode() == nil {
			t.Errorf("%s(%v) succeeded", name, id)
		}
	}
	rng := rand.New(rand.NewSource(int64(id)))
	random := make([]byte, 300)
	rng.Read(random)
	payloads := [][]byte{nil, {0}, {8, 1}, bytes.Repeat([]byte{0xff}, 64), random}
	for _, payload := range payloads {
		stream := append([]byte{byte(id)}, payload...)
		for _, n := range []int{0, 1, 3, 300} {
			decoders := map[string]func() error{
				"DecodeInts":       func() error { _, err := DecodeInts(stream, n); return err },
				"DecodeIntsInto":   func() error { _, err := DecodeIntsInto(make([]int64, n), stream); return err },
				"DecodeFloats":     func() error { _, err := DecodeFloats(stream, n); return err },
				"DecodeFloatsInto": func() error { _, err := DecodeFloatsInto(make([]float64, n), stream); return err },
				"DecodeBytes":      func() error { _, err := DecodeBytes(stream, n); return err },
				"DecodeBytesInto":  func() error { _, err := DecodeBytesInto(make([][]byte, n), stream); return err },
				"DecodeBools":      func() error { _, err := DecodeBools(stream, n); return err },
				"DecodeBoolsInto":  func() error { _, err := DecodeBoolsInto(make([]bool, n), stream); return err },
				"DecodeNullableInts": func() error {
					_, _, err := DecodeNullableInts(stream, n)
					return err
				},
				"DecodeNullableIntsInto": func() error {
					return DecodeNullableIntsInto(make([]int64, n), make([]bool, n), stream)
				},
			}
			for name, decode := range decoders {
				label := fmt.Sprintf("%s(%v, %d-byte payload, n=%d)", name, id, len(payload), n)
				noPanic(t, label, func() {
					err := decode()
					if !errors.Is(err, ErrUnknownScheme) || !strings.Contains(err.Error(), id.String()) {
						t.Errorf("%s: got %v, want ErrUnknownScheme naming %v", label, err, id)
					}
				})
			}
		}
	}
}

// boolsBitmap builds a bitmap from a predicate.
func boolsBitmap(n int, pred func(int) bool) *bitutil.Bitmap {
	b := bitutil.NewBitmap(n)
	for i := 0; i < n; i++ {
		if pred(i) {
			b.Set(i)
		}
	}
	return b
}
