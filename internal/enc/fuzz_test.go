package enc

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"bullion/internal/bitutil"
)

// Fuzz round-trips for the encoding entry points the core format is built
// on. Each target does two things per input:
//
//  1. derives a value slice from the fuzz bytes, encodes it with the
//     default cascade, decodes it back, and requires equality — the
//     selector must never pick a lossy scheme;
//  2. feeds the raw fuzz bytes to the decoder as a malformed stream and
//     requires an error or a clean result — never a panic (the decoders
//     face disk corruption and crossed streams in production).

// fuzzInts derives an int64 slice: 8-byte little-endian words, with the
// leftover tail bytes sign-extended so small payloads still vary.
func fuzzInts(data []byte) []int64 {
	var vs []int64
	for len(data) >= 8 {
		vs = append(vs, int64(binary.LittleEndian.Uint64(data)))
		data = data[8:]
	}
	for _, b := range data {
		vs = append(vs, int64(int8(b)))
	}
	return vs
}

func FuzzCascadeRoundTrip(f *testing.F) {
	// Seeds mirror the unit-test corpora: runs, sorted, clustered,
	// low-cardinality, negatives, and raw garbage for the decode half.
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	seed := make([]byte, 0, 256)
	for i := 0; i < 32; i++ {
		seed = binary.LittleEndian.AppendUint64(seed, uint64(i*1000))
	}
	f.Add(seed)
	run := make([]byte, 0, 256)
	for i := 0; i < 32; i++ {
		run = binary.LittleEndian.AppendUint64(run, uint64(i/8))
	}
	f.Add(run)
	f.Add([]byte{0xff, 0xfe, 0x80, 0x01, 0x7f, 0x00, 0xaa, 0x55, 0x13})
	// {+0.0, -0.0} as float64 bits: equal under ==, not bit-identical.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 { // keep per-exec cost bounded
			data = data[:4096]
		}
		vs := fuzzInts(data)
		encoded, err := EncodeInts(nil, vs, DefaultOptions())
		if err != nil {
			t.Fatalf("EncodeInts(%d values): %v", len(vs), err)
		}
		decoded, err := DecodeInts(encoded, len(vs))
		if err != nil {
			t.Fatalf("DecodeInts round-trip: %v", err)
		}
		if len(decoded) != len(vs) {
			t.Fatalf("round-trip length %d != %d", len(decoded), len(vs))
		}
		for i := range vs {
			if decoded[i] != vs[i] {
				t.Fatalf("value %d: %d != %d (scheme %v)", i, decoded[i], vs[i], TopScheme(encoded))
			}
		}
		// Malformed-input half: raw fuzz bytes as a stream must not panic
		// (errors are expected and fine).
		for _, n := range []int{0, 1, len(vs), 7, 1024} {
			_, _ = DecodeInts(data, n)
		}
		// Nullable wrapper over the same values.
		valid := boolsFromBytes(data, len(vs))
		bm := bitmapOf(valid)
		nenc, err := EncodeNullableInts(nil, vs, bm, DefaultOptions())
		if err != nil {
			t.Fatalf("EncodeNullableInts: %v", err)
		}
		nvs, nvalid, err := DecodeNullableInts(nenc, len(vs))
		if err != nil {
			t.Fatalf("DecodeNullableInts round-trip: %v", err)
		}
		for i := range vs {
			if nvalid.Get(i) != valid[i] {
				t.Fatalf("validity %d flipped", i)
			}
			if valid[i] && nvs[i] != vs[i] {
				t.Fatalf("nullable value %d: %d != %d", i, nvs[i], vs[i])
			}
		}
		_, _, _ = DecodeNullableInts(data, 64)
		// The same words as float64 bits through the float cascade, compared
		// bit for bit: signed zeros and NaN payloads must survive.
		fs := make([]float64, len(vs))
		for i, v := range vs {
			fs[i] = math.Float64frombits(uint64(v))
		}
		fenc, err := EncodeFloats(nil, fs, DefaultOptions())
		if err != nil {
			t.Fatalf("EncodeFloats(%d values): %v", len(fs), err)
		}
		fdec, err := DecodeFloats(fenc, len(fs))
		if err != nil {
			t.Fatalf("DecodeFloats round-trip: %v", err)
		}
		for i := range fs {
			if math.Float64bits(fdec[i]) != math.Float64bits(fs[i]) {
				t.Fatalf("float %d: %#x != %#x (scheme %v)", i,
					math.Float64bits(fdec[i]), math.Float64bits(fs[i]), TopScheme(fenc))
			}
		}
	})
}

// fuzzBytesValues splits data into variable-length items using the first
// bytes as lengths, exercising Plain/Dict/Constant/ChunkedBytes paths.
func fuzzBytesValues(data []byte) [][]byte {
	var vs [][]byte
	for len(data) > 0 {
		l := int(data[0]) % 17
		data = data[1:]
		if l > len(data) {
			l = len(data)
		}
		vs = append(vs, data[:l:l])
		data = data[l:]
	}
	return vs
}

func FuzzBytesRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x04news\x05video\x03ads\x04news\x05video"))
	f.Add(bytes.Repeat([]byte{3, 'a', 'b', 'c'}, 40)) // constant column
	f.Add([]byte{16, 'h', 't', 't', 'p', ':', '/', '/', 'e', 'x', 'a', 'm', 'p', 'l', 'e', '.', 'c'})
	f.Add([]byte{0xff, 0x00, 0x01, 0x80, 0x7f})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 { // keep per-exec cost bounded
			data = data[:4096]
		}
		vs := fuzzBytesValues(data)
		encoded, err := EncodeBytes(nil, vs, DefaultOptions())
		if err != nil {
			t.Fatalf("EncodeBytes(%d items): %v", len(vs), err)
		}
		decoded, err := DecodeBytes(encoded, len(vs))
		if err != nil {
			t.Fatalf("DecodeBytes round-trip: %v", err)
		}
		if len(decoded) != len(vs) {
			t.Fatalf("round-trip length %d != %d", len(decoded), len(vs))
		}
		for i := range vs {
			if !bytes.Equal(decoded[i], vs[i]) {
				t.Fatalf("item %d: %q != %q (scheme %v)", i, decoded[i], vs[i], TopScheme(encoded))
			}
		}
		for _, n := range []int{0, 1, len(vs), 513} {
			_, _ = DecodeBytes(data, n)
		}
	})
}

// FuzzBloomRoundTrip builds a split-block bloom filter from fuzz-derived
// byte strings, round-trips it through Marshal/OpenBloom, and requires
// every inserted value to probe true (no false negatives, ever). The raw
// fuzz bytes are also fed to OpenBloom as a hostile serialized filter:
// errors are fine, panics are not.
func FuzzBloomRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte("\x04news\x05video\x03ads\x04news"), uint8(12))
	f.Add(bytes.Repeat([]byte{1, 'x'}, 64), uint8(1))
	f.Add([]byte{'S', 'B', 'F', '1', 0xff, 0xff, 0xff, 0xff}, uint8(4))

	f.Fuzz(func(t *testing.T, data []byte, bits uint8) {
		if len(data) > 4096 { // keep per-exec cost bounded
			data = data[:4096]
		}
		vs := fuzzBytesValues(data)
		b := NewBloomBuilder(len(vs), int(bits)%24)
		for _, v := range vs {
			b.Add(v)
		}
		blob := b.Marshal()
		fl, err := OpenBloom(blob)
		if err != nil {
			t.Fatalf("OpenBloom rejected its own Marshal: %v", err)
		}
		for i, v := range vs {
			if !fl.Contains(v) {
				t.Fatalf("value %d (%q) missing: bloom has false negatives", i, v)
			}
		}
		// Hostile deserialization half: arbitrary bytes must never panic,
		// and an accepted filter must stay in bounds when probed.
		if fl, err := OpenBloom(data); err == nil {
			for _, v := range vs {
				_ = fl.Contains(v)
			}
			_ = fl.ContainsHash(0)
			_ = fl.ContainsHash(^uint64(0))
		}
	})
}

// fuzzTimestamps derives a DeltaDelta-friendly series: each fuzz byte
// perturbs a running delta, so the values look like jittered timestamps
// (the scheme's target distribution) while still reaching hostile shapes
// — sign flips, zero deltas, widening gaps — as the fuzzer mutates bytes.
func fuzzTimestamps(data []byte) []int64 {
	vs := make([]int64, 0, len(data))
	cur := int64(1_700_000_000_000)
	delta := int64(1000)
	for _, b := range data {
		delta += int64(int8(b))
		cur += delta
		vs = append(vs, cur)
	}
	return vs
}

// FuzzDeltaDeltaRoundTrip drives the DeltaDelta scheme directly (the
// cascade fuzz above only reaches it when the selector picks it): encode
// a fuzz-derived timestamp series with the scheme forced, require exact
// reconstruction through the second-order prefix sums, and feed the raw
// bytes back as a hostile DeltaDelta stream that must error, not panic.
func FuzzDeltaDeltaRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(bytes.Repeat([]byte{0}, 100))           // constant delta: empty dd stream
	f.Add([]byte{1, 255, 3, 253, 5, 251, 7, 249}) // oscillating deltas
	f.Add(bytes.Repeat([]byte{127, 129}, 64))     // max jitter both directions
	f.Add([]byte{0x80, 0x7f, 0x00, 0xff, 0x13, 0x37})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 { // keep per-exec cost bounded
			data = data[:4096]
		}
		vs := fuzzTimestamps(data)
		if len(vs) > 0 { // the scheme refuses empty input by design
			encoded, err := EncodeIntsWith(nil, DeltaDelta, vs, DefaultOptions())
			if err != nil {
				// The running delta can only drift ~128 per step from a
				// 1.7e12 base, so overflow (the one legitimate refusal)
				// is unreachable here.
				t.Fatalf("EncodeIntsWith(DeltaDelta, %d values): %v", len(vs), err)
			}
			if TopScheme(encoded) != DeltaDelta {
				t.Fatalf("forced scheme encoded as %v", TopScheme(encoded))
			}
			decoded, err := DecodeInts(encoded, len(vs))
			if err != nil {
				t.Fatalf("DecodeInts round-trip: %v", err)
			}
			for i := range vs {
				if decoded[i] != vs[i] {
					t.Fatalf("value %d: %d != %d", i, decoded[i], vs[i])
				}
			}
		}
		// Malformed-input half: arbitrary bytes as a DeltaDelta payload.
		hostile := append([]byte{byte(DeltaDelta)}, data...)
		for _, n := range []int{0, 1, 2, len(vs), 1024} {
			_, _ = DecodeInts(hostile, n)
		}
	})
}

func boolsFromBytes(data []byte, n int) []bool {
	vs := make([]bool, n)
	for i := range vs {
		if len(data) == 0 {
			break
		}
		vs[i] = data[i%len(data)]&(1<<(i%8)) != 0
	}
	return vs
}

func bitmapOf(vs []bool) *bitutil.Bitmap {
	bm := bitutil.NewBitmap(len(vs))
	for i, v := range vs {
		if v {
			bm.Set(i)
		}
	}
	return bm
}

func FuzzBoolsRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0xff, 0xff}, uint16(100))       // all-true runs
	f.Add([]byte{0x00, 0x00}, uint16(2000))      // sparse/empty
	f.Add([]byte{0x01, 0x00, 0x00}, uint16(900)) // single set bit (Roaring/Sparse)
	f.Add([]byte{0xaa, 0x55, 0x13, 0x37}, uint16(257))

	f.Fuzz(func(t *testing.T, data []byte, nRaw uint16) {
		if len(data) > 4096 { // keep per-exec cost bounded
			data = data[:4096]
		}
		n := int(nRaw) % 4096
		vs := boolsFromBytes(data, n)
		encoded, err := EncodeBools(nil, vs, DefaultOptions())
		if err != nil {
			t.Fatalf("EncodeBools(%d): %v", n, err)
		}
		decoded, err := DecodeBools(encoded, n)
		if err != nil {
			t.Fatalf("DecodeBools round-trip: %v", err)
		}
		for i := range vs {
			if decoded[i] != vs[i] {
				t.Fatalf("bit %d flipped (scheme %v)", i, TopScheme(encoded))
			}
		}
		for _, m := range []int{0, 1, n, 777} {
			_, _ = DecodeBools(data, m)
		}
	})
}
