package enc

import (
	"math"
	"math/rand"
	"testing"

	"bullion/internal/bitutil"
)

// Kernel/scalar equivalence: every batch decode kernel must produce
// byte-identical output to the byte-at-a-time reference path it replaced.
// bitutil.ScalarKernels routes Unpack/UnpackInt64/UnpackZigZagInt64 and
// the Gorilla/Chimp peek loops through the old scalar implementations;
// decoding the same stream twice with the hook flipped must agree on
// every element, at every length — the odd lengths exercise the kernels'
// group, fast-path, and tail regions, and the shifted source copies
// exercise every byte alignment of the packed payload.

// equivLengths hits each kernel region: below one 8-value group, exactly
// at group boundaries, straddling them, across the 128-value PFOR/BP128
// block size, and large enough that the word-at-a-time fast path runs for
// hundreds of iterations before the scalar tail takes over.
var equivLengths = []int{1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 63, 64, 65,
	127, 128, 129, 255, 256, 257, 1000, 1023, 1024, 1025}

// decodeBoth decodes one stream with the kernels and with the scalar
// reference and requires identical results. The stream is also re-decoded
// from copies shifted to every offset within a word, so unaligned
// binary.LittleEndian.Uint64 loads are exercised at each base alignment
// (pages land at arbitrary byte offsets inside a column chunk).
func decodeBothInts(t *testing.T, label string, encoded []byte, n int) {
	t.Helper()
	kernel, err := DecodeIntsInto(make([]int64, n), encoded)
	if err != nil {
		t.Fatalf("%s: kernel decode: %v", label, err)
	}
	bitutil.ScalarKernels = true
	scalar, err := DecodeIntsInto(make([]int64, n), encoded)
	bitutil.ScalarKernels = false
	if err != nil {
		t.Fatalf("%s: scalar decode: %v", label, err)
	}
	for i := range kernel {
		if kernel[i] != scalar[i] {
			t.Fatalf("%s: value %d: kernel %d != scalar %d (scheme %v)",
				label, i, kernel[i], scalar[i], TopScheme(encoded))
		}
	}
	for _, off := range []int{1, 3, 7} {
		shifted := make([]byte, off+len(encoded))
		copy(shifted[off:], encoded)
		got, err := DecodeIntsInto(make([]int64, n), shifted[off:])
		if err != nil {
			t.Fatalf("%s: offset %d decode: %v", label, off, err)
		}
		for i := range got {
			if got[i] != scalar[i] {
				t.Fatalf("%s: offset %d value %d: %d != %d", label, off, i, got[i], scalar[i])
			}
		}
	}
}

func TestKernelScalarEquivalenceInts(t *testing.T) {
	opts := DefaultOptions()
	for _, tc := range intSchemes {
		t.Run(tc.id.String(), func(t *testing.T) {
			if retired(tc.id) {
				checkRetired(t, tc.id)
				return
			}
			rng := rand.New(rand.NewSource(31))
			for _, n := range equivLengths {
				vs := tc.gen(rng, n)
				encoded, err := EncodeIntsWith(nil, tc.id, vs, opts)
				if err != nil {
					t.Fatalf("n=%d: encode: %v", n, err)
				}
				decodeBothInts(t, tc.id.String(), encoded, n)
			}
		})
	}
}

func TestKernelScalarEquivalenceFloats(t *testing.T) {
	opts := DefaultOptions()
	for _, tc := range floatSchemes {
		t.Run(tc.id.String(), func(t *testing.T) {
			if retired(tc.id) {
				checkRetired(t, tc.id)
				return
			}
			rng := rand.New(rand.NewSource(37))
			for _, n := range equivLengths {
				vs := tc.gen(rng, n)
				encoded, err := EncodeFloatsWith(nil, tc.id, vs, opts)
				if err != nil {
					t.Fatalf("n=%d: encode: %v", n, err)
				}
				kernel, err := DecodeFloatsInto(make([]float64, n), encoded)
				if err != nil {
					t.Fatalf("n=%d: kernel decode: %v", n, err)
				}
				bitutil.ScalarKernels = true
				scalar, err := DecodeFloatsInto(make([]float64, n), encoded)
				bitutil.ScalarKernels = false
				if err != nil {
					t.Fatalf("n=%d: scalar decode: %v", n, err)
				}
				for i := range kernel {
					if math.Float64bits(kernel[i]) != math.Float64bits(scalar[i]) {
						t.Fatalf("n=%d value %d: kernel %v != scalar %v", n, i, kernel[i], scalar[i])
					}
				}
			}
		})
	}
}

// The cascade may pick any scheme, so the equivalence property must also
// hold on arbitrary selector output, not just per-scheme corpora.
func TestKernelScalarEquivalenceCascade(t *testing.T) {
	opts := DefaultOptions()
	opts.SampleSize = 128
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		gen := intSchemes[trial%len(intSchemes)].gen
		n := equivLengths[rng.Intn(len(equivLengths))]
		vs := gen(rng, n)
		encoded, err := EncodeInts(nil, vs, opts)
		if err != nil {
			t.Fatal(err)
		}
		decodeBothInts(t, TopScheme(encoded).String(), encoded, n)
	}
}
