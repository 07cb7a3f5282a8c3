package enc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

var floatSchemes = []struct {
	id  SchemeID
	gen func(rng *rand.Rand, n int) []float64
}{
	{PlainF, genRandomFloats},
	{GorillaF, genTimeSeries},
	{ChimpF, genTimeSeries},
	{ALPF, genDecimals},
	{PseudoDec, genDecimals},
	{ConstantF, genConstantFloats},
	{ChunkedF, genRandomFloats},
}

func genRandomFloats(rng *rand.Rand, n int) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = rng.NormFloat64() * 1e6
	}
	return vs
}

func genTimeSeries(rng *rand.Rand, n int) []float64 {
	vs := make([]float64, n)
	cur := 100.0
	for i := range vs {
		cur += rng.NormFloat64() * 0.5
		vs[i] = cur
	}
	return vs
}

func genDecimals(rng *rand.Rand, n int) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = float64(rng.Intn(100000)) / 100 // two decimal places
	}
	return vs
}

func genConstantFloats(rng *rand.Rand, n int) []float64 {
	vs := make([]float64, n)
	c := rng.Float64()
	for i := range vs {
		vs[i] = c
	}
	return vs
}

func TestFloatSchemesRoundTrip(t *testing.T) {
	opts := DefaultOptions()
	for _, tc := range floatSchemes {
		t.Run(tc.id.String(), func(t *testing.T) {
			if retired(tc.id) {
				checkRetired(t, tc.id)
				return
			}
			rng := rand.New(rand.NewSource(11))
			for _, n := range []int{0, 1, 2, 100, 1000} {
				vs := tc.gen(rng, n)
				encoded, err := EncodeFloatsWith(nil, tc.id, vs, opts)
				if err != nil {
					t.Fatalf("n=%d: encode: %v", n, err)
				}
				got, err := DecodeFloats(encoded, n)
				if err != nil {
					t.Fatalf("n=%d: decode: %v", n, err)
				}
				for i := range vs {
					if math.Float64bits(got[i]) != math.Float64bits(vs[i]) {
						t.Fatalf("n=%d: value %d = %v, want %v (lossless required)", n, i, got[i], vs[i])
					}
				}
			}
		})
	}
}

func TestFloatSpecialValues(t *testing.T) {
	opts := DefaultOptions()
	vs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, math.SmallestNonzeroFloat64, 1.5, -2.25}
	for _, id := range []SchemeID{PlainF, GorillaF, ChimpF} {
		encoded, err := EncodeFloatsWith(nil, id, vs, opts)
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		got, err := DecodeFloats(encoded, len(vs))
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		for i := range vs {
			if math.Float64bits(got[i]) != math.Float64bits(vs[i]) {
				t.Fatalf("%v: value %d bits differ: %x vs %x", id, i,
					math.Float64bits(got[i]), math.Float64bits(vs[i]))
			}
		}
	}
}

func TestALPWithSparseExceptions(t *testing.T) {
	// Mostly decimals with a few special values: the exception path must be
	// bit-exact, including NaN and negative zero.
	opts := DefaultOptions()
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(i) / 4
	}
	vs[10] = math.NaN()
	vs[20] = math.Inf(1)
	vs[30] = math.Copysign(0, -1)
	encoded, err := EncodeFloatsWith(nil, ALPF, vs, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFloats(encoded, len(vs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vs {
		if math.Float64bits(got[i]) != math.Float64bits(vs[i]) {
			t.Fatalf("value %d bits %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(vs[i]))
		}
	}
}

func TestALPNotApplicableToNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vs := genRandomFloats(rng, 1000)
	if _, err := EncodeFloatsWith(nil, ALPF, vs, DefaultOptions()); err == nil {
		t.Fatal("ALP accepted non-decimal noise")
	}
}

func TestDecimalFor(t *testing.T) {
	cases := []struct {
		v    float64
		exp  int
		digs int64
	}{
		{1.5, 1, 15},
		{3.0, 0, 3},
		{0.25, 2, 25},
		{123.456, 3, 123456},
	}
	for _, c := range cases {
		e, d := decimalFor(c.v)
		if e != c.exp || d != c.digs {
			t.Errorf("decimalFor(%v) = (%d,%d), want (%d,%d)", c.v, e, d, c.exp, c.digs)
		}
	}
	if e, _ := decimalFor(math.NaN()); e != -1 {
		t.Error("decimalFor(NaN) should be -1")
	}
	if e, _ := decimalFor(math.Pi); e != -1 {
		t.Error("decimalFor(Pi) should fail within 18 digits of float64 precision")
	}
}

// Property: the float cascade is bit-exact for arbitrary bit patterns.
func TestFloatCascadeProperty(t *testing.T) {
	opts := DefaultOptions()
	opts.SampleSize = 64
	f := func(seed int64, kind uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300)
		vs := floatSchemes[int(kind)%len(floatSchemes)].gen(rng, n)
		encoded, err := EncodeFloats(nil, vs, opts)
		if err != nil {
			return false
		}
		got, err := DecodeFloats(encoded, n)
		if err != nil {
			return false
		}
		for i := range vs {
			if math.Float64bits(got[i]) != math.Float64bits(vs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGorillaCompressesTimeSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vs := genTimeSeries(rng, 4096)
	opts := DefaultOptions()
	plain, _ := EncodeFloatsWith(nil, PlainF, vs, opts)
	gorilla, err := EncodeFloatsWith(nil, GorillaF, vs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(gorilla) >= len(plain) {
		t.Fatalf("gorilla %d >= plain %d on a smooth series", len(gorilla), len(plain))
	}
	chimp, err := EncodeFloatsWith(nil, ChimpF, vs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(chimp) >= len(plain) {
		t.Fatalf("chimp %d >= plain %d on a smooth series", len(chimp), len(plain))
	}
}

func TestALPCompressesDecimals(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vs := genDecimals(rng, 4096)
	opts := DefaultOptions()
	plain, _ := EncodeFloatsWith(nil, PlainF, vs, opts)
	alp, err := EncodeFloatsWith(nil, ALPF, vs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if float64(len(alp)) > 0.5*float64(len(plain)) {
		t.Fatalf("ALP %d > 50%% of plain %d on decimal data", len(alp), len(plain))
	}
}

func TestFloatDecodeCorrupt(t *testing.T) {
	if _, err := DecodeFloats([]byte{}, 3); err == nil {
		t.Fatal("empty stream decoded")
	}
	if _, err := DecodeFloats([]byte{byte(Plain)}, 3); err == nil {
		t.Fatal("int scheme id decoded as float")
	}
	opts := DefaultOptions()
	vs := genTimeSeries(rand.New(rand.NewSource(1)), 100)
	encoded, _ := EncodeFloatsWith(nil, GorillaF, vs, opts)
	if _, err := DecodeFloats(encoded[:8], 100); err == nil {
		t.Fatal("truncated gorilla stream decoded")
	}
}
