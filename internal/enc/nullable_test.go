package enc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bullion/internal/bitutil"
)

func TestNullableRoundTrip(t *testing.T) {
	opts := DefaultOptions()
	rng := rand.New(rand.NewSource(3))
	for _, nullRate := range []float64{0, 0.01, 0.5, 1} {
		n := 1000
		vs := make([]int64, n)
		valid := bitutil.NewBitmap(n)
		for i := range vs {
			if rng.Float64() >= nullRate {
				valid.Set(i)
				vs[i] = int64(rng.Intn(1000))
			}
		}
		encoded, err := EncodeNullableInts(nil, vs, valid, opts)
		if err != nil {
			t.Fatalf("nullRate=%v: %v", nullRate, err)
		}
		got, gotValid, err := DecodeNullableInts(encoded, n)
		if err != nil {
			t.Fatalf("nullRate=%v: %v", nullRate, err)
		}
		for i := 0; i < n; i++ {
			if gotValid.Get(i) != valid.Get(i) {
				t.Fatalf("nullRate=%v: validity %d mismatch", nullRate, i)
			}
			if valid.Get(i) && got[i] != vs[i] {
				t.Fatalf("nullRate=%v: value %d = %d, want %d", nullRate, i, got[i], vs[i])
			}
		}
	}
}

func TestSentinelChosenWhenDomainHasGap(t *testing.T) {
	opts := DefaultOptions()
	n := 100
	vs := make([]int64, n)
	valid := bitutil.NewBitmap(n)
	for i := range vs {
		if i%10 != 0 {
			valid.Set(i)
			vs[i] = int64(i + 1) // positive values: -1 free as sentinel
		}
	}
	encoded, err := EncodeNullableInts(nil, vs, valid, opts)
	if err != nil {
		t.Fatal(err)
	}
	if SchemeID(encoded[0]) != Sentinel {
		t.Fatalf("scheme = %v, want Sentinel", SchemeID(encoded[0]))
	}
	got, gotValid, err := DecodeNullableInts(encoded, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if gotValid.Get(i) != valid.Get(i) {
			t.Fatalf("validity %d mismatch", i)
		}
		if valid.Get(i) && got[i] != vs[i] {
			t.Fatalf("value %d = %d, want %d", i, got[i], vs[i])
		}
	}
}

func TestNullableWrapperWhenNoSentinelFree(t *testing.T) {
	opts := DefaultOptions()
	// Occupy all four candidate sentinels so the wrapper must be used.
	vs := []int64{-1, 0, -9223372036854775808, 9223372036854775807, 5}
	valid := bitutil.NewBitmap(len(vs))
	for i := 0; i < 4; i++ { // index 4 is null
		valid.Set(i)
	}
	encoded, err := EncodeNullableInts(nil, vs, valid, opts)
	if err != nil {
		t.Fatal(err)
	}
	if SchemeID(encoded[0]) != Nullable {
		t.Fatalf("scheme = %v, want Nullable", SchemeID(encoded[0]))
	}
	got, gotValid, err := DecodeNullableInts(encoded, len(vs))
	if err != nil {
		t.Fatal(err)
	}
	if gotValid.Get(4) {
		t.Fatal("null position reported valid")
	}
	for i := 0; i < 4; i++ {
		if !gotValid.Get(i) || got[i] != vs[i] {
			t.Fatalf("value %d = %d (valid=%v), want %d", i, got[i], gotValid.Get(i), vs[i])
		}
	}
}

func TestDecodeNullablePlainStream(t *testing.T) {
	// A non-wrapped stream decodes as all-valid.
	opts := DefaultOptions()
	vs := []int64{1, 2, 3}
	encoded, err := EncodeInts(nil, vs, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, valid, err := DecodeNullableInts(encoded, 3)
	if err != nil {
		t.Fatal(err)
	}
	if valid.Count() != 3 {
		t.Fatalf("valid count = %d, want 3", valid.Count())
	}
	for i := range vs {
		if got[i] != vs[i] {
			t.Fatalf("value %d mismatch", i)
		}
	}
}

func TestNullableProperty(t *testing.T) {
	opts := DefaultOptions()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500) + 1
		vs := make([]int64, n)
		valid := bitutil.NewBitmap(n)
		for i := range vs {
			if rng.Intn(4) > 0 {
				valid.Set(i)
				vs[i] = rng.Int63n(1 << 40)
			}
		}
		encoded, err := EncodeNullableInts(nil, vs, valid, opts)
		if err != nil {
			return false
		}
		got, gotValid, err := DecodeNullableInts(encoded, n)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if gotValid.Get(i) != valid.Get(i) {
				return false
			}
			if valid.Get(i) && got[i] != vs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
