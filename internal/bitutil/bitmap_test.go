package bitutil

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitmapBasic(t *testing.T) {
	b := NewBitmap(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d, want 130", b.Len())
	}
	if b.Any() {
		t.Fatal("fresh bitmap reports Any")
	}
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Get(0) || !b.Get(64) || !b.Get(129) {
		t.Fatal("set bits not readable")
	}
	if b.Get(1) || b.Get(63) || b.Get(128) {
		t.Fatal("unset bits report set")
	}
	if got := b.Count(); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
}

func TestBitmapOutOfRangePanics(t *testing.T) {
	b := NewBitmap(10)
	for _, f := range []func(){
		func() { b.Set(10) },
		func() { b.Get(-1) },
		func() { b.Get(11) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on out-of-range access")
				}
			}()
			f()
		}()
	}
}

// Property: the ones of a random bitmap are exactly the bits set.
func TestBitmapOnesProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw)%1000 + 1
		rng := rand.New(rand.NewSource(seed))
		b := NewBitmap(n)
		want := map[int]bool{}
		for i := 0; i < n/3; i++ {
			k := rng.Intn(n)
			b.Set(k)
			want[k] = true
		}
		for k := 0; k < n; k++ {
			if b.Get(k) != want[k] {
				return false
			}
		}
		return b.Count() == len(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
