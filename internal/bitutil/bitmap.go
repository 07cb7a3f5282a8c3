// Package bitutil provides bit-level primitives shared by every encoding in
// the repository: validity/deletion bitmaps, bit-packed readers and writers,
// and bit-width arithmetic.
//
// The package is deliberately dependency-free; it sits at the bottom of the
// substrate stack.
package bitutil

import (
	"fmt"
	"math/bits"
)

// Bitmap is a fixed-length sequence of bits backed by 64-bit words.
// Bit i of the bitmap is bit (i%64) of Words[i/64]. Construct one with
// NewBitmap.
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap returns a bitmap of n bits, all clear.
func NewBitmap(n int) *Bitmap {
	if n < 0 {
		panic("bitutil: negative bitmap length")
	}
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of bits in the bitmap.
func (b *Bitmap) Len() int { return b.n }

// Words exposes the backing words. Trailing bits past Len are zero as long
// as all mutation went through Bitmap methods.
func (b *Bitmap) Words() []uint64 { return b.words }

// Set sets bit i.
func (b *Bitmap) Set(i int) {
	b.check(i)
	b.words[i>>6] |= 1 << uint(i&63)
}

// Get reports whether bit i is set.
func (b *Bitmap) Get(i int) bool {
	b.check(i)
	return b.words[i>>6]&(1<<uint(i&63)) != 0
}

func (b *Bitmap) check(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitutil: bit index %d out of range [0,%d)", i, b.n))
	}
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether any bit is set.
func (b *Bitmap) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}
