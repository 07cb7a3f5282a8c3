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
// Bit i of the bitmap is bit (i%64) of Words[i/64]. The zero value is an
// empty bitmap ready to use; grow it with Resize or construct with NewBitmap.
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

// BitmapFromWords wraps an existing word slice as an n-bit bitmap.
// The slice is used directly, not copied.
func BitmapFromWords(words []uint64, n int) *Bitmap {
	if need := (n + 63) / 64; need > len(words) {
		panic(fmt.Sprintf("bitutil: %d words cannot hold %d bits", len(words), n))
	}
	return &Bitmap{words: words, n: n}
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

// Clear clears bit i.
func (b *Bitmap) Clear(i int) {
	b.check(i)
	b.words[i>>6] &^= 1 << uint(i&63)
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

// Resize grows or shrinks the bitmap to n bits, preserving the prefix.
// New bits are clear.
func (b *Bitmap) Resize(n int) {
	if n < 0 {
		panic("bitutil: negative bitmap length")
	}
	need := (n + 63) / 64
	switch {
	case need > len(b.words):
		nw := make([]uint64, need)
		copy(nw, b.words)
		b.words = nw
	case need < len(b.words):
		b.words = b.words[:need]
	}
	b.n = n
	b.clearTail()
}

// clearTail zeroes bits at positions >= n in the final word so that Count
// and Words stay consistent after shrinking.
func (b *Bitmap) clearTail() {
	if rem := b.n & 63; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Clone returns a deep copy.
func (b *Bitmap) Clone() *Bitmap {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return &Bitmap{words: w, n: b.n}
}

// Or sets b to b|other. The bitmaps must have equal length.
func (b *Bitmap) Or(other *Bitmap) {
	if b.n != other.n {
		panic("bitutil: Or on bitmaps of different length")
	}
	for i := range b.words {
		b.words[i] |= other.words[i]
	}
}

// And sets b to b&other. The bitmaps must have equal length.
func (b *Bitmap) And(other *Bitmap) {
	if b.n != other.n {
		panic("bitutil: And on bitmaps of different length")
	}
	for i := range b.words {
		b.words[i] &= other.words[i]
	}
}

// AndNot sets b to b&^other. The bitmaps must have equal length.
func (b *Bitmap) AndNot(other *Bitmap) {
	if b.n != other.n {
		panic("bitutil: AndNot on bitmaps of different length")
	}
	for i := range b.words {
		b.words[i] &^= other.words[i]
	}
}

// SetRange sets bits in [from, to).
func (b *Bitmap) SetRange(from, to int) {
	if from < 0 || to > b.n || from > to {
		panic(fmt.Sprintf("bitutil: SetRange [%d,%d) out of range [0,%d)", from, to, b.n))
	}
	for i := from; i < to; i++ {
		b.Set(i)
	}
}

// Ones returns the indexes of all set bits in increasing order.
func (b *Bitmap) Ones() []int {
	out := make([]int, 0, b.Count())
	for wi, w := range b.words {
		for w != 0 {
			t := bits.TrailingZeros64(w)
			out = append(out, wi*64+t)
			w &= w - 1
		}
	}
	return out
}

// NextSet returns the index of the first set bit at or after i, or -1.
func (b *Bitmap) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= b.n {
		return -1
	}
	wi := i >> 6
	w := b.words[wi] >> uint(i&63)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(b.words); wi++ {
		if b.words[wi] != 0 {
			return wi*64 + bits.TrailingZeros64(b.words[wi])
		}
	}
	return -1
}

// CountRange returns the number of set bits in [from, to).
func (b *Bitmap) CountRange(from, to int) int {
	if from < 0 || to > b.n || from > to {
		panic(fmt.Sprintf("bitutil: CountRange [%d,%d) out of range [0,%d)", from, to, b.n))
	}
	c := 0
	for i := from; i < to; i++ {
		if b.Get(i) {
			c++
		}
	}
	return c
}
