// Package bitset provides fixed-size bit arrays used for CT-Index
// fingerprints and for candidate-set bookkeeping.
package bitset

import "math/bits"

// Bitset is a fixed-size bit array. Create with New; the size is set at
// construction and never changes.
type Bitset struct {
	words []uint64
	n     int
}

// New returns a Bitset with n bits, all zero.
func New(n int) *Bitset {
	b := Make(n)
	return &b
}

// Make is New for a Bitset held by value, inside another struct.
func Make(n int) Bitset {
	return Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of bits.
func (b *Bitset) Len() int { return b.n }

// Set sets bit i.
func (b *Bitset) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b *Bitset) Clear(i int) { b.words[i>>6] &^= 1 << (uint(i) & 63) }

// Get reports whether bit i is set.
func (b *Bitset) Get(i int) bool { return b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// OnesCount returns the number of set bits.
func (b *Bitset) OnesCount() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsSubsetOf reports whether every set bit of b is also set in other
// (b AND other == b). Both bitsets must have the same length.
func (b *Bitset) IsSubsetOf(other *Bitset) bool {
	for i, w := range b.words {
		if w&^other.words[i] != 0 {
			return false
		}
	}
	return true
}

// Or sets b to b OR other in place.
func (b *Bitset) Or(other *Bitset) {
	for i := range b.words {
		b.words[i] |= other.words[i]
	}
}

// Equal reports whether two bitsets have identical bits.
func (b *Bitset) Equal(other *Bitset) bool {
	if b.n != other.n {
		return false
	}
	for i, w := range b.words {
		if w != other.words[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of b.
func (b *Bitset) Clone() *Bitset {
	return &Bitset{words: append([]uint64(nil), b.words...), n: b.n}
}

// SizeBytes returns the memory footprint of the bit array.
func (b *Bitset) SizeBytes() int64 { return int64(len(b.words))*8 + 16 }

// Words exposes the packed 64-bit words for serialization. The caller must
// not modify the returned slice.
func (b *Bitset) Words() []uint64 { return b.words }

// FromWords reconstructs a Bitset of n bits from its packed words (as
// returned by Words). It returns nil if the word count does not match n.
func FromWords(n int, words []uint64) *Bitset {
	if len(words) != (n+63)/64 {
		return nil
	}
	return &Bitset{words: append([]uint64(nil), words...), n: n}
}
