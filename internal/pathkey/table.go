package pathkey

import (
	"maps"
	"math/bits"
	"slices"

	"repro/internal/graph"
)

// Alphabet returns the distinct labels of ds's live graphs, the alphabet a
// build packs its keys over.
func Alphabet(ds *graph.Dataset) []graph.Label {
	seen := make(map[graph.Label]struct{})
	for i, g := range ds.Graphs {
		if ds.Alive(graph.ID(i)) {
			for _, l := range g.Labels() {
				seen[l] = struct{}{}
			}
		}
	}
	return slices.Collect(maps.Keys(seen))
}

// Table numbers distinct packed keys of w words in order of first sight:
// an open-addressing hash table, at most half full, over one flat array of
// key words.
type Table struct {
	w     int
	keys  []uint64 // key k is keys[k*w : (k+1)*w]
	slots []int32  // k+1 per occupied slot, 0 when empty
}

// NewTable returns an empty table of w-word keys, with room for the few
// hundred keys of one graph before it first grows.
func NewTable(w int) *Table { return &Table{w: w, slots: make([]int32, 1024)} }

// Len returns the number of keys.
func (t *Table) Len() int { return len(t.keys) / t.w }

// Key returns key k.
func (t *Table) Key(k int) []uint64 { return t.keys[k*t.w : (k+1)*t.w] }

// Find returns key's number, adding it when new; added reports that.
func (t *Table) Find(key []uint64) (k int, added bool) {
	i := t.slot(key)
	for ; t.slots[i] != 0; i = (i + 1) & (len(t.slots) - 1) {
		if k := int(t.slots[i]) - 1; slices.Equal(t.Key(k), key) {
			return k, false
		}
	}
	k = t.Len()
	t.keys = append(t.keys, key...)
	t.slots[i] = int32(k + 1)
	if 2*(k+1) > len(t.slots) { // grow, and place every key anew
		t.slots = make([]int32, 2*len(t.slots))
		for k := range t.Len() {
			i := t.slot(t.Key(k))
			for t.slots[i] != 0 {
				i = (i + 1) & (len(t.slots) - 1)
			}
			t.slots[i] = int32(k + 1)
		}
	}
	return k, true
}

// slot returns the first slot of key's probe sequence: the top bits of a
// multiplicative hash, which depend on every bit of the key.
func (t *Table) slot(key []uint64) int {
	h := uint64(0)
	for _, x := range key {
		h = (h ^ x) * 0x9E3779B97F4A7C15
	}
	return int(h >> (64 - bits.Len(uint(len(t.slots)-1))))
}
