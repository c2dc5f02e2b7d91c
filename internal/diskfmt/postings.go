package diskfmt

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// Compressed posting lists: sorted uint32 id sets split into 64K blocks
// keyed by the high 16 bits, each block stored as whichever of three
// container kinds is smallest — the classic roaring layout. The encoded
// form is position-independent and fixed-endian, so it can be read
// straight out of an mmap'd section without a decode pass, and
// intersection/union operate container-by-container on the compressed
// bytes. This replaces raw bitset words (internal/bitset) on disk: a
// sparse posting over a million-graph corpus costs 2 bytes per id instead
// of 128 KiB of words.
//
// Layout:
//
//	nContainers uint32
//	nContainers × {key uint16, kind uint16, card uint32, off uint32}
//	payload (containers in table order; off is relative to payload start)
//
// Container kinds:
//
//	kindArray  — card × uint16, sorted low bits
//	kindBitmap — 8192 bytes, bit i set ⇔ low-16 value i present
//	kindRun    — nRuns uint32, then nRuns × {start uint16, last uint16}
const (
	kindArray  = 0
	kindBitmap = 1
	kindRun    = 2

	bitmapBytes     = 8192
	arrayMaxCard    = 4096
	ctrlEntrySize   = 12
	postingsHdrSize = 4
)

// Postings is a validated view over an encoded posting list. The zero
// value is an empty set.
type Postings struct {
	ctrl    []byte // container table
	payload []byte
	n       int // container count
}

// EncodePostings encodes a sorted, duplicate-free slice of ids. Passing
// an unsorted slice is a programming error; results would be garbage.
func EncodePostings(ids []uint32) []byte {
	return appendPostings(make([]byte, 0, postingsLen(ids)), ids)
}

// idSet is the element type of an encodable id set.
type idSet interface{ ~uint32 | ~int32 }

// nextContainer sizes the container that starts at ids[i], the ids that
// share its high 16 bits: it returns the index past them, the container's
// kind, its run count, and its payload bytes.
func nextContainer[T idSet](ids []T, i int) (end, kind, runs, size int) {
	key := uint32(ids[i]) >> 16
	end, runs = i+1, 1
	for end < len(ids) && uint32(ids[end])>>16 == key {
		if uint32(ids[end]) != uint32(ids[end-1])+1 {
			runs++
		}
		end++
	}
	card := end - i
	arrayCost := 1 << 30
	if card <= arrayMaxCard {
		arrayCost = 2 * card
	}
	runCost := 4 + 4*runs
	switch {
	case runCost < arrayCost && runCost < bitmapBytes:
		return end, kindRun, runs, runCost
	case arrayCost <= bitmapBytes:
		return end, kindArray, runs, arrayCost
	default:
		return end, kindBitmap, runs, bitmapBytes
	}
}

// postingsLen returns the encoded length of ids without encoding them.
func postingsLen[T idSet](ids []T) int {
	n := postingsHdrSize
	for i := 0; i < len(ids); {
		end, _, _, size := nextContainer(ids, i)
		n += ctrlEntrySize + size
		i = end
	}
	return n
}

// appendPostings appends the encoding of ids to dst: the container table
// is reserved first and filled as each payload is written, so dst sized by
// postingsLen never grows.
func appendPostings[T idSet](dst []byte, ids []T) []byte {
	nContainers := 0
	for i := range ids {
		if i == 0 || uint32(ids[i])>>16 != uint32(ids[i-1])>>16 {
			nContainers++
		}
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(nContainers))
	ctrl := len(dst)
	dst = append(dst, make([]byte, nContainers*ctrlEntrySize)...)
	base := len(dst)
	for i := 0; i < len(ids); {
		end, kind, runs, _ := nextContainer(ids, i)
		block := ids[i:end]
		c := dst[ctrl : ctrl+ctrlEntrySize]
		binary.LittleEndian.PutUint16(c, uint16(uint32(block[0])>>16))
		binary.LittleEndian.PutUint16(c[2:], uint16(kind))
		binary.LittleEndian.PutUint32(c[4:], uint32(len(block)))
		binary.LittleEndian.PutUint32(c[8:], uint32(len(dst)-base))
		ctrl += ctrlEntrySize
		switch kind {
		case kindArray:
			for _, v := range block {
				dst = binary.LittleEndian.AppendUint16(dst, uint16(v))
			}
		case kindBitmap:
			start := len(dst)
			dst = append(dst, make([]byte, bitmapBytes)...)
			bm := dst[start:]
			for _, v := range block {
				low := uint16(v)
				bm[low>>3] |= 1 << (low & 7)
			}
		case kindRun:
			dst = binary.LittleEndian.AppendUint32(dst, uint32(runs))
			runStart, prev := uint32(block[0]), uint32(block[0])
			for _, v := range block[1:] {
				if uint32(v) != prev+1 {
					dst = binary.LittleEndian.AppendUint16(dst, uint16(runStart))
					dst = binary.LittleEndian.AppendUint16(dst, uint16(prev))
					runStart = uint32(v)
				}
				prev = uint32(v)
			}
			dst = binary.LittleEndian.AppendUint16(dst, uint16(runStart))
			dst = binary.LittleEndian.AppendUint16(dst, uint16(prev))
		}
		i = end
	}
	return dst
}

// MakePostings validates the structure of an encoded posting list and
// returns a view over it. The view aliases b.
func MakePostings(b []byte) (Postings, error) {
	if len(b) < postingsHdrSize {
		return Postings{}, corruptf("postings of %d bytes shorter than header", len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	if uint64(postingsHdrSize)+uint64(n)*ctrlEntrySize > uint64(len(b)) {
		return Postings{}, corruptf("postings container table overruns %d bytes", len(b))
	}
	p := Postings{
		ctrl:    b[postingsHdrSize : postingsHdrSize+int(n)*ctrlEntrySize],
		payload: b[postingsHdrSize+int(n)*ctrlEntrySize:],
		n:       int(n),
	}
	for i := 0; i < p.n; i++ {
		_, kind, card, off := p.container(i)
		var size uint64
		switch kind {
		case kindArray:
			if card > arrayMaxCard {
				return Postings{}, corruptf("array container cardinality %d", card)
			}
			size = 2 * uint64(card)
		case kindBitmap:
			size = bitmapBytes
		case kindRun:
			if uint64(off)+4 > uint64(len(p.payload)) {
				return Postings{}, corruptf("run container header overruns payload")
			}
			runs := binary.LittleEndian.Uint32(p.payload[off:])
			if runs > 1<<16 {
				return Postings{}, corruptf("run container with %d runs", runs)
			}
			size = 4 + 4*uint64(runs)
		default:
			return Postings{}, corruptf("unknown container kind %d", kind)
		}
		if uint64(off)+size > uint64(len(p.payload)) {
			return Postings{}, corruptf("container %d overruns payload of %d bytes", i, len(p.payload))
		}
	}
	return p, nil
}

func (p Postings) container(i int) (key uint32, kind int, card uint32, off uint32) {
	e := p.ctrl[i*ctrlEntrySize:]
	key = uint32(binary.LittleEndian.Uint16(e))
	kind = int(binary.LittleEndian.Uint16(e[2:]))
	card = binary.LittleEndian.Uint32(e[4:])
	off = binary.LittleEndian.Uint32(e[8:])
	return
}

// Cardinality returns the number of ids without decoding any container.
func (p Postings) Cardinality() int {
	total := 0
	for i := 0; i < p.n; i++ {
		_, _, card, _ := p.container(i)
		total += int(card)
	}
	return total
}

// ForEach calls yield for every id in ascending order until yield returns
// false.
func (p Postings) ForEach(yield func(uint32) bool) {
	for i := 0; i < p.n; i++ {
		key, kind, _, off := p.container(i)
		hi := key << 16
		switch kind {
		case kindArray:
			_, _, card, _ := p.container(i)
			a := p.payload[off:]
			for k := uint32(0); k < card; k++ {
				if !yield(hi | uint32(binary.LittleEndian.Uint16(a[2*k:]))) {
					return
				}
			}
		case kindBitmap:
			bm := p.payload[off : off+bitmapBytes]
			for w := 0; w < bitmapBytes; w += 8 {
				word := binary.LittleEndian.Uint64(bm[w:])
				for word != 0 {
					b := bits.TrailingZeros64(word)
					if !yield(hi | uint32(w*8+b)) {
						return
					}
					word &= word - 1
				}
			}
		case kindRun:
			runs := binary.LittleEndian.Uint32(p.payload[off:])
			for r := uint32(0); r < runs; r++ {
				e := p.payload[off+4+4*r:]
				start := uint32(binary.LittleEndian.Uint16(e))
				last := uint32(binary.LittleEndian.Uint16(e[2:]))
				for v := start; v <= last; v++ {
					if !yield(hi | v) {
						return
					}
				}
			}
		}
	}
}

// Decode materializes the full id slice.
func (p Postings) Decode() []uint32 {
	out := make([]uint32, 0, p.Cardinality())
	p.ForEach(func(v uint32) bool { out = append(out, v); return true })
	return out
}

// Contains reports membership without decoding the posting list.
func (p Postings) Contains(v uint32) bool {
	key := v >> 16
	low := uint16(v)
	for i := 0; i < p.n; i++ {
		k, kind, card, off := p.container(i)
		if k != key {
			continue
		}
		switch kind {
		case kindArray:
			a := p.payload[off : off+2*card]
			lo, hi := 0, int(card)
			for lo < hi {
				mid := (lo + hi) / 2
				if binary.LittleEndian.Uint16(a[2*mid:]) < low {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			return lo < int(card) && binary.LittleEndian.Uint16(a[2*lo:]) == low
		case kindBitmap:
			return p.payload[off+uint32(low>>3)]&(1<<(low&7)) != 0
		case kindRun:
			runs := binary.LittleEndian.Uint32(p.payload[off:])
			for r := uint32(0); r < runs; r++ {
				e := p.payload[off+4+4*r:]
				start := binary.LittleEndian.Uint16(e)
				last := binary.LittleEndian.Uint16(e[2:])
				if low >= start && low <= last {
					return true
				}
			}
			return false
		}
	}
	return false
}

// Iterator walks a posting list in ascending id order.
type Iterator struct {
	p    Postings
	ci   int    // current container index
	hi   uint32 // current container's high bits, pre-shifted
	kind int
	card uint32
	off  uint32
	pos  uint32 // array: next element index; bitmap: next bit index; run: run index
	run  uint32 // run kind: next value within current run
	done bool
}

// Iterator returns a fresh iterator positioned before the first id.
func (p Postings) Iterator() *Iterator {
	it := &Iterator{p: p, ci: -1}
	it.nextContainer()
	return it
}

func (it *Iterator) nextContainer() {
	it.ci++
	if it.ci >= it.p.n {
		it.done = true
		return
	}
	key, kind, card, off := it.p.container(it.ci)
	it.hi = key << 16
	it.kind = kind
	it.card = card
	it.off = off
	it.pos = 0
	if kind == kindRun {
		e := it.p.payload[off+4:]
		it.run = uint32(binary.LittleEndian.Uint16(e))
	}
}

// Next returns the next id, or ok=false when exhausted.
func (it *Iterator) Next() (uint32, bool) {
	for !it.done {
		switch it.kind {
		case kindArray:
			if it.pos < it.card {
				v := it.hi | uint32(binary.LittleEndian.Uint16(it.p.payload[it.off+2*it.pos:]))
				it.pos++
				return v, true
			}
		case kindBitmap:
			bm := it.p.payload[it.off : it.off+bitmapBytes]
			for it.pos < bitmapBytes*8 {
				w := it.pos >> 6
				word := binary.LittleEndian.Uint64(bm[w*8:]) >> (it.pos & 63)
				if word == 0 {
					it.pos = (w + 1) << 6
					continue
				}
				v := it.pos + uint32(bits.TrailingZeros64(word))
				it.pos = v + 1
				return it.hi | v, true
			}
		case kindRun:
			runs := binary.LittleEndian.Uint32(it.p.payload[it.off:])
			for it.pos < runs {
				e := it.p.payload[it.off+4+4*it.pos:]
				last := uint32(binary.LittleEndian.Uint16(e[2:]))
				if it.run <= last {
					v := it.hi | it.run
					it.run++
					return v, true
				}
				it.pos++
				if it.pos < runs {
					e = it.p.payload[it.off+4+4*it.pos:]
					it.run = uint32(binary.LittleEndian.Uint16(e))
				}
			}
		}
		it.nextContainer()
	}
	return 0, false
}

// Intersect returns the sorted intersection of two posting lists,
// operating container-by-container on the compressed form: only
// containers whose 64K block appears on both sides are touched at all.
func Intersect(a, b Postings) []uint32 {
	var out []uint32
	ai, bi := 0, 0
	for ai < a.n && bi < b.n {
		ak, _, _, _ := a.container(ai)
		bk, _, _, _ := b.container(bi)
		switch {
		case ak < bk:
			ai++
		case bk < ak:
			bi++
		default:
			out = appendContainerOp(out, a, ai, b, bi, true)
			ai++
			bi++
		}
	}
	return out
}

// Union returns the sorted union of two posting lists.
func Union(a, b Postings) []uint32 {
	var out []uint32
	ai, bi := 0, 0
	for ai < a.n || bi < b.n {
		switch {
		case bi >= b.n:
			out = appendContainer(out, a, ai)
			ai++
		case ai >= a.n:
			out = appendContainer(out, b, bi)
			bi++
		default:
			ak, _, _, _ := a.container(ai)
			bk, _, _, _ := b.container(bi)
			switch {
			case ak < bk:
				out = appendContainer(out, a, ai)
				ai++
			case bk < ak:
				out = appendContainer(out, b, bi)
				bi++
			default:
				out = appendContainerOp(out, a, ai, b, bi, false)
				ai++
				bi++
			}
		}
	}
	return out
}

func appendContainer(out []uint32, p Postings, i int) []uint32 {
	key, _, _, _ := p.container(i)
	hi := key << 16
	words := containerWords(p, i)
	for w, word := range words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			out = append(out, hi|uint32(w*64+b))
			word &= word - 1
		}
	}
	return out
}

// appendContainerOp appends the AND (intersect=true) or OR of two
// same-key containers.
func appendContainerOp(out []uint32, a Postings, ai int, b Postings, bi int, intersect bool) []uint32 {
	ak, akind, acard, _ := a.container(ai)
	_, bkind, bcard, _ := b.container(bi)
	hi := ak << 16
	// Array∩array fast path: merge directly without word expansion.
	if intersect && akind == kindArray && bkind == kindArray {
		av := arrayValues(a, ai, acard)
		bv := arrayValues(b, bi, bcard)
		x, y := 0, 0
		for x < len(av) && y < len(bv) {
			switch {
			case av[x] < bv[y]:
				x++
			case bv[y] < av[x]:
				y++
			default:
				out = append(out, hi|uint32(av[x]))
				x++
				y++
			}
		}
		return out
	}
	aw := containerWords(a, ai)
	bw := containerWords(b, bi)
	for w := range aw {
		word := aw[w] & bw[w]
		if !intersect {
			word = aw[w] | bw[w]
		}
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			out = append(out, hi|uint32(w*64+bit))
			word &= word - 1
		}
	}
	return out
}

func arrayValues(p Postings, i int, card uint32) []uint16 {
	_, _, _, off := p.container(i)
	vals := make([]uint16, card)
	for k := range vals {
		vals[k] = binary.LittleEndian.Uint16(p.payload[off+2*uint32(k):])
	}
	return vals
}

// containerWords expands one container into a 1024-word bitmap.
func containerWords(p Postings, i int) []uint64 {
	_, kind, card, off := p.container(i)
	words := make([]uint64, bitmapBytes/8)
	switch kind {
	case kindArray:
		a := p.payload[off:]
		for k := uint32(0); k < card; k++ {
			v := binary.LittleEndian.Uint16(a[2*k:])
			words[v>>6] |= 1 << (v & 63)
		}
	case kindBitmap:
		bm := p.payload[off : off+bitmapBytes]
		for w := range words {
			words[w] = binary.LittleEndian.Uint64(bm[w*8:])
		}
	case kindRun:
		runs := binary.LittleEndian.Uint32(p.payload[off:])
		for r := uint32(0); r < runs; r++ {
			e := p.payload[off+4+4*r:]
			start := binary.LittleEndian.Uint16(e)
			last := binary.LittleEndian.Uint16(e[2:])
			for v := uint32(start); v <= uint32(last); v++ {
				words[v>>6] |= 1 << (v & 63)
			}
		}
	}
	return words
}

// EncodeSorted is a convenience for callers holding possibly-unsorted
// ids: it sorts and dedups a copy, then encodes.
func EncodeSorted(ids []uint32) []byte {
	c := slices.Clone(ids)
	slices.Sort(c)
	c = slices.Compact(c)
	return EncodePostings(c)
}
