package pathkey

import (
	"encoding/binary"
	"maps"
	"slices"
	"sync"

	"repro/internal/canon"
	"repro/internal/diskfmt"
)

// Container sections of a key directory. Both path methods write them
// under these ids, after their meta section (id 1); WriteDir writes them
// and Mapped reads them in place.
//
//	SecKeyDir   per key, ascending: {keyOff, keyLen, card, postOff, postLen} (5×u32)
//	SecKeyBlob  concatenated key bytes
//	SecPostings concatenated posting records, in the method's own layout
const (
	SecKeyDir   = 2
	SecKeyBlob  = 3
	SecPostings = 4

	entrySize = 20
)

// Sections are the key directory's sections, in file order.
var Sections = []uint32{SecKeyDir, SecKeyBlob, SecPostings}

// WriteDir adds the key directory of heap to w: its keys ascending, each
// posting's record as appendRecord writes it, recordLen bytes long, and
// its cardinality as card gives it. A counting pass sizes every section
// before a filling pass writes it, so no section grows.
func WriteDir[P any](w *diskfmt.Writer, heap map[canon.Key]*P, card, recordLen func(*P) int,
	appendRecord func([]byte, *P) []byte) {
	keys := slices.Sorted(maps.Keys(heap))
	keyLen, postLen := 0, 0
	for _, k := range keys {
		keyLen += len(k)
		postLen += recordLen(heap[k])
	}
	dir := make([]byte, 0, len(keys)*entrySize)
	blob := make([]byte, 0, keyLen)
	post := make([]byte, 0, postLen)
	for _, k := range keys {
		p := heap[k]
		off := len(post)
		post = appendRecord(post, p)
		for _, v := range []int{len(blob), len(k), card(p), off, len(post) - off} {
			dir = binary.LittleEndian.AppendUint32(dir, uint32(v))
		}
		blob = append(blob, k...)
	}
	w.AddSection(SecKeyDir, dir)
	w.AddSection(SecKeyBlob, blob)
	w.AddSection(SecPostings, post)
}

// Feature is one distinct query key resolved against one index.
type Feature[P any] struct {
	Post  *P
	Count int32 // path visits in the query; a candidate needs as many
	Slot  int32 // directory slot, when mapped
}

// rankPool holds Resolve's sort keys, pooled across queries.
var rankPool = sync.Pool{New: func() any { return new([]uint64) }}

// Resolve looks every key of q up exactly once — in heap, whose postings
// hold card(p) ids, or when m is non-nil by binary search in its mapped
// directory, decoding the postings it needs — and returns the features
// sorted on (posting cardinality, key), rarest first. ok is false when
// some key is in no indexed graph; no posting is decoded then.
func Resolve[P any](q *Query, heap map[canon.Key]*P, card func(*P) int, m *Mapped[P]) (feats []Feature[P], ok bool, err error) {
	if m != nil {
		if err := m.Fetch(); err != nil {
			return nil, false, err
		}
	}
	n := q.Len()
	all := make([]Feature[P], 2*n)
	byKey, feats := all[n:], all[:n:n]
	// card<<32 | key position: sorting these sorts on (card, key), because
	// q holds its keys in ascending order.
	rp := rankPool.Get().(*[]uint64)
	rank := (*rp)[:0]
	defer func() { *rp = rank; rankPool.Put(rp) }()
	for i := range byKey {
		f := &byKey[i]
		f.Count = q.Count(i)
		var c int
		if m != nil {
			slot, ok := m.find(q.Key(i))
			if !ok {
				return nil, false, nil
			}
			f.Slot, c = int32(slot), m.card(slot)
		} else {
			if f.Post = heap[canon.Key(q.Key(i))]; f.Post == nil {
				return nil, false, nil
			}
			c = card(f.Post)
		}
		rank = append(rank, uint64(c)<<32|uint64(i))
	}
	slices.Sort(rank)
	for k, r := range rank {
		feats[k] = byKey[uint32(r)]
		if m != nil {
			if feats[k].Post, err = m.Posting(int(feats[k].Slot)); err != nil {
				return nil, false, err
			}
		}
	}
	return feats, true, nil
}
