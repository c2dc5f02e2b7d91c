package diskfmt

import (
	"encoding/binary"
	"sort"

	"repro/internal/canon"
	"repro/internal/graph"
)

// EncodeIDs encodes a sorted, duplicate-free graph-id set (EncodePostings
// over graph ids).
func EncodeIDs(ids graph.IDSet) []byte {
	return appendPostings(make([]byte, 0, postingsLen(ids)), ids)
}

// EncodedIDsLen returns len(EncodeIDs(ids)) without encoding, so a writer
// can size a section before filling it.
func EncodedIDsLen(ids graph.IDSet) int { return postingsLen(ids) }

// AppendIDs appends EncodeIDs(ids) to dst; with EncodedIDsLen(ids) bytes
// of spare capacity, dst does not grow.
func AppendIDs(dst []byte, ids graph.IDSet) []byte { return appendPostings(dst, ids) }

// DecodeIDs materializes the posting as graph ids of a dataset with n
// slots, rejecting what no index over that dataset can hold: an id >= n,
// or ids out of strictly ascending order. Either bounds the work by n, so
// a damaged run or cardinality field cannot blow the decode up.
func (p Postings) DecodeIDs(n int) (graph.IDSet, error) {
	out := make(graph.IDSet, 0, min(p.Cardinality(), n))
	var err error
	p.ForEach(func(v uint32) bool {
		if v >= uint32(n) || (len(out) > 0 && graph.ID(v) <= out[len(out)-1]) {
			err = corruptf("posting id %d out of order or beyond %d graphs", v, n)
			return false
		}
		out = append(out, graph.ID(v))
		return true
	})
	return out, err
}

// EncodeKeyedPostings lays a feature-key → posting table out as one section
// payload, keys in ascending byte order so the same table always yields
// the same bytes: per key {keyLen u32, key, postLen u32, postings}, to the
// end of the section.
func EncodeKeyedPostings(m map[canon.Key]graph.IDSet) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	var out []byte
	for _, k := range keys {
		enc := EncodeIDs(m[canon.Key(k)])
		out = binary.LittleEndian.AppendUint32(out, uint32(len(k)))
		out = append(out, k...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(enc)))
		out = append(out, enc...)
	}
	return out
}

// DecodeKeyedPostings is the inverse of EncodeKeyedPostings for an index
// over a dataset with n slots. Every length is checked against the bytes
// that remain, keys must ascend, and ids are validated by DecodeIDs.
func DecodeKeyedPostings(b []byte, n int) (map[canon.Key]graph.IDSet, error) {
	// next cuts a u32-length-prefixed field off the front of b.
	next := func() ([]byte, error) {
		if len(b) < 4 || uint64(binary.LittleEndian.Uint32(b)) > uint64(len(b)-4) {
			return nil, corruptf("keyed postings: field overruns the remaining %d bytes", len(b))
		}
		l := binary.LittleEndian.Uint32(b)
		field := b[4 : 4+l]
		b = b[4+l:]
		return field, nil
	}
	m := make(map[canon.Key]graph.IDSet)
	for prev := canon.Key(""); len(b) > 0; {
		key, err := next()
		if err != nil {
			return nil, err
		}
		enc, err := next()
		if err != nil {
			return nil, err
		}
		if len(m) > 0 && canon.Key(key) <= prev {
			return nil, corruptf("keyed postings: key %d out of order", len(m))
		}
		prev = canon.Key(key)
		ps, err := MakePostings(enc)
		if err != nil {
			return nil, err
		}
		if m[prev], err = ps.DecodeIDs(n); err != nil {
			return nil, err
		}
	}
	return m, nil
}
