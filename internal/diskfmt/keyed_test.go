package diskfmt

import (
	"bytes"
	"encoding/binary"
	"maps"
	"slices"
	"testing"

	"repro/internal/canon"
	"repro/internal/graph"
)

// TestKeyedPostingsRoundTrip: the shared hash-table section codec returns
// what it was given, writes the same bytes for the same table whatever the
// map's iteration order, and refuses every damaged form rather than
// handing back ids the dataset cannot hold.
func TestKeyedPostingsRoundTrip(t *testing.T) {
	table := map[canon.Key]graph.IDSet{
		"":      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		"a":     {3},
		"a|b":   {0, 9},
		"\x00z": {},
	}
	enc := EncodeKeyedPostings(table)
	for range 8 {
		if !bytes.Equal(enc, EncodeKeyedPostings(maps.Clone(table))) {
			t.Fatal("two encodings of one table differ")
		}
	}
	got, err := DecodeKeyedPostings(enc, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !maps.EqualFunc(got, table, func(a, b graph.IDSet) bool { return slices.Equal(a, b) }) {
		t.Fatalf("round trip = %v, want %v", got, table)
	}

	// entry encodes one {key, ids} entry, ids taken as given.
	entry := func(key string, ids ...uint32) []byte {
		ps := EncodePostings(ids)
		b := binary.LittleEndian.AppendUint32(nil, uint32(len(key)))
		b = append(b, key...)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(ps)))
		return append(b, ps...)
	}
	bad := map[string][]byte{
		"id beyond graphs": enc, // decoded below against 9 graphs
		"truncated":        enc[:len(enc)-3],
		"trailing byte":    append(bytes.Clone(enc), 0),
		"keys descending":  append(entry("b", 1), entry("a", 2)...),
		"key repeated":     append(entry("a", 1), entry("a", 2)...),
		"key overruns":     binary.LittleEndian.AppendUint32(entry("a", 1), 1<<20),
		"ids descending":   entry("a", 1<<16, 5),
	}
	for name, b := range bad {
		n := 10
		if name == "id beyond graphs" {
			n = 9
		}
		if name == "ids descending" {
			n = 1 << 20
		}
		if m, err := DecodeKeyedPostings(b, n); err == nil {
			t.Errorf("%s: decoded to %v, want an error", name, m)
		} else if !IsCorrupt(err) {
			t.Errorf("%s: error %v is not a CorruptError", name, err)
		}
	}
}
