package diskfmt

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func TestContainerRoundTrip(t *testing.T) {
	w := NewWriter(7, 0xdeadbeef, "grapes:maxPathLen=4")
	w.AddSection(1, []byte("meta"))
	w.AddSection(2, bytes.Repeat([]byte{0xab}, 1000))
	w.AddSection(3, nil)
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := FromBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if r.Epoch() != 7 || r.Tag() != 0xdeadbeef || r.Spec() != "grapes:maxPathLen=4" {
		t.Fatalf("header = %d/%x/%q", r.Epoch(), r.Tag(), r.Spec())
	}
	if r.Accessed(2) {
		t.Fatal("section 2 marked accessed before any Section call")
	}
	got, err := r.Section(2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{0xab}, 1000)) {
		t.Fatal("section 2 payload mismatch")
	}
	if !r.Accessed(2) || r.Accessed(1) {
		t.Fatal("accessed tracking wrong")
	}
	if s, err := r.Section(3); err != nil || len(s) != 0 {
		t.Fatalf("empty section: %v %d", err, len(s))
	}
	if r.Has(9) || r.SectionLen(9) != -1 {
		t.Fatal("phantom section 9")
	}
	if r.SectionLen(2) != 1000 {
		t.Fatalf("SectionLen(2) = %d", r.SectionLen(2))
	}
}

func TestContainerFileMmapAndHeap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ix")
	w := NewWriter(1, 2, "s")
	w.AddSection(5, []byte("hello sections"))
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mapped := range []bool{false, true} {
		r, err := Open(path, mapped)
		if err != nil {
			t.Fatalf("mapped=%v: %v", mapped, err)
		}
		s, err := r.Section(5)
		if err != nil || string(s) != "hello sections" {
			t.Fatalf("mapped=%v: %q %v", mapped, s, err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestContainerCorruption(t *testing.T) {
	w := NewWriter(3, 4, "")
	w.AddSection(1, bytes.Repeat([]byte("abc"), 100))
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	if _, err := FromBytes([]byte("repro-index v1 epoch 3 tag 4\n")); err != ErrNotDiskFmt {
		t.Fatalf("v1 header: %v", err)
	}
	// Truncated tail: header parses, section overruns.
	if _, err := FromBytes(good[:len(good)-10]); !IsCorrupt(err) {
		t.Fatalf("truncated: %v", err)
	}
	// Bit flip in payload: open succeeds (lazy), Section fails.
	bad := slices.Clone(good)
	bad[len(bad)-1] ^= 0xff
	r, err := FromBytes(bad)
	if err != nil {
		t.Fatalf("open with payload flip: %v", err)
	}
	if _, err := r.Section(1); !IsCorrupt(err) {
		t.Fatalf("section with payload flip: %v", err)
	}
	// Bit flip in header: open fails.
	bad = slices.Clone(good)
	bad[12] ^= 0x01
	if _, err := FromBytes(bad); !IsCorrupt(err) {
		t.Fatalf("header flip: %v", err)
	}
}

func TestPostingsKinds(t *testing.T) {
	cases := map[string][]uint32{
		"empty":  {},
		"array":  {1, 5, 9, 70000, 70002},
		"run":    seq(100, 5000),
		"bitmap": everyOther(0, 12000),
		"mixed":  append(append(seq(0, 300), everyOther(1<<16, 11000)...), 1<<20, 1<<21),
	}
	for name, ids := range cases {
		t.Run(name, func(t *testing.T) {
			enc := EncodePostings(ids)
			if n := postingsLen(ids); n != len(enc) {
				t.Fatalf("postingsLen %d, encoding has %d bytes", n, len(enc))
			}
			dst := make([]byte, 3, 3+len(enc))
			if got := appendPostings(dst, ids); !bytes.Equal(got[3:], enc) || &got[0] != &dst[0] {
				t.Fatalf("appendPostings behind a prefix differs from EncodePostings or regrew its buffer")
			}
			p, err := MakePostings(enc)
			if err != nil {
				t.Fatal(err)
			}
			if p.Cardinality() != len(ids) {
				t.Fatalf("cardinality %d want %d", p.Cardinality(), len(ids))
			}
			if got := p.Decode(); !slices.Equal(got, ids) {
				t.Fatalf("decode mismatch: %d ids vs %d", len(got), len(ids))
			}
			var viaIter []uint32
			it := p.Iterator()
			for v, ok := it.Next(); ok; v, ok = it.Next() {
				viaIter = append(viaIter, v)
			}
			if len(ids) == 0 {
				viaIter = []uint32{}
				ids = []uint32{}
			}
			if !slices.Equal(viaIter, ids) {
				t.Fatalf("iterator mismatch: %v vs %v", len(viaIter), len(ids))
			}
			for _, v := range ids {
				if !p.Contains(v) {
					t.Fatalf("Contains(%d) = false", v)
				}
			}
			for _, v := range []uint32{3, 99999, 1 << 22} {
				if slices.Contains(ids, v) {
					continue
				}
				if p.Contains(v) {
					t.Fatalf("Contains(%d) = true", v)
				}
			}
		})
	}
}

func TestPostingsSetOps(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		a := randomIDs(rng, 1+rng.Intn(3000), 1<<18)
		b := randomIDs(rng, 1+rng.Intn(3000), 1<<18)
		pa, err := MakePostings(EncodePostings(a))
		if err != nil {
			t.Fatal(err)
		}
		pb, err := MakePostings(EncodePostings(b))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := Intersect(pa, pb), refIntersect(a, b); !slices.Equal(nn(got), nn(want)) {
			t.Fatalf("trial %d intersect: %d vs %d ids", trial, len(got), len(want))
		}
		if got, want := Union(pa, pb), refUnion(a, b); !slices.Equal(nn(got), nn(want)) {
			t.Fatalf("trial %d union: %d vs %d ids", trial, len(got), len(want))
		}
	}
}

func nn(s []uint32) []uint32 {
	if s == nil {
		return []uint32{}
	}
	return s
}

func seq(from, n uint32) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = from + uint32(i)
	}
	return out
}

func everyOther(from, n uint32) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = from + 2*uint32(i)
	}
	return out
}

func randomIDs(rng *rand.Rand, n int, max uint32) []uint32 {
	set := make(map[uint32]struct{}, n)
	for len(set) < n {
		set[rng.Uint32()%max] = struct{}{}
	}
	out := make([]uint32, 0, n)
	for v := range set {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

func refIntersect(a, b []uint32) []uint32 {
	in := make(map[uint32]bool, len(a))
	for _, v := range a {
		in[v] = true
	}
	var out []uint32
	for _, v := range b {
		if in[v] {
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}

func refUnion(a, b []uint32) []uint32 {
	set := make(map[uint32]struct{}, len(a)+len(b))
	for _, v := range a {
		set[v] = struct{}{}
	}
	for _, v := range b {
		set[v] = struct{}{}
	}
	out := make([]uint32, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}
