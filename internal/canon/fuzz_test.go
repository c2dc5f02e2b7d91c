package canon

import (
	"testing"

	"repro/internal/graph"
)

// FuzzPathKey checks reversal invariance and length discrimination on
// arbitrary label sequences.
func FuzzPathKey(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{})
	f.Add([]byte{7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, raw []byte) {
		seq := make([]graph.Label, len(raw))
		rev := make([]graph.Label, len(raw))
		for i, b := range raw {
			seq[i] = graph.Label(b)
			rev[len(raw)-1-i] = graph.Label(b)
		}
		if PathKey(seq) != PathKey(rev) {
			t.Fatalf("reversal changed key: %v", seq)
		}
		if len(seq) > 0 && PathKey(seq) == PathKey(seq[:len(seq)-1]) {
			t.Fatalf("prefix shares key: %v", seq)
		}
	})
}

// FuzzCycleKey checks rotation and reflection invariance.
func FuzzCycleKey(f *testing.F) {
	f.Add([]byte{1, 2, 3}, uint8(1))
	f.Add([]byte{5, 5, 5, 5}, uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, rot uint8) {
		if len(raw) == 0 || len(raw) > 32 {
			return
		}
		n := len(raw)
		seq := make([]graph.Label, n)
		for i, b := range raw {
			seq[i] = graph.Label(b % 7)
		}
		want := CycleKey(seq)
		r := int(rot) % n
		rotated := append(append([]graph.Label{}, seq[r:]...), seq[:r]...)
		if CycleKey(rotated) != want {
			t.Fatalf("rotation changed key: %v rot %d", seq, r)
		}
		ref := make([]graph.Label, n)
		for i := range seq {
			ref[i] = seq[n-1-i]
		}
		if CycleKey(ref) != want {
			t.Fatalf("reflection changed key: %v", seq)
		}
	})
}

// FuzzTreeKeyEdgesAgainstReference cross-checks the fast canonizer against
// the reference on fuzz-built trees.
func FuzzTreeKeyEdgesAgainstReference(f *testing.F) {
	f.Add([]byte{0, 1, 2}, []byte{1, 2, 0, 1})
	f.Fuzz(func(t *testing.T, parents []byte, labels []byte) {
		n := len(parents) + 1
		if n < 2 || n > 11 || len(labels) == 0 {
			return
		}
		g := graph.New(0)
		for i := 0; i < n; i++ {
			g.AddVertex(graph.Label(labels[i%len(labels)] % 5))
		}
		for i := 1; i < n; i++ {
			g.MustAddEdge(int32(int(parents[i-1])%i), int32(i))
		}
		want, ok := TreeKey(g)
		if !ok {
			t.Fatalf("reference rejected tree")
		}
		ts := NewTreeScratch(n)
		got, ok := ts.TreeKeyEdges(g.Edges(), func(v int32) graph.Label { return g.Label(v) })
		if !ok || got != want {
			t.Fatalf("fast canonizer diverged: %q vs %q", got, want)
		}
	})
}

// FuzzKeyRoundTrip: KeyGraph inverts the key families mined indexes store.
// A connected graph, a tree and a cycle built from the input each key to
// bytes that decode to a graph re-keying to the same bytes. Arbitrary
// bytes decode only to such a graph, or to ok=false, and never panic.
func FuzzKeyRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 2}, []byte{1, 2, 0, 1}, []byte("T(\x01\x00\x00\x00)"))
	f.Add([]byte{0, 0, 1, 3, 2}, []byte{7}, []byte("C\x00\x00\x00\x00"))
	f.Add([]byte{}, []byte{}, []byte("G\x00\x00\x01\x00\x02\x00\x00\x00\x02\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, shape, labels, raw []byte) {
		if g, ok := KeyGraph(Key(raw)); ok && familyKey(raw[0], g) != Key(raw) {
			t.Fatalf("%q decodes to %v, which keys to %q", raw, g, familyKey(raw[0], g))
		}
		n := len(shape) + 1
		if n < 2 || n > 9 || len(labels) == 0 {
			return
		}
		label := func(i int) graph.Label { return graph.Label(labels[i%len(labels)] % 5) }
		tree, cycle := graph.New(0), graph.New(0)
		for i := range n {
			tree.AddVertex(label(i))
			cycle.AddVertex(label(i))
		}
		for i := 1; i < n; i++ {
			tree.MustAddEdge(int32(int(shape[i-1])%i), int32(i))
			cycle.MustAddEdge(int32(i-1), int32(i))
		}
		connected := tree.Clone()
		for i := 0; i+1 < len(shape); i += 2 {
			u, v := int32(int(shape[i])%n), int32(int(shape[i+1])%n)
			if u != v && !connected.HasEdge(u, v) {
				connected.MustAddEdge(u, v)
			}
		}
		var keys []Key
		if k, ok := TreeKey(tree); ok {
			keys = append(keys, k)
		}
		if k, ok := GraphKey(connected); ok {
			keys = append(keys, k)
		}
		if n >= 3 {
			cycle.MustAddEdge(int32(n-1), 0)
			keys = append(keys, familyKey('C', cycle))
		}
		for _, k := range keys {
			g, ok := KeyGraph(k)
			if !ok {
				t.Fatalf("key %q does not decode", k)
			}
			if got := familyKey(k[0], g); got != k {
				t.Fatalf("key %q decodes to %v, which keys to %q", k, g, got)
			}
		}
	})
}

// familyKey keys g in the family whose prefix is prefix.
func familyKey(prefix byte, g *graph.Graph) Key {
	var k Key
	switch prefix {
	case 'G':
		k, _ = GraphKey(g)
	case 'T':
		k, _ = TreeKey(g)
	case 'C':
		if seq, ok := asCycle(g); ok {
			k = CycleKey(seq)
		}
	}
	return k
}
