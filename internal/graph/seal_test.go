package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// randomLabelled returns a graph of n vertices over nlab labels with about
// m random edges, in the build phase.
func randomLabelled(rng *rand.Rand, n, m, nlab int) *Graph {
	g := New(0)
	for i := 0; i < n; i++ {
		g.AddVertex(Label(rng.Intn(nlab)))
	}
	for k := 0; k < m && n > 1; k++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

// sealedCopy returns a sealed deep copy of g.
func sealedCopy(g *Graph) *Graph {
	c := g.Clone()
	c.Seal()
	return c
}

// assertSameGraph checks that every accessor answers the same on a and b,
// and that both validate.
func assertSameGraph(t *testing.T, a, b *Graph) {
	t.Helper()
	for _, g := range []*Graph{a, b} {
		if err := g.Validate(); err != nil {
			t.Fatalf("sealed=%v: Validate: %v", g.Sealed(), err)
		}
	}
	n := a.NumVertices()
	if b.NumVertices() != n || a.NumEdges() != b.NumEdges() || a.ID() != b.ID() {
		t.Fatalf("shape differs: %v vs %v", a, b)
	}
	if !slices.Equal(a.Labels(), b.Labels()) {
		t.Fatalf("labels differ")
	}
	for v := int32(0); int(v) < n; v++ {
		if a.Degree(v) != b.Degree(v) || !slices.Equal(a.Neighbors(v), b.Neighbors(v)) {
			t.Fatalf("vertex %d: degree/neighbours differ: %v vs %v", v, a.Neighbors(v), b.Neighbors(v))
		}
		for w := int32(-1); int(w) <= n; w++ {
			if a.HasEdge(v, w) != b.HasEdge(v, w) {
				t.Fatalf("HasEdge(%d,%d) differs", v, w)
			}
		}
	}
	if !reflect.DeepEqual(a.Edges(), b.Edges()) {
		t.Fatalf("Edges differ")
	}
	if !reflect.DeepEqual(a.ConnectedComponents(), b.ConnectedComponents()) || a.IsConnected() != b.IsConnected() {
		t.Fatalf("components differ")
	}
	if !reflect.DeepEqual(a.DistinctLabels(), b.DistinctLabels()) || a.Density() != b.Density() || a.AvgDegree() != b.AvgDegree() {
		t.Fatalf("statistics differ")
	}
	if ca, cb := a.Clone(), b.Clone(); ca.Sealed() || cb.Sealed() || !reflect.DeepEqual(ca, cb) {
		t.Fatalf("clones differ or are sealed")
	}
	if n > 0 {
		pick := []int32{int32(n - 1), 0, int32(n / 2)}
		if n < 3 {
			pick = pick[:1]
		}
		sa, ma, ea := a.InducedSubgraph(pick)
		sb, mb, eb := b.InducedSubgraph(pick)
		if (ea == nil) != (eb == nil) || !reflect.DeepEqual(ma, mb) || (sa != nil && !reflect.DeepEqual(sa.Edges(), sb.Edges())) {
			t.Fatalf("InducedSubgraph differs")
		}
	}
	// The words, where present, agree with the lists and the labels.
	for _, g := range []*Graph{a, b} {
		words := g.AdjWords()
		if want := g.Sealed() && n <= maxWordVertices; (words != nil) != want {
			t.Fatalf("sealed=%v n=%d: AdjWords present=%v, want %v", g.Sealed(), n, words != nil, want)
		}
		if words == nil {
			continue
		}
		for v := int32(0); int(v) < n; v++ {
			for w := int32(0); int(w) < n; w++ {
				if words[v]>>uint(w)&1 != 0 != g.HasEdge(v, w) {
					t.Fatalf("adjacency word of %d disagrees at %d", v, w)
				}
				if g.LabelMask(g.Label(w))>>uint(v)&1 != 0 != (g.Label(v) == g.Label(w)) {
					t.Fatalf("label mask of %d disagrees at %d", g.Label(w), v)
				}
			}
		}
		if g.LabelMask(-1) != 0 || g.LabelMask(1<<20) != 0 {
			t.Fatalf("mask of an absent label is not empty")
		}
	}
}

func TestSealedAgreesWithUnsealed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := []int{0, 1, 2, 5, 17, 63, 64, 65, 100}[trial%9]
		g := randomLabelled(rng, n, rng.Intn(3*n+1), 1+rng.Intn(5))
		s := sealedCopy(g)
		if g.Sealed() || !s.Sealed() {
			t.Fatalf("n=%d: Sealed() wrong", n)
		}
		assertSameGraph(t, g, s)
	}
}

func TestReadDatasetSealsAndAgrees(t *testing.T) {
	in := "#a\n3\nC\nN\nC\n2\n0 1\n1 2\n#b\n1\nO\n0\n#c\n0\n0\n"
	ds, err := ReadDataset(strings.NewReader(in), "r")
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, g := range ds.Graphs {
		if !g.Sealed() {
			t.Fatalf("graph %d read but not sealed", g.ID())
		}
		assertSameGraph(t, g.Clone(), g)
	}
}

func TestDatasetAddSeals(t *testing.T) {
	ds := NewDataset("seal")
	g := buildCycle(t, 0, 1, 2, 1)
	before := ds.VersionTag()
	ds.Add(g)
	if !g.Sealed() {
		t.Fatal("Dataset.Add did not seal the graph")
	}
	// A sealed graph added again (a shard's copy) is left as it is.
	words := g.AdjWords()
	shard := NewDataset("shard")
	shard.Add(g.ShallowWithID(0))
	if &shard.Graph(0).AdjWords()[0] != &words[0] {
		t.Fatal("adding a sealed copy sealed it again")
	}
	// The tag of the sealed graph equals the tag an unsealed twin would
	// give: sealing changes layout, not content.
	twin := NewDataset("twin")
	twin.Add(buildCycle(t, 0, 1, 2, 1))
	if ds.VersionTag() != twin.VersionTag() || ds.VersionTag() == before {
		t.Fatal("VersionTag depends on the layout")
	}
}

func TestMutationUnseals(t *testing.T) {
	g := buildPath(t, 0, 1, 2, 0)
	g.Seal()
	if err := g.AddEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	if g.Sealed() || !g.HasEdge(0, 3) || g.NumEdges() != 4 {
		t.Fatalf("AddEdge on a sealed graph: sealed=%v edges=%d", g.Sealed(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g.Seal()
	v := g.AddVertex(7)
	g.MustAddEdge(v, 1)
	if g.Sealed() || g.Label(v) != 7 || !g.HasEdge(1, v) {
		t.Fatal("AddVertex on a sealed graph lost the vertex or its edge")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// A rejected edge leaves a sealed graph sealed.
	g.Seal()
	if err := g.AddEdge(0, 3); err == nil || !g.Sealed() {
		t.Fatalf("duplicate edge: err=%v sealed=%v", err, g.Sealed())
	}
	assertSameGraph(t, g.Clone(), g)
}

func TestShallowCopySharesSealedStorage(t *testing.T) {
	g := buildCycle(t, 0, 1, 2, 3)
	g.Seal()
	c := g.ShallowWithID(9)
	if c.ID() != 9 || g.ID() != 0 || !c.Sealed() {
		t.Fatal("ShallowWithID lost the id or the seal")
	}
	if &c.Neighbors(1)[0] != &g.Neighbors(1)[0] || &c.AdjWords()[0] != &g.AdjWords()[0] {
		t.Fatal("ShallowWithID copied the sealed storage")
	}
	// Mutating the copy unseals the copy alone.
	c.MustAddEdge(0, 2)
	if !g.Sealed() || g.HasEdge(0, 2) || g.NumEdges() != 4 {
		t.Fatal("mutating a shallow copy changed the original")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSealBoundaries(t *testing.T) {
	empty := New(0)
	empty.Seal()
	if !empty.Sealed() || empty.NumVertices() != 0 || len(empty.Edges()) != 0 || !empty.IsConnected() {
		t.Fatal("sealed empty graph misbehaves")
	}
	if err := empty.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{64, 65} {
		// A path whose last vertex carries its own label, so the top bit of
		// a 64-vertex graph's words and masks is in use.
		g := New(0)
		for i := 0; i < n; i++ {
			g.AddVertex(Label(i % 2))
		}
		g.labels[n-1] = 5
		for i := 1; i < n; i++ {
			g.MustAddEdge(int32(i-1), int32(i))
		}
		s := sealedCopy(g)
		assertSameGraph(t, g, s)
		if words := s.AdjWords(); n == 64 {
			if words[63] != 1<<62 || s.LabelMask(5) != 1<<63 {
				t.Fatalf("top bit wrong: row %x mask %x", words[63], s.LabelMask(5))
			}
		} else if words != nil || s.LabelMask(5) != 0 {
			t.Fatal("a 65-vertex graph carries words")
		}
	}
}

// TestSizeBytesPinned pins the footprint both layouts report for the same
// graphs: per vertex a slice header and list in the build phase; CSR plus
// the words actually held once sealed.
func TestSizeBytesPinned(t *testing.T) {
	const (
		graphBytes  = 72 // id, labels and adj headers, edge count, layout pointer
		layoutBytes = 72 // off, nbr and words headers
	)
	path3 := buildPath(t, 0, 1, 0)
	// labels 12 + lists (1+2+1)*4 + 3 headers*24
	if got, want := path3.SizeBytes(), int64(12+16+72+graphBytes); got != want {
		t.Fatalf("unsealed path3: SizeBytes=%d, want %d", got, want)
	}
	path3.Seal()
	// labels 12 + off 4*4 + nbr 4*4 + words (3 rows + 2 label pairs)*8
	if got, want := path3.SizeBytes(), int64(12+16+16+7*8+layoutBytes+graphBytes); got != want {
		t.Fatalf("sealed path3: SizeBytes=%d, want %d", got, want)
	}
	big := New(0)
	for i := 0; i < 65; i++ {
		big.AddVertex(0)
	}
	for i := 1; i < 65; i++ {
		big.MustAddEdge(int32(i-1), int32(i))
	}
	if got, want := big.SizeBytes(), int64(65*4+128*4+65*24+graphBytes); got != want {
		t.Fatalf("unsealed path65: SizeBytes=%d, want %d", got, want)
	}
	ds := NewDataset("size")
	ds.Add(big) // no words past 64 vertices: labels, off, nbr
	if got, want := ds.SizeBytes(), int64(65*4+66*4+128*4+layoutBytes+graphBytes); got != want {
		t.Fatalf("sealed path65: SizeBytes=%d, want %d", got, want)
	}
}
