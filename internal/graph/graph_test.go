package graph

import (
	"bytes"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// buildPath returns a path graph v0-v1-...-v(n-1) with the given labels.
func buildPath(t *testing.T, labels ...Label) *Graph {
	t.Helper()
	g := New(0)
	for _, l := range labels {
		g.AddVertex(l)
	}
	for i := 1; i < len(labels); i++ {
		if err := g.AddEdge(int32(i-1), int32(i)); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	return g
}

func buildCycle(t *testing.T, labels ...Label) *Graph {
	t.Helper()
	g := buildPath(t, labels...)
	if len(labels) >= 3 {
		if err := g.AddEdge(int32(len(labels)-1), 0); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	g := New(0)
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has vertices or edges")
	}
	if g.Density() != 0 || g.AvgDegree() != 0 {
		t.Fatalf("empty graph has nonzero density/degree")
	}
	if !g.IsConnected() {
		t.Fatalf("empty graph should count as connected")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := buildPath(t, 1, 2, 3)
	cases := []struct {
		u, v int32
		name string
	}{
		{0, 0, "self-loop"},
		{0, 1, "duplicate"},
		{0, 3, "out of range high"},
		{-1, 0, "out of range low"},
	}
	for _, c := range cases {
		if err := g.AddEdge(c.u, c.v); err == nil {
			t.Errorf("AddEdge(%d,%d) [%s]: want error", c.u, c.v, c.name)
		}
	}
	// Failed AddEdge must not corrupt the structure.
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate after failed adds: %v", err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edge count changed by failed adds: %d", g.NumEdges())
	}
}

func TestHasEdgeAndNeighbors(t *testing.T) {
	g := buildCycle(t, 1, 2, 3, 4)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		if !g.HasEdge(e[0], e[1]) || !g.HasEdge(e[1], e[0]) {
			t.Errorf("missing edge {%d,%d}", e[0], e[1])
		}
	}
	if g.HasEdge(0, 2) || g.HasEdge(1, 3) {
		t.Errorf("unexpected chord present")
	}
	if g.HasEdge(0, 99) || g.HasEdge(-1, 0) {
		t.Errorf("HasEdge out of range should be false")
	}
	want := []int32{1, 3}
	got := g.Neighbors(0)
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Neighbors(0) = %v, want %v", got, want)
	}
}

func TestDensityAndDegree(t *testing.T) {
	// K4: density 1, avg degree 3.
	g := New(0)
	for i := 0; i < 4; i++ {
		g.AddVertex(1)
	}
	for i := int32(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.MustAddEdge(i, j)
		}
	}
	if d := g.Density(); d != 1 {
		t.Errorf("K4 density = %v, want 1", d)
	}
	if d := g.AvgDegree(); d != 3 {
		t.Errorf("K4 avg degree = %v, want 3", d)
	}
	// Path of 5: 4 edges, density 2*4/(5*4) = 0.4.
	p := buildPath(t, 1, 1, 1, 1, 1)
	if d := p.Density(); d != 0.4 {
		t.Errorf("P5 density = %v, want 0.4", d)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New(0)
	for i := 0; i < 6; i++ {
		g.AddVertex(Label(i))
	}
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(4, 5)
	comps := g.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	if len(comps[0]) != 3 || len(comps[1]) != 1 || len(comps[2]) != 2 {
		t.Errorf("component sizes = %d,%d,%d", len(comps[0]), len(comps[1]), len(comps[2]))
	}
	if g.IsConnected() {
		t.Errorf("disconnected graph reported connected")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := buildCycle(t, 1, 2, 3, 4)
	sub, new2old, err := g.InducedSubgraph([]int32{0, 1, 2})
	if err != nil {
		t.Fatalf("InducedSubgraph: %v", err)
	}
	if sub.NumVertices() != 3 || sub.NumEdges() != 2 {
		t.Fatalf("induced P3 wrong shape: %v", sub)
	}
	if len(new2old) != 3 {
		t.Fatalf("mapping length %d", len(new2old))
	}
	if _, _, err := g.InducedSubgraph([]int32{0, 0}); err == nil {
		t.Errorf("duplicate vertex accepted")
	}
	if _, _, err := g.InducedSubgraph([]int32{99}); err == nil {
		t.Errorf("out-of-range vertex accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := buildPath(t, 1, 2, 3)
	c := g.Clone()
	c.AddVertex(9)
	c.MustAddEdge(2, 3)
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Errorf("mutating clone affected original")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("original invalid after clone mutation: %v", err)
	}
}

func TestEdgesDeterministic(t *testing.T) {
	g := buildCycle(t, 1, 2, 3, 4)
	e1 := g.Edges()
	e2 := g.Edges()
	if len(e1) != 4 {
		t.Fatalf("edge count %d", len(e1))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("Edges not deterministic")
		}
		if e1[i][0] >= e1[i][1] {
			t.Fatalf("edge %v not normalized u<v", e1[i])
		}
	}
}

func TestDistinctLabels(t *testing.T) {
	g := buildPath(t, 3, 1, 3, 2)
	got := g.DistinctLabels()
	want := []Label{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("DistinctLabels = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DistinctLabels = %v, want %v", got, want)
		}
	}
}

func TestRandomGraphValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		g := New(0)
		for i := 0; i < n; i++ {
			g.AddVertex(Label(rng.Intn(5)))
		}
		for tries := 0; tries < 3*n; tries++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestDatasetStats(t *testing.T) {
	ds := NewDataset("test")
	ds.Add(buildPath(t, 0, 1, 2))  // 3 nodes, 2 edges, connected
	ds.Add(buildCycle(t, 0, 1, 2)) // 3 nodes, 3 edges
	g3 := New(0)                   // disconnected: two isolated vertices
	g3.AddVertex(0)
	g3.AddVertex(5)
	ds.Add(g3)
	s := ds.ComputeStats()
	if s.NumGraphs != 3 {
		t.Errorf("NumGraphs = %d", s.NumGraphs)
	}
	if s.NumDisconnected != 1 {
		t.Errorf("NumDisconnected = %d, want 1", s.NumDisconnected)
	}
	if s.NumLabels != 4 { // 0,1,2,5
		t.Errorf("NumLabels = %d, want 4", s.NumLabels)
	}
	wantAvgNodes := (3.0 + 3.0 + 2.0) / 3.0
	if s.AvgNodes != wantAvgNodes {
		t.Errorf("AvgNodes = %v, want %v", s.AvgNodes, wantAvgNodes)
	}
	if err := ds.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestIDSetOps(t *testing.T) {
	a := NewIDSet(3, 1, 2, 3, 1)
	if !a.Equal(IDSet{1, 2, 3}) {
		t.Fatalf("NewIDSet dedup/sort failed: %v", a)
	}
	b := IDSet{2, 3, 4}
	if got := a.Intersect(b); !got.Equal(IDSet{2, 3}) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Union(b); !got.Equal(IDSet{1, 2, 3, 4}) {
		t.Errorf("Union = %v", got)
	}
	if !a.Contains(2) || a.Contains(9) {
		t.Errorf("Contains failed")
	}
	u := UniverseIDSet(3)
	if !u.Equal(IDSet{0, 1, 2}) {
		t.Errorf("Universe = %v", u)
	}
	empty := IDSet{}
	if got := empty.Intersect(a); len(got) != 0 {
		t.Errorf("empty intersect = %v", got)
	}
	if got := empty.Union(a); !got.Equal(a) {
		t.Errorf("empty union = %v", got)
	}
}

func TestIDSetIntersectProperty(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		var a, b IDSet
		for _, x := range xs {
			a = append(a, ID(x))
		}
		for _, y := range ys {
			b = append(b, ID(y))
		}
		a, b = NewIDSet(a...), NewIDSet(b...)
		got := a.Intersect(b)
		// Every element of got is in both; every common element is in got.
		for _, id := range got {
			if !a.Contains(id) || !b.Contains(id) {
				return false
			}
		}
		for _, id := range a {
			if b.Contains(id) && !got.Contains(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIORoundTrip(t *testing.T) {
	ds := NewDataset("rt")
	la := ds.Dict.Intern("C")
	lb := ds.Dict.Intern("N")
	g := New(0)
	g.AddVertex(la)
	g.AddVertex(lb)
	g.AddVertex(la)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	ds.Add(g)
	g2 := New(0)
	g2.AddVertex(lb)
	ds.Add(g2)

	var buf bytes.Buffer
	if err := WriteDataset(&buf, ds); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := ReadDataset(&buf, "rt")
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Len() != 2 {
		t.Fatalf("round trip lost graphs: %d", got.Len())
	}
	rg := got.Graph(0)
	if rg.NumVertices() != 3 || rg.NumEdges() != 2 {
		t.Fatalf("graph 0 shape changed: %v", rg)
	}
	if got.Dict.Name(rg.Label(0)) != "C" || got.Dict.Name(rg.Label(1)) != "N" {
		t.Fatalf("labels lost in round trip")
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestReadDatasetErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"no header", "2\nA\nB\n0\n"},
		{"bad vertex count", "#g\nxx\n"},
		{"missing labels", "#g\n2\nA\n"},
		{"bad edge count", "#g\n1\nA\nzz\n"},
		{"bad edge line", "#g\n2\nA\nB\n1\n0\n"},
		{"edge out of range", "#g\n2\nA\nB\n1\n0 5\n"},
		{"self loop", "#g\n2\nA\nB\n1\n1 1\n"},
		{"forged vertex count", "#g\n50000000000000\nA\n0\n"},
		{"vertex count past int32", "#g\n3000000000\nA\n"},
	}
	for _, c := range cases {
		if _, err := ReadDataset(strings.NewReader(c.in), c.name); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
}

func TestDictionary(t *testing.T) {
	var d Dictionary
	a := d.Intern("x")
	b := d.Intern("y")
	if a == b {
		t.Fatalf("distinct names share a label")
	}
	if got := d.Intern("x"); got != a {
		t.Fatalf("re-intern changed label")
	}
	if l, ok := d.Lookup("y"); !ok || l != b {
		t.Fatalf("Lookup failed")
	}
	if _, ok := d.Lookup("zzz"); ok {
		t.Fatalf("Lookup of unknown name succeeded")
	}
	if d.Name(a) != "x" || d.Name(Label(99)) != "" {
		t.Fatalf("Name failed")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
}

// TestDictionaryConcurrent interns into and reads one Dictionary from many
// goroutines at once (run it with -race): every name keeps one label, and
// every reader sees either no label or the interned one. Dataset.Counts,
// the other state read without the mutation lock, is checked the same way.
func TestDictionaryConcurrent(t *testing.T) {
	var d Dictionary
	const writers, readers, names = 4, 4, 200
	name := func(i int) string { return "L" + strconv.Itoa(i) }
	labels := make([][]Label, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < names; i++ {
				labels[w] = append(labels[w], d.Intern(name((i+w*7)%names)))
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < names; i++ {
				if l, ok := d.Lookup(name(i)); ok && d.Name(l) != name(i) {
					t.Errorf("Lookup(%q) = %d, which names %q", name(i), l, d.Name(l))
				}
				_ = d.Len()
			}
		}()
	}
	wg.Wait()
	if d.Len() != names {
		t.Fatalf("Len = %d after interning %d names", d.Len(), names)
	}
	for w := range labels {
		for i, l := range labels[w] {
			if want := name((i + w*7) % names); d.Name(l) != want {
				t.Fatalf("writer %d got label %d for %q, which names %q", w, l, want, d.Name(l))
			}
		}
	}

	// Counts is readable while a mutation runs (the race detector checks
	// the claim), and agrees with the locked counters once it is done.
	ds := NewDataset("counts")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < names; i++ {
			g := New(0)
			g.AddVertex(0)
			if id := ds.Add(g); i%3 == 0 {
				ds.Remove(id)
			}
		}
	}()
	for live, removed := ds.Counts(); live+removed < names; live, removed = ds.Counts() {
		if live < 0 || removed < 0 {
			t.Fatalf("Counts = %d, %d mid-mutation", live, removed)
		}
	}
	<-done
	if live, removed := ds.Counts(); live != ds.NumAlive() || removed != ds.NumRemoved() {
		t.Fatalf("Counts = %d, %d; NumAlive, NumRemoved = %d, %d", live, removed, ds.NumAlive(), ds.NumRemoved())
	}

	// A copy shares nothing: interning into it leaves the source alone.
	var c Dictionary
	c.CopyFrom(&d)
	c.Intern("only-in-copy")
	if _, ok := d.Lookup("only-in-copy"); ok || c.Len() != names+1 {
		t.Fatalf("CopyFrom shares state: source has the copy's label, or copy Len = %d", c.Len())
	}
}

// TestFromSortedEdges: the arena build gives the graph AddEdge gives, in
// four allocations, and its lists are capped so a later AddEdge on one
// vertex cannot overwrite the next vertex's list.
func TestFromSortedEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		want := New(0)
		labels := make([]Label, n)
		for v := range labels {
			labels[v] = Label(rng.Intn(3))
			want.AddVertex(labels[v])
		}
		var edges [][2]int32
		for u := int32(0); int(u) < n; u++ {
			for v := u + 1; int(v) < n; v++ {
				if rng.Intn(3) == 0 {
					edges = append(edges, [2]int32{u, v})
					want.MustAddEdge(u, v)
				}
			}
		}
		g := FromSortedEdges(0, labels, edges)
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if g.NumEdges() != want.NumEdges() || g.Sealed() {
			t.Fatalf("%d edges (sealed %v), want %d in the build phase", g.NumEdges(), g.Sealed(), want.NumEdges())
		}
		for v := int32(0); int(v) < n; v++ {
			if g.Label(v) != want.Label(v) || !slices.Equal(g.Neighbors(v), want.Neighbors(v)) {
				t.Fatalf("vertex %d: label %d, neighbours %v; want %d, %v",
					v, g.Label(v), g.Neighbors(v), want.Label(v), want.Neighbors(v))
			}
		}
	}

	g := FromSortedEdges(0, []Label{0, 0, 0, 0}, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	g.MustAddEdge(0, 3) // grows list 0, which sits right before list 1 in the arena
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.Neighbors(1); !slices.Equal(got, []int32{0, 2}) {
		t.Fatalf("vertex 1's list became %v after an edge on vertex 0", got)
	}

	edges := [][2]int32{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {3, 5}, {5, 6}, {6, 7}}
	labels := make([]Label, 8)
	if got := testing.AllocsPerRun(50, func() { FromSortedEdges(0, labels, edges) }); got != 3 {
		t.Errorf("FromSortedEdges: %.1f allocations beside the labels, want 3", got)
	}
}
