package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

func twoVertexGraph(l Label) *Graph {
	g := New(0)
	a := g.AddVertex(l)
	b := g.AddVertex(l)
	g.MustAddEdge(a, b)
	return g
}

// TestDatasetTombstones pins the mutation model: Remove tombstones in
// place (slot kept, Graph nil, Alive false), ids are never reused, and
// every mutation bumps the epoch.
func TestDatasetTombstones(t *testing.T) {
	ds := NewDataset("mut")
	for i := 0; i < 4; i++ {
		ds.Add(twoVertexGraph(Label(i)))
	}
	if got := ds.Epoch(); got != 4 {
		t.Errorf("epoch after 4 adds = %d", got)
	}
	if !ds.Remove(1) {
		t.Fatal("Remove(1) should succeed")
	}
	if ds.Remove(1) {
		t.Error("double remove must report false")
	}
	if ds.Remove(99) || ds.Remove(-1) {
		t.Error("out-of-range remove must report false")
	}
	if got := ds.Epoch(); got != 5 {
		t.Errorf("epoch after remove = %d", got)
	}
	if ds.Alive(1) || ds.Graph(1) != nil {
		t.Error("tombstoned graph must be dead and nil")
	}
	if !ds.Alive(0) || ds.Graph(2) == nil {
		t.Error("live graphs must stay reachable")
	}
	if ds.Len() != 4 || ds.NumAlive() != 3 || ds.NumRemoved() != 1 {
		t.Errorf("len=%d alive=%d removed=%d, want 4, 3, 1", ds.Len(), ds.NumAlive(), ds.NumRemoved())
	}
	if id := ds.Add(twoVertexGraph(9)); id != 4 {
		t.Errorf("re-add assigned id %d, want fresh id 4 (never reuse 1)", id)
	}
	if got, want := ds.LiveIDSet(), (IDSet{0, 2, 3, 4}); !got.Equal(want) {
		t.Errorf("LiveIDSet = %v, want %v", got, want)
	}
}

// TestFilterLive: tombstoned and out-of-range ids drop; the no-tombstone
// fast path returns the input unchanged.
func TestFilterLive(t *testing.T) {
	ds := NewDataset("fl")
	for i := 0; i < 3; i++ {
		ds.Add(twoVertexGraph(Label(i)))
	}
	in := IDSet{0, 1, 2}
	if got := ds.FilterLive(in); &got[0] != &in[0] {
		t.Error("no tombstones: FilterLive should return the input slice")
	}
	ds.Remove(1)
	if got, want := ds.FilterLive(IDSet{0, 1, 2, 7}), (IDSet{0, 2}); !got.Equal(want) {
		t.Errorf("FilterLive = %v, want %v", got, want)
	}
	if got := ds.FilterLive(nil); len(got) != 0 {
		t.Errorf("FilterLive(nil) = %v", got)
	}
}

// randomGraph is a small labelled graph: a path over n vertices plus a few
// chords, so different draws differ in labels and edges.
func randomGraph(rng *rand.Rand) *Graph {
	n := 2 + rng.Intn(5)
	g := New(0)
	for range n {
		g.AddVertex(Label(rng.Intn(3)))
	}
	for v := int32(1); int(v) < n; v++ {
		g.MustAddEdge(v-1, v)
	}
	for range rng.Intn(3) {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

// recomputedTag is VersionTag from scratch: every slot's term, summed.
func recomputedTag(ds *Dataset) uint64 {
	sum := uint64(offset64)
	for i, g := range ds.Graphs {
		if !ds.Alive(ID(i)) {
			g = nil
		}
		sum += slotTerm(ID(i), g)
	}
	return sum
}

// randomHistory applies n random mutations to ds: mostly adds, and removes
// of a random live graph.
func randomHistory(rng *rand.Rand, ds *Dataset, n int) {
	for range n {
		if live := ds.LiveIDSet(); len(live) > 0 && rng.Intn(3) == 0 {
			ds.Remove(live[rng.Intn(len(live))])
			continue
		}
		ds.Add(randomGraph(rng))
	}
}

// TestVersionTagIncremental: the tag Add and Remove maintain equals the sum
// recomputed from scratch after every step of random histories, and two
// different histories of one length — equal epochs — differ in it.
func TestVersionTagIncremental(t *testing.T) {
	empty := NewDataset("empty")
	if empty.VersionTag() == 0 {
		t.Fatal("an empty dataset's tag is the zero stamp of an unbound index file")
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds := NewDataset("h")
		for step := range 40 {
			randomHistory(rng, ds, 1)
			if got, want := ds.VersionTag(), recomputedTag(ds); got != want {
				t.Fatalf("seed %d step %d: tag %x, recomputed %x", seed, step, got, want)
			}
		}
	}

	// Histories may converge (every graph removed again); only different
	// final contents must differ in the tag.
	seen := make(map[uint64]string)
	distinct := 0
	for seed := int64(1); seed <= 200; seed++ {
		ds := NewDataset("h")
		randomHistory(rand.New(rand.NewSource(seed)), ds, 12)
		if ds.Epoch() != 12 {
			t.Fatalf("seed %d: epoch %d after 12 mutations", seed, ds.Epoch())
		}
		content := fmt.Sprint(len(ds.Graphs))
		for i, g := range ds.Graphs {
			if ds.Alive(ID(i)) {
				content += fmt.Sprint(i, g.Labels(), g.Edges())
			}
		}
		if prev, dup := seen[ds.VersionTag()]; dup && prev != content {
			t.Fatalf("seed %d: equal-length histories of different content share tag %x", seed, ds.VersionTag())
		} else if !dup {
			distinct++
		}
		seen[ds.VersionTag()] = content
	}
	if distinct < 150 {
		t.Fatalf("only %d distinct final states in 200 histories", distinct)
	}

	// Remove 1 vs remove 2 of one dataset: same epoch, different content.
	a, b := NewDataset("a"), NewDataset("b")
	for i := range 3 {
		a.Add(twoVertexGraph(Label(i)))
		b.Add(twoVertexGraph(Label(i)))
	}
	a.Remove(1)
	b.Remove(2)
	if a.Epoch() != b.Epoch() || a.VersionTag() == b.VersionTag() {
		t.Fatalf("remove 1 vs remove 2: epochs %d/%d, tags %x/%x", a.Epoch(), b.Epoch(), a.VersionTag(), b.VersionTag())
	}
}

// TestDatasetPrefix: the view holds the first n slots, live as in the
// dataset except for the revived ones, and shares their graphs.
func TestDatasetPrefix(t *testing.T) {
	ds := NewDataset("p")
	for i := range 5 {
		ds.Add(twoVertexGraph(Label(i)))
	}
	ds.Remove(1)
	ds.Remove(3)
	ds.Remove(4)
	v := ds.Prefix(4, []ID{3})
	if v.Len() != 4 || v.Graphs[2] != ds.Graphs[2] {
		t.Fatalf("view len %d, want 4 slots sharing the dataset's graphs", v.Len())
	}
	if got, want := v.LiveIDSet(), (IDSet{0, 2, 3}); !got.Equal(want) {
		t.Fatalf("view live ids %v, want %v", got, want)
	}
	if live, removed := v.Counts(); live != 3 || removed != 1 {
		t.Fatalf("view counts %d live, %d removed; want 3, 1", live, removed)
	}
	if ds.Alive(3) {
		t.Fatal("reviving a slot in the view revived it in the dataset")
	}
}

// TestComputeStatsSkipsTombstones: stats describe the live dataset.
func TestComputeStatsSkipsTombstones(t *testing.T) {
	ds := NewDataset("st")
	for i := 0; i < 3; i++ {
		ds.Add(twoVertexGraph(Label(i)))
	}
	ds.Remove(0)
	if st := ds.ComputeStats(); st.NumGraphs != 2 {
		t.Errorf("stats graphs = %d, want 2 live", st.NumGraphs)
	}
}
