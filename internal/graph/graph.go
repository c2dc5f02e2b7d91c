// Package graph provides the labelled undirected graph model shared by all
// indexing methods in this repository: graphs, datasets, structural
// statistics, and (de)serialization.
//
// Graphs follow Definition 1 of the paper: a set of vertices, a set of
// undirected edges, and a labelling function assigning exactly one label to
// each vertex. Vertices are identified by dense non-negative integers local
// to their graph; labels are small integers interned through a dataset-level
// dictionary so the index structures can treat them as array offsets.
package graph

import (
	"errors"
	"fmt"
	"sort"
	"unsafe"
)

// Label is a vertex label identifier, interned via Dictionary.
type Label int32

// ID identifies a graph within a Dataset (its position in Dataset.Graphs).
type ID int32

// Graph is a labelled undirected graph. The zero value is an empty graph
// ready for use via AddVertex / AddEdge.
//
// A graph lives in two phases. While it is built it holds one sorted
// adjacency slice per vertex, so AddEdge inserts in place. Seal (which
// Dataset.Add calls) freezes it: the adjacency lists move into one CSR
// array (off, nbr) and, for a graph of at most 64 vertices, one adjacency
// word per vertex plus one vertex mask per distinct label are added, which
// the subgraph matcher tests candidates against by AND and popcount. Every
// accessor answers the same in both phases; mutating a sealed graph
// unseals it first.
type Graph struct {
	id     ID
	labels []Label
	adj    [][]int32 // build phase; nil once sealed
	edges  int
	// sealed is the read-only layout, nil in the build phase. It sits
	// behind a pointer so a graph that is never sealed (a decoded query)
	// stays as small as the build phase needs.
	sealed *sealedLayout
}

// sealedLayout is a sealed graph's adjacency.
type sealedLayout struct {
	// The neighbours of v are nbr[off[v]:off[v+1]].
	off, nbr []int32
	// words, for a graph of n <= maxWordVertices vertices: words[v] (v < n)
	// has bit w set iff {v,w} is an edge, and words[n:] holds (label, mask)
	// pairs sorted by label, mask having bit v set iff v carries the label.
	// nil for larger graphs.
	words []uint64
}

// maxWordVertices is the largest vertex count a sealed graph carries
// adjacency words for.
const maxWordVertices = 64

// New returns an empty graph with the given dataset-local id.
func New(id ID) *Graph {
	return &Graph{id: id}
}

// NewWithCapacity returns an empty graph preallocated for n vertices.
func NewWithCapacity(id ID, n int) *Graph {
	return &Graph{
		id:     id,
		labels: make([]Label, 0, n),
		adj:    make([][]int32, 0, n),
	}
}

// FromSortedEdges returns the build-phase graph with the given labels
// (which it keeps) and edges: each edge lower endpoint first, both in
// range, the list sorted ascending without repeats, as the wire decoder
// leaves it. Added in that order every edge appends to both adjacency
// lists, so each list comes out sorted; all of them are carved from one
// arena, each capped at its own length so a later AddEdge reallocates
// rather than overwrites its neighbour's list. Four allocations whatever
// the size: the Graph, the labels, the adjacency headers and the arena.
func FromSortedEdges(id ID, labels []Label, edges [][2]int32) *Graph {
	g := &Graph{id: id, labels: labels, adj: make([][]int32, len(labels)), edges: len(edges)}
	arena := make([]int32, 2*len(edges))
	// Count degrees into the lengths of slices of the arena, which holds
	// every degree, then carve each list from its offset.
	for _, e := range edges {
		g.adj[e[0]] = arena[:len(g.adj[e[0]])+1]
		g.adj[e[1]] = arena[:len(g.adj[e[1]])+1]
	}
	lo := 0
	for v, a := range g.adj {
		hi := lo + len(a)
		g.adj[v] = arena[lo:lo:hi]
		lo = hi
	}
	for _, e := range edges {
		g.adj[e[0]] = append(g.adj[e[0]], e[1])
		g.adj[e[1]] = append(g.adj[e[1]], e[0])
	}
	return g
}

// ID returns the dataset-local identifier of the graph.
func (g *Graph) ID() ID { return g.id }

// SetID updates the dataset-local identifier of the graph.
func (g *Graph) SetID(id ID) { g.id = id }

// NumVertices returns the number of vertices in the graph.
func (g *Graph) NumVertices() int { return len(g.labels) }

// NumEdges returns the number of undirected edges in the graph.
func (g *Graph) NumEdges() int { return g.edges }

// Label returns the label of vertex v.
func (g *Graph) Label(v int32) Label { return g.labels[v] }

// Labels returns the label slice indexed by vertex. The caller must not
// modify the returned slice.
func (g *Graph) Labels() []Label { return g.labels }

// Degree returns the number of edges incident to vertex v.
func (g *Graph) Degree(v int32) int {
	if s := g.sealed; s != nil {
		return int(s.off[v+1] - s.off[v])
	}
	return len(g.adj[v])
}

// Neighbors returns the adjacency list of vertex v, sorted ascending.
// The caller must not modify the returned slice.
func (g *Graph) Neighbors(v int32) []int32 {
	if s := g.sealed; s != nil {
		lo, hi := s.off[v], s.off[v+1]
		return s.nbr[lo:hi:hi]
	}
	return g.adj[v]
}

// AddVertex appends a vertex with the given label and returns its id.
func (g *Graph) AddVertex(l Label) int32 {
	g.unseal()
	g.labels = append(g.labels, l)
	g.adj = append(g.adj, nil)
	return int32(len(g.labels) - 1)
}

// HasEdge reports whether the undirected edge {u, v} exists.
func (g *Graph) HasEdge(u, v int32) bool {
	n := int32(len(g.labels))
	if u < 0 || v < 0 || u >= n || v >= n {
		return false
	}
	if words := g.AdjWords(); words != nil {
		return words[u]>>uint(v)&1 != 0
	}
	// Search the shorter adjacency list.
	if g.Degree(v) < g.Degree(u) {
		u, v = v, u
	}
	return SortedContains(g.Neighbors(u), v)
}

// SortedContains reports whether the ascending slice a (an adjacency list)
// holds v: a linear scan while a fits a cache line, binary search beyond.
func SortedContains(a []int32, v int32) bool {
	if len(a) > 16 {
		lo, hi := 0, len(a)
		for lo < hi {
			if mid := int(uint(lo+hi) >> 1); a[mid] < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo < len(a) && a[lo] == v
	}
	for _, x := range a {
		if x >= v {
			return x == v
		}
	}
	return false
}

// AddEdge inserts the undirected edge {u, v}. It returns an error if either
// endpoint is out of range, if u == v (self-loops are not part of the model),
// or if the edge already exists.
func (g *Graph) AddEdge(u, v int32) error {
	n := int32(len(g.labels))
	switch {
	case u < 0 || u >= n || v < 0 || v >= n:
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, n)
	case u == v:
		return fmt.Errorf("graph: self-loop on vertex %d", u)
	case g.HasEdge(u, v):
		return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
	g.unseal()
	g.adj[u] = insertSorted(g.adj[u], v)
	g.adj[v] = insertSorted(g.adj[v], u)
	g.edges++
	return nil
}

// MustAddEdge is AddEdge for construction code paths where the edge is known
// valid; it panics on error.
func (g *Graph) MustAddEdge(u, v int32) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// Seal freezes the graph into its read-only layout (see Graph): CSR
// adjacency and, for at most maxWordVertices vertices, adjacency words and
// label masks. Sealing a sealed graph does nothing. Dataset.Add seals every
// graph it publishes.
func (g *Graph) Seal() {
	if g.sealed != nil {
		return
	}
	n := len(g.labels)
	buf := make([]int32, n+1+2*g.edges)
	s := &sealedLayout{off: buf[: n+1 : n+1], nbr: buf[n+1:]}
	for v, a := range g.adj {
		s.off[v+1] = s.off[v] + int32(copy(s.nbr[s.off[v]:], a))
	}
	g.sealed, g.adj = s, nil
	if n <= maxWordVertices {
		s.words = sealWords(g)
	}
}

// sealWords builds the words of a sealed graph of at most 64 vertices:
// one adjacency word per vertex, then the (label, mask) pairs.
func sealWords(g *Graph) []uint64 {
	n := len(g.labels)
	// At most one pair per vertex; build them on the stack, sorted by
	// label, then size the one allocation exactly.
	var pairs [2 * maxWordVertices]uint64
	k := 0
	for v, l := range g.labels {
		i := 0
		for i < k && Label(pairs[2*i]) < l {
			i++
		}
		if i == k || Label(pairs[2*i]) != l {
			copy(pairs[2*i+2:2*k+2], pairs[2*i:2*k])
			pairs[2*i], pairs[2*i+1] = uint64(uint32(l)), 0
			k++
		}
		pairs[2*i+1] |= 1 << uint(v)
	}
	words := make([]uint64, n+2*k)
	for v := range n {
		for _, w := range g.Neighbors(int32(v)) {
			words[v] |= 1 << uint(w)
		}
	}
	copy(words[n:], pairs[:2*k])
	return words
}

// unseal returns a sealed graph to the build phase before a mutation.
func (g *Graph) unseal() {
	if g.sealed == nil {
		return
	}
	adj := make([][]int32, len(g.labels))
	for v := range adj {
		adj[v] = append([]int32(nil), g.Neighbors(int32(v))...)
	}
	g.adj, g.sealed = adj, nil
}

// Sealed reports whether the graph is in its sealed, read-only layout.
func (g *Graph) Sealed() bool { return g.sealed != nil }

// AdjWords returns, for a sealed graph of at most maxWordVertices
// vertices, one adjacency word per vertex: bit w of AdjWords()[v] is set
// iff {v, w} is an edge. It returns nil for any other graph. The caller
// must not modify the returned slice.
func (g *Graph) AdjWords() []uint64 {
	if g.sealed == nil || g.sealed.words == nil {
		return nil
	}
	return g.sealed.words[:len(g.labels)]
}

// LabelMask returns, for a graph with adjacency words (see AdjWords), the
// vertices labelled l as a word: bit v is set iff Label(v) == l.
func (g *Graph) LabelMask(l Label) uint64 {
	if g.sealed == nil {
		return 0
	}
	words := g.sealed.words
	for i := len(g.labels); i < len(words); i += 2 {
		if pl := Label(words[i]); pl >= l {
			if pl == l {
				return words[i+1]
			}
			break
		}
	}
	return 0
}

func insertSorted(a []int32, v int32) []int32 {
	i := sort.Search(len(a), func(i int) bool { return a[i] >= v })
	a = append(a, 0)
	copy(a[i+1:], a[i:])
	a[i] = v
	return a
}

// Density returns the graph density of Definition 4:
// 2|E| / (|V|(|V|-1)), in [0,1]. Graphs with fewer than two vertices have
// density 0.
func (g *Graph) Density() float64 {
	n := len(g.labels)
	if n < 2 {
		return 0
	}
	return 2 * float64(g.edges) / (float64(n) * float64(n-1))
}

// AvgDegree returns the average vertex degree of Definition 5: 2|E|/|V|.
func (g *Graph) AvgDegree() float64 {
	if len(g.labels) == 0 {
		return 0
	}
	return 2 * float64(g.edges) / float64(len(g.labels))
}

// DistinctLabels returns the sorted set of labels used in the graph.
func (g *Graph) DistinctLabels() []Label {
	seen := make(map[Label]struct{}, 16)
	for _, l := range g.labels {
		seen[l] = struct{}{}
	}
	out := make([]Label, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Edges returns all undirected edges as (u, v) pairs with u < v, in
// deterministic order.
func (g *Graph) Edges() [][2]int32 {
	out := make([][2]int32, 0, g.edges)
	for u := int32(0); int(u) < len(g.labels); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				out = append(out, [2]int32{u, v})
			}
		}
	}
	return out
}

// ShallowWithID returns a copy of the graph that shares the label and
// adjacency storage (immutable once construction is done), sealed or not,
// but carries a different dataset-local id. Sharding uses it to re-home
// graphs into per-shard sub-datasets without duplicating or mutating the
// originals.
func (g *Graph) ShallowWithID(id ID) *Graph {
	c := *g
	c.id = id
	return &c
}

// Clone returns a deep copy of the graph in the build phase, ready to be
// mutated, whether g is sealed or not.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		id:     g.id,
		labels: append([]Label(nil), g.labels...),
		adj:    make([][]int32, len(g.labels)),
		edges:  g.edges,
	}
	for i := range c.adj {
		c.adj[i] = append([]int32(nil), g.Neighbors(int32(i))...)
	}
	return c
}

// ConnectedComponents returns the vertex sets of the connected components of
// the graph, each sorted ascending, ordered by smallest contained vertex.
func (g *Graph) ConnectedComponents() [][]int32 {
	n := len(g.labels)
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]int32
	stack := make([]int32, 0, n)
	for s := int32(0); int(s) < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		c := int32(len(comps))
		members := []int32{}
		stack = append(stack[:0], s)
		comp[s] = c
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, v)
			for _, w := range g.Neighbors(v) {
				if comp[w] < 0 {
					comp[w] = c
					stack = append(stack, w)
				}
			}
		}
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		comps = append(comps, members)
	}
	return comps
}

// IsConnected reports whether the graph has exactly one connected component.
// The empty graph is considered connected.
func (g *Graph) IsConnected() bool {
	if len(g.labels) == 0 {
		return true
	}
	return len(g.ConnectedComponents()) == 1
}

// InducedSubgraph returns the subgraph induced by the given vertices together
// with the mapping from new vertex ids to original ids. Vertices may be given
// in any order; duplicates are an error.
func (g *Graph) InducedSubgraph(vertices []int32) (*Graph, []int32, error) {
	sub := NewWithCapacity(g.id, len(vertices))
	old2new := make(map[int32]int32, len(vertices))
	new2old := make([]int32, 0, len(vertices))
	for _, v := range vertices {
		if v < 0 || int(v) >= len(g.labels) {
			return nil, nil, fmt.Errorf("graph: vertex %d out of range", v)
		}
		if _, dup := old2new[v]; dup {
			return nil, nil, fmt.Errorf("graph: duplicate vertex %d", v)
		}
		old2new[v] = sub.AddVertex(g.labels[v])
		new2old = append(new2old, v)
	}
	for _, v := range vertices {
		for _, w := range g.Neighbors(v) {
			nw, ok := old2new[w]
			if !ok {
				continue
			}
			nv := old2new[v]
			if nv < nw {
				sub.MustAddEdge(nv, nw)
			}
		}
	}
	return sub, new2old, nil
}

// Validate checks internal consistency (sorted symmetric adjacency, edge
// count, no self-loops, and a sealed graph's layout against its adjacency)
// and returns a descriptive error on the first violation. It is intended
// for tests and for data loaded from disk.
func (g *Graph) Validate() error {
	n := len(g.labels)
	if g.sealed != nil {
		if err := g.validateSealed(); err != nil {
			return err
		}
	} else if n != len(g.adj) {
		return errors.New("graph: label/adjacency length mismatch")
	}
	count := 0
	for u := int32(0); int(u) < n; u++ {
		prev := int32(-1)
		for _, v := range g.Neighbors(u) {
			if v < 0 || int(v) >= len(g.labels) {
				return fmt.Errorf("graph: neighbor %d of %d out of range", v, u)
			}
			if v == u {
				return fmt.Errorf("graph: self-loop on %d", u)
			}
			if v <= prev {
				return fmt.Errorf("graph: adjacency of %d not strictly sorted", u)
			}
			prev = v
			if !SortedContains(g.Neighbors(v), u) {
				return fmt.Errorf("graph: edge {%d,%d} not symmetric", u, v)
			}
			count++
		}
	}
	if count != 2*g.edges {
		return fmt.Errorf("graph: edge count %d inconsistent with adjacency (%d half-edges)", g.edges, count)
	}
	return nil
}

// validateSealed checks the sealed layout's shape: CSR offsets, and the
// adjacency words and label masks against the CSR lists and the labels.
func (g *Graph) validateSealed() error {
	n, s := len(g.labels), g.sealed
	if len(s.off) != n+1 || s.off[0] != 0 || int(s.off[n]) != len(s.nbr) || g.adj != nil {
		return errors.New("graph: sealed layout has inconsistent offsets")
	}
	for v := range n {
		if s.off[v] > s.off[v+1] {
			return fmt.Errorf("graph: sealed offsets decrease at vertex %d", v)
		}
	}
	words := s.words
	if (n <= maxWordVertices) != (words != nil) {
		return errors.New("graph: adjacency words present on the wrong vertex count")
	}
	if words == nil {
		return nil
	}
	for v := range n {
		var row uint64
		for _, w := range g.Neighbors(int32(v)) {
			if w >= 0 && int(w) < n {
				row |= 1 << uint(w)
			}
		}
		if words[v] != row {
			return fmt.Errorf("graph: adjacency word of %d disagrees with its list", v)
		}
	}
	var seen uint64
	for i := n; i < len(words); i += 2 {
		l, mask := Label(words[i]), words[i+1]
		if i > n && Label(words[i-2]) >= l {
			return errors.New("graph: label masks not strictly sorted")
		}
		for v := range n {
			if (mask>>uint(v)&1 != 0) != (g.labels[v] == l) {
				return fmt.Errorf("graph: mask of label %d disagrees at vertex %d", l, v)
			}
		}
		seen |= mask
	}
	if n > 0 && seen != ^uint64(0)>>uint(maxWordVertices-n) {
		return errors.New("graph: label masks do not cover every vertex")
	}
	return nil
}

// String returns a compact human-readable rendering, mainly for tests.
func (g *Graph) String() string {
	return fmt.Sprintf("graph %d: %d vertices, %d edges", g.id, len(g.labels), g.edges)
}

// SizeBytes estimates the in-memory footprint of the graph structure: the
// labels, then either one slice header plus list per vertex (build phase)
// or the CSR arrays and the words actually held (sealed), plus the struct.
func (g *Graph) SizeBytes() int64 {
	sz := int64(len(g.labels)) * 4
	if s := g.sealed; s != nil {
		sz += int64(len(s.off)+len(s.nbr))*4 + int64(len(s.words))*8 + int64(unsafe.Sizeof(*s))
	}
	for _, a := range g.adj {
		sz += int64(len(a))*4 + 24
	}
	return sz + int64(unsafe.Sizeof(Graph{}))
}
