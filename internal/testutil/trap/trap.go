// Package trap builds a dataset on which verifying the obvious query runs
// far longer than any test deadline: one graph holding an 8-regular
// bipartite part of 120 vertices and, apart from it, an 11-cycle, queried
// with the 11-cycle. Every vertex carries one label and the bipartite part
// comes first, so a matcher that starts there explores its exponentially
// many paths before it can fail (a bipartite graph holds no odd cycle),
// while a matcher restricted to the cycle's component answers at once.
// Graph 0 is the only graph and the only answer.
package trap

import "repro/internal/graph"

// Dataset returns the trap dataset and its query, Cycle(11).
func Dataset() (*graph.Dataset, *graph.Graph) {
	const half, degree = 60, 8
	g := graph.New(0)
	for range 2 * half {
		g.AddVertex(0)
	}
	for u := range int32(half) {
		for k := range int32(degree) {
			g.MustAddEdge(u, half+(u+7*k)%half)
		}
	}
	appendCycle(g, 11)
	ds := graph.NewDataset("trap")
	ds.Add(g)
	return ds, Cycle(11)
}

// Cycle returns an n-cycle of label-0 vertices. Any odd n above 11 is a
// query the trap graph does not contain and whose every path feature it
// holds, in both parts.
func Cycle(n int) *graph.Graph {
	g := graph.New(0)
	appendCycle(g, n)
	return g
}

func appendCycle(g *graph.Graph, n int) {
	base := int32(g.NumVertices())
	for range n {
		g.AddVertex(0)
	}
	for i := range int32(n) {
		g.MustAddEdge(base+i, base+(i+1)%int32(n))
	}
}
