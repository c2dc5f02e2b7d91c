// Package features provides exhaustive enumeration of the graph
// substructures the indexing methods use as features: simple label paths
// (Grapes, GraphGrepSX, gCode), connected edge sets / subtrees (CT-Index,
// Tree+Δ), and simple cycles (CT-Index, Tree+Δ).
//
// All enumerators are callback-based and allocation-conscious: the visited
// structure slices are reused across calls, so callbacks must copy anything
// they retain.
package features

import "repro/internal/graph"

// VisitPaths enumerates every simple path of g with 0..maxEdges edges,
// starting from every vertex. A path with k >= 1 edges is therefore visited
// exactly twice (once from each end); the single-vertex paths once. fn
// receives the vertex sequence, which is reused — copy to retain.
//
// fn returning false aborts the enumeration; VisitPaths reports whether the
// enumeration ran to completion.
func VisitPaths(g *graph.Graph, maxEdges int, fn func(vertices []int32) bool) bool {
	n := g.NumVertices()
	onPath := make([]bool, n)
	path := make([]int32, 0, maxEdges+1)
	var dfs func(v int32) bool
	dfs = func(v int32) bool {
		path = append(path, v)
		onPath[v] = true
		ok := fn(path)
		if ok && len(path) <= maxEdges {
			for _, w := range g.Neighbors(v) {
				if onPath[w] {
					continue
				}
				if !dfs(w) {
					ok = false
					break
				}
			}
		}
		onPath[v] = false
		path = path[:len(path)-1]
		return ok
	}
	for v := int32(0); int(v) < n; v++ {
		if !dfs(v) {
			return false
		}
	}
	return true
}

// PathLabels writes the labels along the vertex path into dst (resliced as
// needed) and returns it.
func PathLabels(g *graph.Graph, vertices []int32, dst []graph.Label) []graph.Label {
	dst = dst[:0]
	for _, v := range vertices {
		dst = append(dst, g.Label(v))
	}
	return dst
}
