package features

import (
	"math/rand"
	"testing"

	"repro/internal/canon"
	"repro/internal/graph"
)

func path(labels ...graph.Label) *graph.Graph {
	g := graph.New(0)
	for _, l := range labels {
		g.AddVertex(l)
	}
	for i := 1; i < len(labels); i++ {
		g.MustAddEdge(int32(i-1), int32(i))
	}
	return g
}

func cycle(labels ...graph.Label) *graph.Graph {
	g := path(labels...)
	g.MustAddEdge(int32(len(labels)-1), 0)
	return g
}

func clique(n int, l graph.Label) *graph.Graph {
	g := graph.New(0)
	for i := 0; i < n; i++ {
		g.AddVertex(l)
	}
	for i := int32(0); int(i) < n; i++ {
		for j := i + 1; int(j) < n; j++ {
			g.MustAddEdge(i, j)
		}
	}
	return g
}

func countPaths(g *graph.Graph, maxEdges int) map[int]int {
	byLen := map[int]int{}
	VisitPaths(g, maxEdges, func(vs []int32) bool {
		byLen[len(vs)-1]++
		return true
	})
	return byLen
}

func TestVisitPathsTriangle(t *testing.T) {
	g := cycle(1, 2, 3)
	byLen := countPaths(g, 3)
	// 3 single vertices; 3 edges x 2 directions = 6; length-2 paths: each
	// ordered triple of distinct vertices = 6; length-3 impossible (only 3
	// vertices).
	if byLen[0] != 3 || byLen[1] != 6 || byLen[2] != 6 || byLen[3] != 0 {
		t.Fatalf("path counts = %v", byLen)
	}
}

func TestVisitPathsRespectsMaxEdges(t *testing.T) {
	g := path(1, 1, 1, 1, 1)
	byLen := countPaths(g, 2)
	if byLen[3] != 0 || byLen[4] != 0 {
		t.Fatalf("paths longer than max emitted: %v", byLen)
	}
	if byLen[2] != 6 { // P5 has 3 subpaths of 2 edges, each from 2 ends
		t.Fatalf("len-2 count = %d, want 6", byLen[2])
	}
}

func TestVisitPathsEachUndirectedPathTwice(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(8)
		g := graph.New(0)
		for i := 0; i < n; i++ {
			g.AddVertex(graph.Label(rng.Intn(3)))
		}
		for i := 1; i < n; i++ {
			g.MustAddEdge(int32(rng.Intn(i)), int32(i))
		}
		// Each k>=1-edge path is seen exactly twice: once per endpoint. Count
		// by endpoint-ordered vertex sequence signature.
		seen := map[string]int{}
		VisitPaths(g, 3, func(vs []int32) bool {
			if len(vs) < 2 {
				return true
			}
			// canonical: lexicographically smaller of seq and reverse
			fwd := make([]byte, 0, len(vs)*4)
			bwd := make([]byte, 0, len(vs)*4)
			for i := range vs {
				fwd = append(fwd, byte(vs[i]), 0)
				bwd = append(bwd, byte(vs[len(vs)-1-i]), 0)
			}
			k := string(fwd)
			if string(bwd) < k {
				k = string(bwd)
			}
			seen[k]++
			return true
		})
		for k, c := range seen {
			if c != 2 {
				t.Fatalf("trial %d: path %q seen %d times, want 2", trial, k, c)
			}
		}
	}
}

func TestVisitPathsAbort(t *testing.T) {
	g := clique(5, 1)
	calls := 0
	completed := VisitPaths(g, 4, func(vs []int32) bool {
		calls++
		return calls < 10
	})
	if completed {
		t.Fatalf("abort not honored")
	}
	if calls != 10 {
		t.Fatalf("calls = %d, want 10", calls)
	}
}

func TestVisitCyclesTriangle(t *testing.T) {
	g := cycle(1, 2, 3)
	var got [][]int32
	VisitCycles(g, 4, func(vs []int32) bool {
		got = append(got, append([]int32(nil), vs...))
		return true
	})
	if len(got) != 1 {
		t.Fatalf("triangle cycles = %d, want 1", len(got))
	}
	if got[0][0] != 0 {
		t.Fatalf("cycle should start at smallest vertex: %v", got[0])
	}
}

func TestVisitCyclesK4(t *testing.T) {
	g := clique(4, 1)
	c3, c4 := 0, 0
	VisitCycles(g, 4, func(vs []int32) bool {
		switch len(vs) {
		case 3:
			c3++
		case 4:
			c4++
		}
		return true
	})
	if c3 != 4 {
		t.Errorf("triangles in K4 = %d, want 4", c3)
	}
	if c4 != 3 {
		t.Errorf("4-cycles in K4 = %d, want 3", c4)
	}
	// Max length respected.
	short := 0
	VisitCycles(g, 3, func(vs []int32) bool {
		if len(vs) > 3 {
			t.Fatalf("cycle longer than max emitted")
		}
		short++
		return true
	})
	if short != 4 {
		t.Errorf("cycles with max 3 = %d, want 4", short)
	}
}

func TestVisitCyclesNoCycles(t *testing.T) {
	g := path(1, 2, 3, 4)
	VisitCycles(g, 8, func(vs []int32) bool {
		t.Fatalf("cycle found in a path graph")
		return false
	})
}

func TestConnectedEdgeSetsUniqueAndConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(7)
		g := graph.New(0)
		for i := 0; i < n; i++ {
			g.AddVertex(graph.Label(rng.Intn(2)))
		}
		for i := 1; i < n; i++ {
			g.MustAddEdge(int32(rng.Intn(i)), int32(i))
		}
		for k := 0; k < n/2; k++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
		es := NewEdgeSet(g)
		seen := map[string]bool{}
		es.VisitConnectedEdgeSets(4, func(ids []int) bool {
			// uniqueness key: sorted ids
			sorted := append([]int(nil), ids...)
			for i := 1; i < len(sorted); i++ {
				for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
					sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
				}
			}
			key := ""
			for _, id := range sorted {
				key += string(rune(id)) + ","
			}
			if seen[key] {
				t.Fatalf("trial %d: duplicate edge set %v", trial, ids)
			}
			seen[key] = true
			// connectivity: subgraph of the edge set must be connected
			sub, _ := es.Subgraph(ids)
			if !sub.IsConnected() {
				t.Fatalf("trial %d: disconnected edge set %v", trial, ids)
			}
			if len(ids) > 4 {
				t.Fatalf("trial %d: oversize edge set", trial)
			}
			return true
		})
		// Cross-check count against brute force for size 1 and 2.
		m := g.NumEdges()
		want1 := m
		want2 := 0
		edges := g.Edges()
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				if sharesVertex(edges[i], edges[j]) {
					want2++
				}
			}
		}
		got1, got2 := 0, 0
		es.VisitConnectedEdgeSets(2, func(ids []int) bool {
			switch len(ids) {
			case 1:
				got1++
			case 2:
				got2++
			}
			return true
		})
		if got1 != want1 || got2 != want2 {
			t.Fatalf("trial %d: sizes (%d,%d), want (%d,%d)", trial, got1, got2, want1, want2)
		}
	}
}

func sharesVertex(a, b [2]int32) bool {
	return a[0] == b[0] || a[0] == b[1] || a[1] == b[0] || a[1] == b[1]
}

func TestVisitSubtreesOnlyTrees(t *testing.T) {
	g := clique(4, 1)
	es := NewEdgeSet(g)
	count := 0
	es.VisitSubtrees(3, func(ids []int) bool {
		if !es.IsTree(ids) {
			t.Fatalf("non-tree emitted")
		}
		count++
		return true
	})
	// K4: 6 single edges; pairs of adjacent edges = 12 (each vertex deg 3:
	// C(3,2)=3 per vertex x 4 = 12); 3-edge subtrees: paths of 3 edges +
	// stars. Just sanity-check nonzero growth.
	if count <= 18 {
		t.Fatalf("subtree count = %d, suspiciously low", count)
	}
}

func TestSubtreeCanonicalDedupMatchesIsomorphism(t *testing.T) {
	// In an unlabelled K4, all 3-edge subtrees are either paths or stars:
	// exactly 2 distinct canonical keys.
	g := clique(4, 1)
	es := NewEdgeSet(g)
	keys := map[canon.Key]bool{}
	es.VisitSubtrees(3, func(ids []int) bool {
		if len(ids) != 3 {
			return true
		}
		sub, _ := es.Subgraph(ids)
		k, ok := canon.TreeKey(sub)
		if !ok {
			t.Fatalf("subtree not a tree")
		}
		keys[k] = true
		return true
	})
	if len(keys) != 2 {
		t.Fatalf("distinct 3-edge subtree shapes in K4 = %d, want 2", len(keys))
	}
}

func TestSubgraphMaterialization(t *testing.T) {
	g := path(5, 6, 7)
	es := NewEdgeSet(g)
	sub, new2old := es.Subgraph([]int{0, 1})
	if sub.NumVertices() != 3 || sub.NumEdges() != 2 {
		t.Fatalf("subgraph shape: %v", sub)
	}
	if len(new2old) != 3 {
		t.Fatalf("mapping size %d", len(new2old))
	}
	for nv, ov := range new2old {
		if sub.Label(int32(nv)) != g.Label(ov) {
			t.Fatalf("label mismatch in materialization")
		}
	}
}
