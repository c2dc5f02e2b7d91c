package subiso

import (
	"context"
	"math/rand"
	"testing"

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
	if len(labels) >= 3 {
		g.MustAddEdge(int32(len(labels)-1), 0)
	}
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

func TestExistsBasic(t *testing.T) {
	g := cycle(1, 2, 3, 4)
	cases := []struct {
		name string
		q    *graph.Graph
		want bool
	}{
		{"single matching vertex", path(1), true},
		{"single missing vertex", path(9), false},
		{"edge present", path(1, 2), true},
		{"edge absent labels", path(1, 3), false},
		{"path around cycle", path(4, 1, 2, 3), true},
		{"whole cycle", cycle(1, 2, 3, 4), true},
		{"reversed cycle", cycle(4, 3, 2, 1), true},
		{"cycle too long", cycle(1, 2, 3, 4, 5), false},
		{"triangle not in C4", cycle(1, 2, 3), false},
		{"empty query", graph.New(0), true},
	}
	for _, c := range cases {
		if got := Exists(c.q, g); got != c.want {
			t.Errorf("%s: Exists = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestMonomorphismNotInduced(t *testing.T) {
	// Query: path 1-2-3. Data: triangle with labels 1,2,3. The path maps
	// into the triangle even though the data has an extra edge (Def. 3 is
	// not induced).
	q := path(1, 2, 3)
	g := cycle(1, 2, 3)
	if !Exists(q, g) {
		t.Fatalf("non-induced embedding not found")
	}
}

func TestMultipleLabelOccurrences(t *testing.T) {
	// Data: star with center label 0 and leaves all label 1.
	g := graph.New(0)
	c := g.AddVertex(0)
	for i := 0; i < 4; i++ {
		l := g.AddVertex(1)
		g.MustAddEdge(c, l)
	}
	// Query: star with 3 leaves — injectivity requires 3 distinct leaves.
	q := graph.New(0)
	qc := q.AddVertex(0)
	for i := 0; i < 3; i++ {
		ql := q.AddVertex(1)
		q.MustAddEdge(qc, ql)
	}
	if !Exists(q, g) {
		t.Fatalf("star query should embed")
	}
	// 5 leaves cannot embed into 4.
	q5 := graph.New(0)
	qc5 := q5.AddVertex(0)
	for i := 0; i < 5; i++ {
		ql := q5.AddVertex(1)
		q5.MustAddEdge(qc5, ql)
	}
	if Exists(q5, g) {
		t.Fatalf("5-leaf star embedded into 4-leaf star")
	}
}

func TestCount(t *testing.T) {
	// Path 1-1 in triangle of all-1 labels: 3 edges x 2 orientations = 6.
	g := clique(3, 1)
	q := path(1, 1)
	if got := Count(q, g, 0); got != 6 {
		t.Errorf("Count = %d, want 6", got)
	}
	if got := Count(q, g, 4); got != 4 {
		t.Errorf("Count limited = %d, want 4", got)
	}
	// Triangle query in K4: 4 vertex subsets x 3! mappings = 24.
	if got := Count(cycle(1, 1, 1), clique(4, 1), 0); got != 24 {
		t.Errorf("triangles in K4 = %d, want 24", got)
	}
}

func TestFindOneIsValidEmbedding(t *testing.T) {
	g := cycle(1, 2, 3, 4)
	q := path(2, 3, 4)
	m := FindOne(q, g)
	if m == nil {
		t.Fatalf("no embedding found")
	}
	seen := map[int32]bool{}
	for qv := int32(0); int(qv) < q.NumVertices(); qv++ {
		gv := m[qv]
		if q.Label(qv) != g.Label(gv) {
			t.Errorf("label mismatch at %d", qv)
		}
		if seen[gv] {
			t.Errorf("mapping not injective at %d", gv)
		}
		seen[gv] = true
	}
	for _, e := range q.Edges() {
		if !g.HasEdge(m[e[0]], m[e[1]]) {
			t.Errorf("edge %v not preserved", e)
		}
	}
}

func TestRestrict(t *testing.T) {
	// Two disjoint triangles in one graph; restrict to the second.
	g := graph.New(0)
	for i := 0; i < 6; i++ {
		g.AddVertex(1)
	}
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 0)
	g.MustAddEdge(3, 4)
	g.MustAddEdge(4, 5)
	g.MustAddEdge(5, 3)
	p := Compile(cycle(1, 1, 1), Options{})
	ctx := context.Background()
	comp := []int32{0, 0, 0, 1, 1, 1}
	for c := int32(0); c < 2; c++ {
		if !p.ExistsRestricted(ctx, g, comp, c) {
			t.Errorf("restricted to triangle %d: want match", c)
		}
	}
	if p.ExistsRestricted(ctx, g, comp, 2) {
		t.Errorf("restricted to nothing: want no match")
	}
	// A restriction that cuts both triangles leaves no embedding.
	if p.ExistsRestricted(ctx, g, []int32{0, 0, 1, 1, 0, 0}, 0) {
		t.Errorf("restricted across triangles: want no match")
	}
}

func TestDisconnectedQuery(t *testing.T) {
	// Query: two isolated vertices labelled 1 and 2.
	q := graph.New(0)
	q.AddVertex(1)
	q.AddVertex(2)
	g := path(1, 3, 2)
	if !Exists(q, g) {
		t.Fatalf("disconnected query should match")
	}
	// Needs two distinct vertices with label 1.
	q2 := graph.New(0)
	q2.AddVertex(1)
	q2.AddVertex(1)
	g2 := path(1, 2)
	if Exists(q2, g2) {
		t.Fatalf("two label-1 vertices matched one")
	}
}

func TestContextCancellation(t *testing.T) {
	// A hard instance: big all-same-label clique query embedded in a bigger
	// clique would finish fast; instead use a near-miss that forces heavy
	// backtracking: query clique K8 vs data graph K8 minus one edge.
	q := clique(8, 1)
	g := clique(8, 1)
	// K8 minus the edge {0,1}
	g2 := graph.New(0)
	for i := 0; i < 8; i++ {
		g2.AddVertex(1)
	}
	for i := int32(0); i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			if i == 0 && j == 1 {
				continue
			}
			g2.MustAddEdge(i, j)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if Compile(q, Options{}).Exists(ctx, g2) {
		t.Fatalf("K8 should not embed in K8 minus an edge")
	}
	// The cancellation is seen mid-search, not only between candidates: K8
	// holds 6720 embeddings of a 5-path, a cancelled run stops short of them.
	n := 0
	Compile(path(1, 1, 1, 1, 1), Options{}).Run(ctx, g, func([]int32) bool { n++; return true })
	if n == 0 || n >= 6720 {
		t.Fatalf("cancelled enumeration yielded %d embeddings, want some but not all 6720", n)
	}
}

func TestRandomPlantedSubgraphs(t *testing.T) {
	// Property: a random connected subgraph of g always embeds in g.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(15)
		g := graph.New(0)
		for i := 0; i < n; i++ {
			g.AddVertex(graph.Label(rng.Intn(3)))
		}
		// random spanning tree + extra edges
		for i := 1; i < n; i++ {
			g.MustAddEdge(int32(rng.Intn(i)), int32(i))
		}
		for k := 0; k < n; k++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
		// random walk subgraph (never larger than the graph itself)
		size := 2 + rng.Intn(5)
		if size > n {
			size = n
		}
		start := int32(rng.Intn(n))
		vertices := map[int32]bool{start: true}
		cur := start
		for len(vertices) < size {
			nb := g.Neighbors(cur)
			if len(nb) == 0 {
				break
			}
			cur = nb[rng.Intn(len(nb))]
			vertices[cur] = true
		}
		var vs []int32
		for v := range vertices {
			vs = append(vs, v)
		}
		q, _, err := g.InducedSubgraph(vs)
		if err != nil {
			t.Fatalf("induced: %v", err)
		}
		if !Exists(q, g) {
			t.Fatalf("trial %d: planted subgraph not found", trial)
		}
		if !ExistsTuned(q, g) {
			t.Fatalf("trial %d: tuned matcher missed planted subgraph", trial)
		}
	}
}

func TestTunedAgreesWithVF2(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 120; trial++ {
		mk := func(n, extra, nlab int) *graph.Graph {
			g := graph.New(0)
			for i := 0; i < n; i++ {
				g.AddVertex(graph.Label(rng.Intn(nlab)))
			}
			for i := 1; i < n; i++ {
				g.MustAddEdge(int32(rng.Intn(i)), int32(i))
			}
			for k := 0; k < extra; k++ {
				u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
				if u != v && !g.HasEdge(u, v) {
					g.MustAddEdge(u, v)
				}
			}
			return g
		}
		g := mk(4+rng.Intn(10), rng.Intn(8), 2)
		q := mk(2+rng.Intn(4), rng.Intn(3), 2)
		want := Exists(q, g)
		if got := ExistsTuned(q, g); got != want {
			t.Fatalf("trial %d: tuned=%v vf2=%v\nq=%v\ng=%v", trial, got, want, q, g)
		}
	}
}

func TestQueryLargerThanData(t *testing.T) {
	if Exists(clique(5, 1), clique(4, 1)) {
		t.Fatalf("bigger query matched smaller data")
	}
	if ExistsTuned(clique(5, 1), clique(4, 1)) {
		t.Fatalf("tuned: bigger query matched smaller data")
	}
}
