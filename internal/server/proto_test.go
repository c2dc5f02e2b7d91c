package server

import (
	"encoding/json"
	"slices"
	"testing"
	"time"

	"repro/internal/graph"
)

// wireEdges is the undirected edge set gj describes, lower endpoint first,
// or ok false when gj is no graph: no vertex, an endpoint out of range, a
// self-loop, or an edge given twice (in either direction).
func wireEdges(gj GraphJSON) (set map[[2]int32]bool, ok bool) {
	if len(gj.Vertices) == 0 {
		return nil, false
	}
	set = map[[2]int32]bool{}
	for _, e := range gj.Edges {
		u, v := min(e[0], e[1]), max(e[0], e[1])
		if u < 0 || int(v) >= len(gj.Vertices) || u == v || set[[2]int32{u, v}] {
			return nil, false
		}
		set[[2]int32{u, v}] = true
	}
	return set, true
}

// sameGraph reports whether g is the graph of labels (by name through
// dict) and edges.
func sameGraph(g *graph.Graph, dict *graph.Dictionary, labels []string, edges map[[2]int32]bool) bool {
	if g.NumVertices() != len(labels) || g.NumEdges() != len(edges) {
		return false
	}
	for v, name := range labels {
		if dict.Name(g.Label(int32(v))) != name {
			return false
		}
	}
	for e := range edges {
		if !g.HasEdge(e[0], e[1]) {
			return false
		}
	}
	return true
}

// FuzzGraphJSON: decoding a wire graph never panics, and either fails or
// returns the input graph — its labels by name, its edges as an undirected
// set. A failed decode leaves the dictionary as it was: InternGraph
// interns nothing for a graph it rejects, and ToGraph never interns.
func FuzzGraphJSON(f *testing.F) {
	for _, seed := range []string{
		`{"vertices":["a","b","c"],"edges":[[0,1],[2,1]]}`,
		`{"vertices":["c","new"],"edges":[[1,0]]}`,
		`{"vertices":["new","a"],"edges":[[1,1]]}`,
		`{"vertices":["new","b","c"],"edges":[[0,1],[2,0],[1,0]]}`,
		`{"vertices":["new"],"edges":[[0,-1]]}`,
		`{"vertices":[],"edges":[]}`,
		`{"vertices":["a","b","c","a"],"edges":[[3,2],[3,1],[3,0],[2,1]]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var gj GraphJSON
		if json.Unmarshal(data, &gj) != nil {
			return
		}
		edges, valid := wireEdges(gj)
		known := true
		var dict graph.Dictionary
		for _, name := range []string{"a", "b", "c"} {
			dict.Intern(name)
		}
		for _, name := range gj.Vertices {
			_, ok := dict.Lookup(name)
			known = known && ok
		}
		before := dict.Names()

		q, unknown, err := ToGraph(GraphJSON{Vertices: gj.Vertices, Edges: slices.Clone(gj.Edges)}, &dict)
		switch {
		case !valid:
			if err == nil {
				t.Fatalf("ToGraph accepted %s", data)
			}
		case err != nil:
			t.Fatalf("ToGraph rejected %s: %v", data, err)
		case unknown == known:
			t.Fatalf("ToGraph on %s: unknown = %v", data, unknown)
		case known && !sameGraph(q, &dict, gj.Vertices, edges):
			t.Fatalf("ToGraph on %s: got another graph", data)
		}
		if !slices.Equal(dict.Names(), before) {
			t.Fatalf("ToGraph on %s changed the dictionary", data)
		}

		g, err := InternGraph(gj, &dict)
		switch {
		case !valid:
			if err == nil {
				t.Fatalf("InternGraph accepted %s", data)
			}
			if !slices.Equal(dict.Names(), before) {
				t.Fatalf("InternGraph rejected %s but changed the dictionary", data)
			}
		case err != nil:
			t.Fatalf("InternGraph rejected %s: %v", data, err)
		case !sameGraph(g, &dict, gj.Vertices, edges):
			t.Fatalf("InternGraph on %s: got another graph", data)
		}
	})
}

// TestDecodeDescendingStarIsFast: a star whose edges arrive with the
// leaves descending decodes in O(E log E). Inserting each edge where it
// sorts shifted the hub's whole adjacency list per edge: 400k such edges,
// about 4.4 MB of JSON, took 45 s.
func TestDecodeDescendingStarIsFast(t *testing.T) {
	const leaves = 400_000
	gj := GraphJSON{Vertices: make([]string, leaves+1), Edges: make([][2]int32, leaves)}
	for i := range gj.Vertices {
		gj.Vertices[i] = "a"
	}
	for i := range gj.Edges {
		gj.Edges[i] = [2]int32{0, int32(leaves - i)}
	}
	var dict graph.Dictionary
	t0 := time.Now()
	g, err := InternGraph(gj, &dict)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took > 2*time.Second {
		t.Errorf("decoding a %d-edge descending star took %v, want < 2s", leaves, took)
	}
	if g.NumEdges() != leaves || len(g.Neighbors(0)) != leaves {
		t.Errorf("star decoded with %d edges, hub degree %d, want %d", g.NumEdges(), len(g.Neighbors(0)), leaves)
	}
}
