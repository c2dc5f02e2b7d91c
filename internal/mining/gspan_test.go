package mining

import (
	"context"
	"errors"
	"testing"

	"repro/internal/dfscode"
	"repro/internal/graph"
	"repro/internal/subiso"
)

func pathGraph(labels ...graph.Label) *graph.Graph {
	g := graph.New(0)
	for _, l := range labels {
		g.AddVertex(l)
	}
	for i := 1; i < len(labels); i++ {
		g.MustAddEdge(int32(i-1), int32(i))
	}
	return g
}

func triangle(a, b, c graph.Label) *graph.Graph {
	g := pathGraph(a, b, c)
	g.MustAddEdge(2, 0)
	return g
}

func minePatterns(t *testing.T, ds *graph.Dataset, cfg Config) []*Pattern {
	t.Helper()
	var out []*Pattern
	err := Mine(context.Background(), ds, cfg, func(p *Pattern) bool {
		out = append(out, p)
		return true
	})
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	return out
}

func TestMineSingleEdges(t *testing.T) {
	ds := graph.NewDataset("t")
	ds.Add(pathGraph(1, 2))
	ds.Add(pathGraph(1, 2))
	ds.Add(pathGraph(1, 3))
	patterns := minePatterns(t, ds, Config{MinSupportRatio: 0.5, MaxEdges: 1})
	// Edge (1,2) support 2/3 >= 0.5; edge (1,3) support 1/3 < 0.5.
	if len(patterns) != 1 {
		t.Fatalf("patterns = %d, want 1", len(patterns))
	}
	p := patterns[0]
	if len(p.Code) != 1 || p.Code[0].LI != 1 || p.Code[0].LJ != 2 {
		t.Fatalf("wrong pattern: %v", p.Code)
	}
	if !p.Support.Equal(graph.IDSet{0, 1}) {
		t.Fatalf("support = %v", p.Support)
	}
}

func TestMineEmitsEachPatternOnce(t *testing.T) {
	ds := graph.NewDataset("t")
	for i := 0; i < 4; i++ {
		ds.Add(triangle(1, 1, 1))
	}
	patterns := minePatterns(t, ds, Config{MinSupportRatio: 0.5, MaxEdges: 3})
	seen := map[string]bool{}
	for _, p := range patterns {
		k := p.Code.Key()
		if seen[k] {
			t.Fatalf("pattern emitted twice: %v", p.Code)
		}
		seen[k] = true
	}
	// All-1 triangle dataset: patterns are the 1-edge, 2-edge path, 3-edge
	// path... no wait, a triangle has only 3 vertices: patterns are edge,
	// path-2, triangle.
	if len(patterns) != 3 {
		t.Fatalf("patterns = %d, want 3 (edge, wedge, triangle)", len(patterns))
	}
}

func TestMineSupportsAreExact(t *testing.T) {
	ds := graph.NewDataset("t")
	ds.Add(triangle(1, 2, 3))
	ds.Add(pathGraph(1, 2, 3))
	ds.Add(pathGraph(2, 1, 2))
	patterns := minePatterns(t, ds, Config{MinSupportRatio: 0.3, MaxEdges: 3})
	for _, p := range patterns {
		pg := p.Code.Graph()
		var want graph.IDSet
		for _, g := range ds.Graphs {
			if subiso.Exists(pg, g) {
				want = append(want, g.ID())
			}
		}
		if !p.Support.Equal(want) {
			t.Errorf("pattern %v: support %v, want %v", p.Code, p.Support, want)
		}
	}
}

func TestMineFindsAllFrequentPatterns(t *testing.T) {
	// Brute-force cross-check on a small dataset: every connected subgraph
	// pattern (up to 3 edges) contained in >= minSup graphs must be found.
	ds := graph.NewDataset("t")
	ds.Add(triangle(1, 2, 2))
	ds.Add(triangle(1, 2, 2))
	ds.Add(pathGraph(2, 1, 2, 2))
	patterns := minePatterns(t, ds, Config{MinSupportRatio: 0.6, MaxEdges: 3})
	byKey := map[string]*Pattern{}
	for _, p := range patterns {
		byKey[p.Code.Key()] = p
	}
	// The wedge 2-1-2 appears in all graphs.
	wedge := pathGraph(2, 1, 2)
	key := dfscode.Minimum(wedge).Key()
	p, ok := byKey[key]
	if !ok {
		t.Fatalf("wedge 2-1-2 not mined")
	}
	if len(p.Support) != 3 {
		t.Fatalf("wedge support = %v", p.Support)
	}
	// The triangle appears in two graphs (2/3 >= 0.6).
	tri := triangle(1, 2, 2)
	triKey := dfscode.Minimum(tri).Key()
	tp, ok := byKey[triKey]
	if !ok {
		t.Fatalf("triangle not mined")
	}
	if len(tp.Support) != 2 {
		t.Fatalf("triangle support = %v", tp.Support)
	}
}

func TestMineTreesOnly(t *testing.T) {
	ds := graph.NewDataset("t")
	for i := 0; i < 3; i++ {
		ds.Add(triangle(1, 1, 1))
	}
	patterns := minePatterns(t, ds, Config{MinSupportRatio: 0.5, MaxEdges: 3, TreesOnly: true})
	for _, p := range patterns {
		pg := p.Code.Graph()
		if pg.NumEdges() != pg.NumVertices()-1 {
			t.Fatalf("non-tree pattern mined in TreesOnly mode: %v", p.Code)
		}
	}
	// edge and wedge only (triangle excluded).
	if len(patterns) != 2 {
		t.Fatalf("patterns = %d, want 2", len(patterns))
	}
}

func TestMineParentLinks(t *testing.T) {
	ds := graph.NewDataset("t")
	for i := 0; i < 3; i++ {
		ds.Add(pathGraph(1, 2, 3))
	}
	patterns := minePatterns(t, ds, Config{MinSupportRatio: 0.5, MaxEdges: 2})
	for _, p := range patterns {
		if len(p.Code) == 1 {
			if p.Parent != nil {
				t.Fatalf("single-edge pattern has a parent")
			}
		} else {
			if p.Parent == nil {
				t.Fatalf("multi-edge pattern lacks a parent")
			}
			if len(p.Parent.Code) != len(p.Code)-1 {
				t.Fatalf("parent is not one edge smaller")
			}
		}
	}
}

func TestMineCancellation(t *testing.T) {
	ds := graph.NewDataset("t")
	for i := 0; i < 5; i++ {
		ds.Add(triangle(1, 1, 1))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Mine(ctx, ds, Config{MinSupportRatio: 0.1, MaxEdges: 5}, func(p *Pattern) bool { return true })
	if err == nil {
		t.Fatalf("cancelled mine should error")
	}
}

func TestMineMaxPatternsBudget(t *testing.T) {
	ds := graph.NewDataset("t")
	for i := 0; i < 3; i++ {
		ds.Add(triangle(1, 1, 1))
	}
	count := 0
	err := Mine(context.Background(), ds, Config{MinSupportRatio: 0.1, MaxEdges: 3, MaxPatterns: 2},
		func(p *Pattern) bool { count++; return true })
	if err == nil {
		t.Fatalf("budget exhaustion should surface as an error")
	}
	if !errors.Is(err, ErrPatternBudget) || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("budget exhaustion returned %v, want ErrPatternBudget and no deadline", err)
	}
	if count > 2 {
		t.Fatalf("emitted %d patterns past the budget", count)
	}
}

func TestSupportRatio(t *testing.T) {
	p := &Pattern{Support: graph.IDSet{0, 1}}
	if r := p.SupportRatio(4); r != 0.5 {
		t.Fatalf("SupportRatio = %v", r)
	}
	if r := p.SupportRatio(0); r != 0 {
		t.Fatalf("SupportRatio(0) = %v", r)
	}
}
