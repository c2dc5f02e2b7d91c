package grapes

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/workload"
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

func build(t *testing.T, ds *graph.Dataset, opts Options) *Index {
	t.Helper()
	ix := New(opts)
	if err := ix.Build(context.Background(), ds); err != nil {
		t.Fatalf("Build: %v", err)
	}
	return ix
}

func TestCandidatesBasic(t *testing.T) {
	ds := graph.NewDataset("t")
	ds.Add(pathGraph(1, 2, 3))
	ds.Add(pathGraph(1, 2, 4))
	ds.Add(pathGraph(5, 6))
	ix := build(t, ds, Options{})

	cands, err := ix.Candidates(pathGraph(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !cands.Equal(graph.IDSet{0, 1}) {
		t.Errorf("candidates = %v, want [0 1]", cands)
	}
	cands, _ = ix.Candidates(pathGraph(2, 3))
	if !cands.Equal(graph.IDSet{0}) {
		t.Errorf("candidates = %v, want [0]", cands)
	}
	cands, _ = ix.Candidates(pathGraph(9, 9))
	if len(cands) != 0 {
		t.Errorf("candidates for absent labels = %v", cands)
	}
}

func TestCountDominance(t *testing.T) {
	// Data graph 0 has one 1-1 edge, graph 1 has two (a path 1-1-1).
	ds := graph.NewDataset("t")
	ds.Add(pathGraph(1, 1))
	ds.Add(pathGraph(1, 1, 1))
	ix := build(t, ds, Options{})
	// Query needs two 1-1 edges.
	q := pathGraph(1, 1, 1)
	cands, err := ix.Candidates(q)
	if err != nil {
		t.Fatal(err)
	}
	if !cands.Equal(graph.IDSet{1}) {
		t.Errorf("count dominance failed: candidates = %v, want [1]", cands)
	}
}

func TestComponentFiltering(t *testing.T) {
	// Graph 0: two components, labels {1,2} and {3,4}. A query path
	// 1-2-...-no wait: a connected query whose features are split across
	// components cannot be contained; the location info must reject it.
	g := graph.New(0)
	a := g.AddVertex(1)
	b := g.AddVertex(2)
	g.MustAddEdge(a, b)
	c := g.AddVertex(1)
	d := g.AddVertex(3)
	g.MustAddEdge(c, d)
	ds := graph.NewDataset("t")
	ds.Add(g)
	ix := build(t, ds, Options{})

	// Query 2-1-3 requires features 2-1 and 1-3 in the SAME component.
	q := pathGraph(2, 1, 3)
	cands, err := ix.Candidates(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 0 {
		t.Errorf("component filtering failed: candidates = %v, want none", cands)
	}
}

func TestPlanVerifyOnComponents(t *testing.T) {
	// Two components; the query matches only the second. Verify must find it.
	g := graph.New(0)
	g.AddVertex(9)
	x := g.AddVertex(1)
	y := g.AddVertex(2)
	z := g.AddVertex(3)
	g.MustAddEdge(x, y)
	g.MustAddEdge(y, z)
	ds := graph.NewDataset("t")
	ds.Add(g)
	ix := build(t, ds, Options{})

	plan, err := ix.PlanQuery(ds, pathGraph(1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Candidates().Equal(graph.IDSet{0}) {
		t.Fatalf("candidates = %v", plan.Candidates())
	}
	if !plan.Verify(0) {
		t.Errorf("verification failed on the containing component")
	}
}

func TestWorkerCountsAgree(t *testing.T) {
	ds := gen.Synthetic(gen.SynthConfig{NumGraphs: 12, MeanNodes: 15, MeanDensity: 0.2, NumLabels: 3, Seed: 2})
	seq := build(t, ds, Options{Workers: 1})
	par := build(t, ds, Options{Workers: 8})
	if seq.NumFeatures() != par.NumFeatures() {
		t.Fatalf("feature count differs by worker count: %d vs %d", seq.NumFeatures(), par.NumFeatures())
	}
	qs, err := workload.Generate(ds, workload.Config{NumQueries: 5, QueryEdges: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		a, err1 := seq.Candidates(q)
		b, err2 := par.Candidates(q)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !a.Equal(b) {
			t.Errorf("query %d: sequential %v vs parallel %v", i, a, b)
		}
	}
}

func TestSizeAndFeatures(t *testing.T) {
	ds := graph.NewDataset("t")
	ds.Add(pathGraph(1, 2, 3))
	ix := build(t, ds, Options{})
	if ix.SizeBytes() <= 0 {
		t.Errorf("SizeBytes = %d", ix.SizeBytes())
	}
	// P3 label paths (canonical): [1],[2],[3],[1 2],[2 3],[1 2 3] = 6.
	if ix.NumFeatures() != 6 {
		t.Errorf("NumFeatures = %d, want 6", ix.NumFeatures())
	}
}

func TestUnbuiltErrors(t *testing.T) {
	ix := New(Options{})
	if _, err := ix.Candidates(pathGraph(1)); err == nil {
		t.Errorf("want error before Build")
	}
}

func TestEmptyDataset(t *testing.T) {
	ds := graph.NewDataset("empty")
	ix := build(t, ds, Options{})
	cands, err := ix.Candidates(pathGraph(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 0 {
		t.Errorf("empty dataset produced candidates")
	}
}
