package grapes

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/testutil/plans"
	"repro/internal/testutil/trap"
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

	cands, err := plans.Candidates(ix, ds, pathGraph(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !cands.Equal(graph.IDSet{0, 1}) {
		t.Errorf("candidates = %v, want [0 1]", cands)
	}
	cands, _ = plans.Candidates(ix, ds, pathGraph(2, 3))
	if !cands.Equal(graph.IDSet{0}) {
		t.Errorf("candidates = %v, want [0]", cands)
	}
	cands, _ = plans.Candidates(ix, ds, pathGraph(9, 9))
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
	cands, err := plans.Candidates(ix, ds, q)
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
	cands, err := plans.Candidates(ix, ds, q)
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

	plan, err := core.NewPlan(context.Background(), ix, ds, pathGraph(1, 2, 3))
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
		a, err1 := plans.Candidates(seq, ds, q)
		b, err2 := plans.Candidates(par, ds, q)
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
	if _, err := plans.Candidates(ix, nil, pathGraph(1)); err == nil {
		t.Errorf("want error before Build")
	}
}

func TestEmptyDataset(t *testing.T) {
	ds := graph.NewDataset("empty")
	ix := build(t, ds, Options{})
	cands, err := plans.Candidates(ix, ds, pathGraph(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 0 {
		t.Errorf("empty dataset produced candidates")
	}
}

// TestVerifyStopsAtFirstComponentMatch: on the trap, whose graph holds the
// query's cycle in one component and a bipartite part the matcher cannot
// finish in a test's lifetime in the other, verification is bounded by the
// first match and by the plan's context. Without a deadline the cycle's
// component answers and cancels the bipartite search; under a 50 ms
// deadline the trap query and a 13-cycle, which only the bipartite search
// could refute, both return promptly — the latter with the deadline's
// error.
func TestVerifyStopsAtFirstComponentMatch(t *testing.T) {
	ds, q := trap.Dataset()
	ix := build(t, ds, Options{})
	p := core.NewProcessor(ix, ds)
	within := func(limit time.Duration, run func() error) error {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- run() }()
		select {
		case err := <-done:
			return err
		case <-time.After(limit):
			t.Fatalf("query still running after %v", limit)
			return nil
		}
	}
	err := within(20*time.Second, func() error {
		res, err := p.QueryCtx(context.Background(), q)
		if err == nil && !res.Answers.Equal(graph.IDSet{0}) {
			t.Errorf("answers %v, want [0]", res.Answers)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, query := range []*graph.Graph{q, trap.Cycle(13)} {
		err := within(5*time.Second, func() error {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			res, err := p.QueryCtx(ctx, query)
			if err == nil && !res.Answers.Equal(graph.IDSet{0}) {
				t.Errorf("%d-cycle: answers %v, want [0] or the deadline's error", query.NumVertices(), res.Answers)
			}
			return err
		})
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%d-cycle: err = %v, want nil or the deadline's error", query.NumVertices(), err)
		}
		if query != q && err == nil {
			t.Errorf("%d-cycle: no error, want the deadline's: the graph does not contain it", query.NumVertices())
		}
	}
}
