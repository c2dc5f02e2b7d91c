package ctindex

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/subiso"
	"repro/internal/testutil/plans"
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

func cycleGraph(labels ...graph.Label) *graph.Graph {
	g := pathGraph(labels...)
	g.MustAddEdge(int32(len(labels)-1), 0)
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

func TestFingerprintSubsetProperty(t *testing.T) {
	// The fingerprint of a subgraph must be a subset of the fingerprint of
	// its supergraph — the soundness foundation of CT-Index filtering.
	ds := gen.Synthetic(gen.SynthConfig{NumGraphs: 10, MeanNodes: 12, MeanDensity: 0.25, NumLabels: 3, Seed: 8})
	ix := build(t, ds, Options{})
	qs, err := workload.Generate(ds, workload.Config{NumQueries: 10, QueryEdges: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		qfp := ix.fingerprint(q)
		contained := false
		for _, g := range ds.Graphs {
			if subiso.Exists(q, g) {
				contained = true
				if !qfp.IsSubsetOf(ix.fps[g.ID()]) {
					t.Errorf("query %d: fingerprint not a subset for containing graph %d", i, g.ID())
				}
			}
		}
		if !contained {
			t.Fatalf("query %d not contained anywhere (workload bug)", i)
		}
	}
}

func TestCycleFeaturesDistinguish(t *testing.T) {
	// A triangle and a path have different cycle features; with tree
	// features alone they'd collide more often.
	ds := graph.NewDataset("t")
	ds.Add(cycleGraph(1, 1, 1)) // triangle
	ds.Add(pathGraph(1, 1, 1))  // path
	ix := build(t, ds, Options{})
	cands, err := plans.Candidates(ix, ds, cycleGraph(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if cands.Contains(1) {
		t.Errorf("path graph survived triangle query filtering")
	}
	if !cands.Contains(0) {
		t.Errorf("triangle filtered out its own query")
	}
}

func TestVerifyCandidate(t *testing.T) {
	ds := graph.NewDataset("t")
	ds.Add(pathGraph(1, 2, 3))
	ix := build(t, ds, Options{})
	// The pipeline's view of CT-Index's verifier: the query compiled by
	// Plan with the tuned matcher, run against candidates by the plan.
	verify := func(q *graph.Graph, id graph.ID) bool {
		plan, err := core.NewPlan(context.Background(), ix, ds, q)
		if err != nil {
			t.Fatal(err)
		}
		return plan.Verify(id)
	}
	if !verify(pathGraph(2, 3), 0) {
		t.Errorf("contained query rejected")
	}
	if verify(pathGraph(3, 1), 0) {
		t.Errorf("non-contained query accepted")
	}
	if verify(pathGraph(1), graph.ID(99)) {
		t.Errorf("out-of-range candidate accepted")
	}
}

func TestFixedSizeIndex(t *testing.T) {
	small := gen.Synthetic(gen.SynthConfig{NumGraphs: 10, MeanNodes: 10, MeanDensity: 0.2, NumLabels: 3, Seed: 1})
	big := gen.Synthetic(gen.SynthConfig{NumGraphs: 10, MeanNodes: 30, MeanDensity: 0.2, NumLabels: 3, Seed: 1})
	ixSmall := build(t, small, Options{})
	ixBig := build(t, big, Options{})
	// Same per-graph footprint regardless of graph size: that is the point
	// of fixed-size fingerprints.
	if ixSmall.SizeBytes() != ixBig.SizeBytes() {
		t.Errorf("fingerprint index size depends on graph size: %d vs %d",
			ixSmall.SizeBytes(), ixBig.SizeBytes())
	}
}

func TestFingerprintBitsOption(t *testing.T) {
	ds := graph.NewDataset("t")
	ds.Add(pathGraph(1, 2))
	ix := build(t, ds, Options{FingerprintBits: 128})
	if got := ix.fps[0].Len(); got != 128 {
		t.Errorf("fingerprint length = %d, want 128", got)
	}
}

func TestUnbuilt(t *testing.T) {
	ix := New(Options{})
	if _, err := plans.Candidates(ix, nil, pathGraph(1)); err == nil {
		t.Errorf("want error before Build")
	}
}
