package gindex

import (
	"context"
	"testing"

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

func build(t *testing.T, ds *graph.Dataset, opts Options) *Index {
	t.Helper()
	ix := New(opts)
	if err := ix.Build(context.Background(), ds); err != nil {
		t.Fatalf("Build: %v", err)
	}
	return ix
}

func TestSingleEdgeFeaturesIndexed(t *testing.T) {
	ds := graph.NewDataset("t")
	for i := 0; i < 5; i++ {
		ds.Add(pathGraph(1, 2, 3))
	}
	ix := build(t, ds, Options{MaxFeatureSize: 3})
	if ix.NumFeatures() == 0 {
		t.Fatalf("no features indexed")
	}
	cands, err := plans.Candidates(ix, ds, pathGraph(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 5 {
		t.Errorf("candidates = %v, want all 5", cands)
	}
}

func TestFiltersByFrequentFeature(t *testing.T) {
	// 5 graphs have edge (1,2); 5 have edge (3,4). Both edges are frequent,
	// so each is indexed, and a (1,2) query must exclude the (3,4) graphs.
	ds := graph.NewDataset("t")
	for i := 0; i < 5; i++ {
		ds.Add(pathGraph(1, 2))
	}
	for i := 0; i < 5; i++ {
		ds.Add(pathGraph(3, 4))
	}
	ix := build(t, ds, Options{MaxFeatureSize: 2})
	cands, err := plans.Candidates(ix, ds, pathGraph(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !cands.Equal(graph.IDSet{0, 1, 2, 3, 4}) {
		t.Errorf("candidates = %v, want the five (1,2) graphs", cands)
	}
}

func TestInfrequentEdgeCannotFilter(t *testing.T) {
	// Edge (7,8) appears in one graph out of 20: infrequent, not indexed,
	// so a query containing it keeps all graphs as candidates (sound but
	// imprecise — exactly the paper's account of frequent-mining methods).
	ds := graph.NewDataset("t")
	ds.Add(pathGraph(7, 8))
	for i := 0; i < 19; i++ {
		ds.Add(pathGraph(1, 2))
	}
	ix := build(t, ds, Options{MaxFeatureSize: 2})
	cands, err := plans.Candidates(ix, ds, pathGraph(7, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 20 {
		t.Errorf("candidates = %d graphs, want all 20 (no filtering possible)", len(cands))
	}
}

func TestNoFalseNegativesRandom(t *testing.T) {
	ds := gen.Synthetic(gen.SynthConfig{NumGraphs: 25, MeanNodes: 12, MeanDensity: 0.22, NumLabels: 3, Seed: 10})
	ix := build(t, ds, Options{MaxFeatureSize: 5})
	qs, err := workload.Generate(ds, workload.Config{NumQueries: 12, QueryEdges: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		cands, err := plans.Candidates(ix, ds, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range ds.Graphs {
			if subiso.Exists(q, g) && !cands.Contains(g.ID()) {
				t.Errorf("query %d: false negative for graph %d", i, g.ID())
			}
		}
	}
}

func TestDiscriminativeGatePrunesFeatures(t *testing.T) {
	ds := gen.Synthetic(gen.SynthConfig{NumGraphs: 30, MeanNodes: 10, MeanDensity: 0.25, NumLabels: 2, Seed: 12})
	loose := build(t, ds, Options{MaxFeatureSize: 4, DiscriminativeGate: 1.0001})
	strict := build(t, ds, Options{MaxFeatureSize: 4, DiscriminativeGate: 100})
	if strict.NumFeatures() >= loose.NumFeatures() {
		t.Errorf("stricter gate should index fewer features: %d vs %d",
			strict.NumFeatures(), loose.NumFeatures())
	}
}

func TestFragmentBudgetStillSound(t *testing.T) {
	ds := gen.Synthetic(gen.SynthConfig{NumGraphs: 15, MeanNodes: 12, MeanDensity: 0.25, NumLabels: 2, Seed: 13})
	ix := build(t, ds, Options{MaxFeatureSize: 4, FragmentBudget: 3})
	qs, err := workload.Generate(ds, workload.Config{NumQueries: 6, QueryEdges: 6, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		cands, err := plans.Candidates(ix, ds, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range ds.Graphs {
			if subiso.Exists(q, g) && !cands.Contains(g.ID()) {
				t.Errorf("query %d: tiny budget caused a false negative on %d", i, g.ID())
			}
		}
	}
}

func TestUnbuiltAndSize(t *testing.T) {
	ix := New(Options{})
	if _, err := plans.Candidates(ix, nil, pathGraph(1)); err == nil {
		t.Errorf("want error before Build")
	}
	ds := graph.NewDataset("t")
	for i := 0; i < 3; i++ {
		ds.Add(pathGraph(1, 2))
	}
	built := build(t, ds, Options{MaxFeatureSize: 2})
	if built.SizeBytes() <= 0 {
		t.Errorf("SizeBytes = %d", built.SizeBytes())
	}
}
