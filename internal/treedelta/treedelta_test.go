package treedelta

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

func TestTreeFeaturesFilter(t *testing.T) {
	ds := graph.NewDataset("t")
	for i := 0; i < 5; i++ {
		ds.Add(pathGraph(1, 2, 3))
	}
	for i := 0; i < 5; i++ {
		ds.Add(pathGraph(4, 5, 6))
	}
	ix := build(t, ds, Options{MaxFeatureSize: 3})
	if ix.NumTreeFeatures() == 0 {
		t.Fatalf("no tree features mined")
	}
	cands, err := plans.Candidates(ix, ds, pathGraph(1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !cands.Equal(graph.IDSet{0, 1, 2, 3, 4}) {
		t.Errorf("candidates = %v", cands)
	}
}

func TestDeltaAdmission(t *testing.T) {
	// Dataset: half triangles, half paths with the same labels. Tree
	// features cannot separate them; the Δ mechanism should learn the
	// triangle after enough triangle queries and start pruning the paths.
	ds := graph.NewDataset("t")
	for i := 0; i < 6; i++ {
		ds.Add(cycleGraph(1, 1, 1))
	}
	for i := 0; i < 6; i++ {
		ds.Add(pathGraph(1, 1, 1))
	}
	ix := build(t, ds, Options{MaxFeatureSize: 3, QuerySupportToAdd: 0.5})

	// Tree features alone cannot separate triangles from paths.
	trees := ix.treeCandidates(cycleGraph(1, 1, 1))
	if len(trees) != 12 {
		t.Fatalf("tree-only candidates = %d, want 12 (trees cannot separate)", len(trees))
	}
	// With the full pipeline, the triangle Δ structure is query-frequent
	// immediately (support-to-add is a ratio over processed queries), gets
	// admitted with its full posting, and prunes the path graphs.
	q := cycleGraph(1, 1, 1)
	var last graph.IDSet
	var err error
	for i := 0; i < 5; i++ {
		last, err = plans.Candidates(ix, ds, q)
		if err != nil {
			t.Fatal(err)
		}
	}
	if ix.NumDeltaFeatures() == 0 {
		t.Fatalf("no Δ feature admitted after repeated cyclic queries")
	}
	if !last.Equal(graph.IDSet{0, 1, 2, 3, 4, 5}) {
		t.Errorf("Δ filtering: candidates = %v, want the six triangles", last)
	}
}

func TestDeltaSoundnessAfterAdmission(t *testing.T) {
	// After Δ admission, answers must still be exact for other queries.
	ds := gen.Synthetic(gen.SynthConfig{NumGraphs: 20, MeanNodes: 10, MeanDensity: 0.3, NumLabels: 2, Seed: 15})
	ix := build(t, ds, Options{MaxFeatureSize: 4, QuerySupportToAdd: 0.3})
	qs, err := workload.Generate(ds, workload.Config{NumQueries: 15, QueryEdges: 5, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for i, q := range qs {
			cands, err := plans.Candidates(ix, ds, q)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range ds.Graphs {
				if subiso.Exists(q, g) && !cands.Contains(g.ID()) {
					t.Fatalf("round %d query %d: false negative for graph %d (Δ features: %d)",
						round, i, g.ID(), ix.NumDeltaFeatures())
				}
			}
		}
	}
}

func TestAcyclicQueriesSkipDelta(t *testing.T) {
	ds := graph.NewDataset("t")
	for i := 0; i < 4; i++ {
		ds.Add(pathGraph(1, 2, 3, 4))
	}
	ix := build(t, ds, Options{MaxFeatureSize: 3})
	for i := 0; i < 10; i++ {
		if _, err := plans.Candidates(ix, ds, pathGraph(1, 2, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if ix.NumDeltaFeatures() != 0 {
		t.Errorf("acyclic queries admitted Δ features")
	}
}

func TestUnbuiltAndSize(t *testing.T) {
	ix := New(Options{})
	if _, err := plans.Candidates(ix, nil, pathGraph(1, 2)); err == nil {
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
