package scan

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/testutil/plans"
	"repro/internal/workload"
)

func TestScanIsExactGroundTruth(t *testing.T) {
	ds := gen.Synthetic(gen.SynthConfig{
		NumGraphs: 20, MeanNodes: 12, MeanDensity: 0.25, NumLabels: 3, Seed: 1,
	})
	ix := New()
	if err := ix.Build(context.Background(), ds); err != nil {
		t.Fatalf("Build: %v", err)
	}
	qs, err := workload.Generate(ds, workload.Config{NumQueries: 6, QueryEdges: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	proc := core.NewProcessor(ix, ds)
	for i, q := range qs {
		res, err := proc.Query(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(res.Candidates) != ds.Len() {
			t.Errorf("query %d: candidates = %d, want all %d", i, len(res.Candidates), ds.Len())
		}
		truth, err := core.BruteForceAnswers(context.Background(), ds, q)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Answers.Equal(truth) {
			t.Errorf("query %d: answers diverge from direct brute force", i)
		}
	}
	if ix.SizeBytes() != 0 {
		t.Errorf("baseline claims an index size")
	}
}

func TestScanUnbuiltAndCancel(t *testing.T) {
	ix := New()
	q := graph.New(0)
	q.AddVertex(1)
	if _, err := plans.Candidates(ix, nil, q); err == nil {
		t.Errorf("want error before Build")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ix.Build(ctx, graph.NewDataset("x")); err == nil {
		t.Errorf("cancelled build should error")
	}
}
