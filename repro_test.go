package repro_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"testing"

	"repro"
)

func exampleDataset() *repro.Dataset {
	return repro.NewSyntheticDataset(repro.SynthConfig{
		NumGraphs: 30, MeanNodes: 15, MeanDensity: 0.2, NumLabels: 4, Seed: 5,
	})
}

func TestFacadeEndToEnd(t *testing.T) {
	ds := exampleDataset()
	queries, err := repro.GenerateQueries(ds, repro.WorkloadConfig{
		NumQueries: 5, QueryEdges: 6, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []repro.MethodID{repro.Grapes, repro.GGSX, repro.CTIndex,
		repro.GIndex, repro.TreeDelta, repro.GCode} {
		idx, err := repro.New(string(id))
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if err := idx.Build(context.Background(), ds); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		proc := repro.NewProcessor(idx, ds)
		for i, q := range queries {
			res, err := proc.Query(q)
			if err != nil {
				t.Fatalf("%s query %d: %v", id, i, err)
			}
			truth, err := repro.BruteForceAnswers(context.Background(), ds, q)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Answers.Equal(truth) {
				t.Errorf("%s query %d: answers diverge from brute force", id, i)
			}
		}
	}
}

func TestEngineFacade(t *testing.T) {
	ds := exampleDataset()
	queries, err := repro.GenerateQueries(ds, repro.WorkloadConfig{
		NumQueries: 3, QueryEdges: 5, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	eng, err := repro.Open(ctx, ds, repro.WithSpec("ctindex:fingerprintBits=1024"))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i, q := range queries {
		res, err := eng.Query(ctx, q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		truth, err := repro.BruteForceAnswers(ctx, ds, q)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Answers.Equal(truth) {
			t.Errorf("query %d: engine answers diverge from brute force", i)
		}
		var streamed repro.IDSet
		for id, err := range repro.Stream(ctx, eng.Method(), ds, q) {
			if err != nil {
				t.Fatalf("stream %d: %v", i, err)
			}
			streamed = append(streamed, id)
		}
		if !streamed.Equal(truth) {
			t.Errorf("query %d: streamed answers diverge from brute force", i)
		}
	}
}

func TestNewErrorsOnBadSpec(t *testing.T) {
	if _, err := repro.New("nope"); err == nil {
		t.Fatalf("New(nope): want error")
	}
	if _, err := repro.New("grapes:bogus=1"); err == nil {
		t.Fatalf("New(grapes:bogus=1): want error")
	}
	if len(repro.Methods()) < 7 {
		t.Fatalf("Methods() = %d entries, want >= 7", len(repro.Methods()))
	}
}

// TestNewIndexPanicsOnUnknown keeps its name from the removed NewIndex
// shim, which panicked; New reports an unknown method id as an error.
func TestNewIndexPanicsOnUnknown(t *testing.T) {
	if _, err := repro.New(string(repro.MethodID("nope"))); err == nil {
		t.Fatalf("want error for unknown method")
	}
}

func TestIsSubgraph(t *testing.T) {
	g := &repro.Graph{}
	a := g.AddVertex(1)
	b := g.AddVertex(2)
	g.MustAddEdge(a, b)
	q := &repro.Graph{}
	q.AddVertex(2)
	if !repro.IsSubgraph(q, g) {
		t.Errorf("single vertex not found")
	}
	q2 := &repro.Graph{}
	q2.AddVertex(3)
	if repro.IsSubgraph(q2, g) {
		t.Errorf("absent label matched")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ds := exampleDataset()
	path := filepath.Join(t.TempDir(), "ds.gfd")
	if err := repro.SaveDataset(path, ds); err != nil {
		t.Fatal(err)
	}
	got, err := repro.LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != ds.Len() {
		t.Fatalf("round trip lost graphs: %d vs %d", got.Len(), ds.Len())
	}
	s1, s2 := ds.ComputeStats(), got.ComputeStats()
	if s1.AvgEdges != s2.AvgEdges || s1.AvgNodes != s2.AvgNodes {
		t.Fatalf("round trip changed stats")
	}
}

func TestFalsePositiveRatioFacade(t *testing.T) {
	cands := []repro.IDSet{{1, 2}, {3}}
	ans := []repro.IDSet{{1}, {3}}
	if got := repro.FalsePositiveRatio(cands, ans); got != 0.25 {
		t.Fatalf("FP = %v, want 0.25", got)
	}
}

// Example demonstrates the basic index-and-query flow; it doubles as the
// package documentation example.
func Example() {
	ds := repro.NewSyntheticDataset(repro.SynthConfig{
		NumGraphs: 20, MeanNodes: 12, MeanDensity: 0.25, NumLabels: 3, Seed: 9,
	})
	idx, err := repro.New(string(repro.GGSX))
	if err != nil {
		log.Fatal(err)
	}
	if err := idx.Build(context.Background(), ds); err != nil {
		log.Fatal(err)
	}
	queries, err := repro.GenerateQueries(ds, repro.WorkloadConfig{
		NumQueries: 1, QueryEdges: 4, Seed: 10,
	})
	if err != nil {
		log.Fatal(err)
	}
	proc := repro.NewProcessor(idx, ds)
	res, err := proc.Query(queries[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(res.Answers) > 0 && len(res.Candidates) >= len(res.Answers))
	// Output: true
}

func TestMain(m *testing.M) {
	os.Exit(m.Run())
}
