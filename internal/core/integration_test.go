package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/ctindex"
	"repro/internal/gcode"
	"repro/internal/gen"
	"repro/internal/ggsx"
	"repro/internal/gindex"
	"repro/internal/grapes"
	"repro/internal/graph"
	"repro/internal/testutil/plans"
	"repro/internal/treedelta"
	"repro/internal/workload"
)

// allMethods returns fresh unbuilt instances of all six methods with the
// paper's default parameters (scaled-down feature sizes where the defaults
// are impractical on micro datasets are NOT used here: defaults exercise the
// real configuration).
func allMethods() []core.Method {
	return []core.Method{
		grapes.New(grapes.Options{}),
		ggsx.New(ggsx.Options{}),
		ctindex.New(ctindex.Options{}),
		gindex.New(gindex.Options{MaxFeatureSize: 6}),
		treedelta.New(treedelta.Options{MaxFeatureSize: 6}),
		gcode.New(gcode.Options{}),
	}
}

func testDataset(t *testing.T) *graph.Dataset {
	t.Helper()
	ds := gen.Synthetic(gen.SynthConfig{
		NumGraphs:   40,
		MeanNodes:   12,
		MeanDensity: 0.2,
		NumLabels:   4,
		Seed:        1,
	})
	if err := ds.Validate(); err != nil {
		t.Fatalf("dataset invalid: %v", err)
	}
	return ds
}

// TestAllMethodsMatchBruteForce is the zero-false-negative invariant: every
// method's answer set must equal the brute-force VF2 scan, and its candidate
// set must contain the answer set.
func TestAllMethodsMatchBruteForce(t *testing.T) {
	ds := testDataset(t)
	queries := generateQueries(t, ds, 6, []int{2, 4, 8})

	ctx := context.Background()
	truth := make([]graph.IDSet, len(queries))
	for i, q := range queries {
		ans, err := core.BruteForceAnswers(ctx, ds, q)
		if err != nil {
			t.Fatalf("brute force: %v", err)
		}
		truth[i] = ans
	}

	for _, m := range allMethods() {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			if _, err := core.BuildTimed(ctx, m, ds); err != nil {
				t.Fatalf("Build: %v", err)
			}
			proc := core.NewProcessor(m, ds)
			for i, q := range queries {
				res, err := proc.Query(q)
				if err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				if !res.Answers.Equal(truth[i]) {
					t.Errorf("query %d (%d edges): answers %v, want %v (candidates %v)",
						i, q.NumEdges(), res.Answers, truth[i], res.Candidates)
				}
				for _, id := range truth[i] {
					if !res.Candidates.Contains(id) {
						t.Errorf("query %d: false negative in filtering: graph %d", i, id)
					}
				}
				if fp := res.FalsePositiveRatio(); fp < 0 || fp > 1 {
					t.Errorf("query %d: FP ratio %v out of range", i, fp)
				}
			}
		})
	}
}

func generateQueries(t *testing.T, ds *graph.Dataset, perSize int, sizes []int) []*graph.Graph {
	t.Helper()
	var out []*graph.Graph
	for _, sz := range sizes {
		qs, err := workload.Generate(ds, workload.Config{NumQueries: perSize, QueryEdges: sz, Seed: int64(100 + sz)})
		if err != nil {
			t.Fatalf("workload size %d: %v", sz, err)
		}
		out = append(out, qs...)
	}
	return out
}

// TestQueriesAreContained checks the workload invariant: every generated
// query is a subgraph of at least one dataset graph, so answers are
// non-empty.
func TestQueriesAreContained(t *testing.T) {
	ds := testDataset(t)
	queries := generateQueries(t, ds, 4, []int{4, 8})
	for i, q := range queries {
		ans, err := core.BruteForceAnswers(context.Background(), ds, q)
		if err != nil {
			t.Fatalf("brute force: %v", err)
		}
		if len(ans) == 0 {
			t.Errorf("query %d has empty answer set", i)
		}
	}
}

// TestUnbuiltIndexErrors checks that querying before Build fails cleanly.
func TestUnbuiltIndexErrors(t *testing.T) {
	q := graph.New(0)
	q.AddVertex(0)
	for _, m := range allMethods() {
		if _, err := plans.Candidates(m, nil, q); err == nil {
			t.Errorf("%s: Plan before Build should error", m.Name())
		}
	}
}

// TestBuildCancellation checks the kill-switch: Build must return promptly
// with the context error when cancelled up front.
func TestBuildCancellation(t *testing.T) {
	ds := testDataset(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range allMethods() {
		if err := m.Build(ctx, ds); err == nil {
			t.Errorf("%s: Build with cancelled context should error", m.Name())
		}
	}
}

// TestMethodSizes sanity-checks the SizeBytes ordering the paper reports for
// small datasets: the fingerprint methods (CT-Index) must be far smaller
// than the exhaustive path methods (Grapes), which store location info.
func TestMethodSizes(t *testing.T) {
	ds := testDataset(t)
	ctx := context.Background()

	gr := grapes.New(grapes.Options{})
	ct := ctindex.New(ctindex.Options{})
	if err := gr.Build(ctx, ds); err != nil {
		t.Fatalf("grapes build: %v", err)
	}
	if err := ct.Build(ctx, ds); err != nil {
		t.Fatalf("ctindex build: %v", err)
	}
	if gr.SizeBytes() <= ct.SizeBytes() {
		t.Errorf("Grapes index (%d B) should exceed CT-Index (%d B) on this dataset",
			gr.SizeBytes(), ct.SizeBytes())
	}
}

// TestQueryResultAccounting checks per-query metric bookkeeping.
func TestQueryResultAccounting(t *testing.T) {
	r := &core.QueryResult{
		Candidates: graph.IDSet{1, 2, 3, 4},
		Answers:    graph.IDSet{2, 3},
	}
	if fp := r.FalsePositiveRatio(); fp != 0.5 {
		t.Errorf("FP ratio = %v, want 0.5", fp)
	}
	empty := &core.QueryResult{}
	if fp := empty.FalsePositiveRatio(); fp != 0 {
		t.Errorf("empty candidates FP ratio = %v, want 0", fp)
	}
}
