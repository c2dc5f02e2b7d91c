package engine_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/workload"
)

// TestVerifyAllocsPerCandidate is the tier-1 guard of the verifier's
// allocation contract: the query is compiled once per plan and each
// verification borrows a pooled scratch, so what Engine.Query allocates
// beyond the filter stage is a small constant per query (the result, its
// candidate and answer sets, the compiled query), not a multiple of the
// candidate count. The matcher this replaced allocated seven objects per
// candidate.
func TestVerifyAllocsPerCandidate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ctx := context.Background()
	ds := gen.Synthetic(gen.SynthConfig{NumGraphs: 300, MeanNodes: 40, MeanDensity: 0.06, NumLabels: 3, Seed: 11})
	queries, err := workload.Generate(ds, workload.Config{NumQueries: 8, QueryEdges: 4, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.Open(ctx, ds, engine.WithSpec("ggsx"), engine.WithVerifyWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	var q *graph.Graph
	cands := 0
	for _, cand := range queries {
		r, err := eng.Query(ctx, cand)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Candidates) > cands {
			q, cands = cand, len(r.Candidates)
		}
	}
	if cands < 200 {
		t.Fatalf("largest candidate set is %d, the test needs at least 200", cands)
	}
	m := eng.Method()
	filter := testing.AllocsPerRun(20, func() {
		plan, err := core.NewPlan(ctx, m, ds, q)
		if err != nil {
			t.Fatal(err)
		}
		for range core.PlanChunks(plan) {
		}
	})
	whole := testing.AllocsPerRun(20, func() {
		if _, err := eng.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d candidates: %.0f allocations per query, %.0f of them in the filter", cands, whole, filter)
	if beyond := whole - filter; beyond > 16 {
		t.Errorf("Engine.Query allocates %.0f objects beyond the filter stage for %d candidates, want a constant <= 16", beyond, cands)
	}
}
