package engine_test

import (
	"context"
	"path/filepath"
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
		for range plan.Chunks() {
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

// TestGrapesFilterAllocs is the tier-1 guard of the Grapes filter's
// allocation contract under storage=mmap: a plan resolves each distinct
// query path once, reads the mapped directory without a lock, and
// intersects without a per-candidate allocation, so planning a 16-edge
// query and draining its candidates costs a small constant of objects once
// the postings it touches are decoded. The filter this replaced allocated
// about 480: a key string per path visit, a map, and a mask per feature
// per id of the rarest posting.
func TestGrapesFilterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ctx := context.Background()
	cfg := gen.SynthConfig{NumGraphs: 120, MeanNodes: 40, MeanDensity: 0.06, NumLabels: 10, Seed: 13}
	ds := gen.Synthetic(cfg)
	queries, err := workload.Generate(ds, workload.Config{NumQueries: 4, QueryEdges: 16, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "grapes.idx")
	opts := []engine.Option{engine.WithSpec("grapes:storage=mmap"), engine.WithIndexPath(path), engine.WithVerifyWorkers(1)}
	if _, err := engine.Open(ctx, ds, opts...); err != nil {
		t.Fatal(err)
	}
	eng, err := engine.Open(ctx, ds, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Restored() {
		t.Fatalf("the second open rebuilt instead of mapping the saved index")
	}
	m := eng.Method()
	for i, q := range queries {
		cands := 0
		allocs := testing.AllocsPerRun(20, func() {
			plan, err := core.NewPlan(ctx, m, ds, q)
			if err != nil {
				t.Fatal(err)
			}
			cands = 0
			for chunk := range plan.Chunks() {
				cands += len(chunk)
			}
		})
		t.Logf("query %d: %d candidates, %.0f allocations to plan and drain", i, cands, allocs)
		if cands == 0 {
			t.Fatalf("query %d has no candidate; it was extracted from the dataset", i)
		}
		if allocs > 40 {
			t.Errorf("query %d: the Grapes filter allocates %.0f objects, want <= 40", i, allocs)
		}
	}
}

// TestGGSXFilterAllocs is the tier-1 guard of the GGSX filter's allocation
// contract on the heap: the query trie is one arena, the index trie holds
// label-sorted child slices, and the constraints live in one buffer, so
// planning an 8-edge query and draining its candidates costs about 20
// objects. The filter this replaced allocated 144-172 here, most of them a
// map per query trie node.
func TestGGSXFilterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ctx := context.Background()
	ds := gen.Synthetic(gen.SynthConfig{NumGraphs: 300, MeanNodes: 40, MeanDensity: 0.06, NumLabels: 4, Seed: 15})
	queries, err := workload.Generate(ds, workload.Config{NumQueries: 4, QueryEdges: 8, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.Open(ctx, ds, engine.WithSpec("ggsx"), engine.WithVerifyWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	m := eng.Method()
	for i, q := range queries {
		cands := 0
		allocs := testing.AllocsPerRun(20, func() {
			plan, err := core.NewPlan(ctx, m, ds, q)
			if err != nil {
				t.Fatal(err)
			}
			cands = 0
			for chunk := range plan.Chunks() {
				cands += len(chunk)
			}
		})
		t.Logf("query %d: %d candidates, %.0f allocations to plan and drain", i, cands, allocs)
		if cands == 0 {
			t.Fatalf("query %d has no candidate; it was extracted from the dataset", i)
		}
		if allocs > 28 {
			t.Errorf("query %d: the GGSX filter allocates %.0f objects, want <= 28", i, allocs)
		}
	}
}

// shardedLegAllocs is what a sharded one-shot query may allocate per leg
// beyond the flat query over the same graphs: the leg's probe (its
// constraints, producer and plan), its drain cursor, and the merge's
// per-leg share. The query's analysis is made once, whatever the shard
// count, and no leg starts a coroutine.
const shardedLegAllocs = 8

// TestShardedQueryAllocs is the tier-1 guard of plan-once sharding, on the
// mutate_mix shape (GGSX, 40-vertex graphs, 4 labels, 8-edge queries, 4
// shards): a sharded one-shot allocates at most the flat query's count
// plus shardedLegAllocs per shard. Planning every leg from scratch and
// pulling each through a coroutine cost about 14 per leg more.
func TestShardedQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const shards = 4
	ctx := context.Background()
	ds := gen.Synthetic(gen.SynthConfig{NumGraphs: 400, MeanNodes: 40, MeanDensity: 0.06, NumLabels: 4, Seed: 17})
	queries, err := workload.Generate(ds, workload.Config{NumQueries: 8, QueryEdges: 8, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	opts := []engine.Option{engine.WithSpec("ggsx"), engine.WithVerifyWorkers(1)}
	flat, err := engine.Open(ctx, ds, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := engine.OpenSharded(ctx, ds, shards, opts...)
	if err != nil {
		t.Fatal(err)
	}
	perQuery := func(e engine.Querier) float64 {
		return testing.AllocsPerRun(10, func() {
			for _, q := range queries {
				if _, err := e.Query(ctx, q); err != nil {
					t.Fatal(err)
				}
			}
		}) / float64(len(queries))
	}
	f, s := perQuery(flat), perQuery(sharded)
	t.Logf("allocations per query: flat %.1f, %d shards %.1f", f, shards, s)
	if limit := f + shards*shardedLegAllocs; s > limit {
		t.Errorf("a %d-shard query allocates %.1f objects, want <= %.1f (flat %.1f + %d per shard)", shards, s, limit, f, shardedLegAllocs)
	}
}
