package engine_test

import (
	"context"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
)

// contractSpecs holds, per registered method, the spec the filter contract
// test opens it with: the defaults, but capped mining budgets.
var contractSpecs = map[string]string{
	"gindex":    gindexSpec,
	"treedelta": treedeltaSpec,
}

// TestFilterContractEveryMethod is the one filter contract, checked on
// every registered method: on the heap and, where the method has a storage
// parameter, restored under storage=mmap; before and after a round of adds
// and removes. Every plan's Chunks is strictly ascending across chunks
// (so chunks are sorted and disjoint), yields the same ids when iterated
// again, survives an iteration broken off after its first chunk, and
// holds every brute-force answer. And an analysis travels: probing the
// index with the analysis another instance of the spec made, built over
// another dataset, yields exactly the chunks and verdicts of the index's
// own plan — what a sharded query relies on when its legs probe one
// analysis.
func TestFilterContractEveryMethod(t *testing.T) {
	ctx := context.Background()
	for _, d := range engine.Descriptors() {
		if d.OpenQuerier != nil {
			continue // a composite engine, not a method
		}
		spec := d.Name
		if s, ok := contractSpecs[d.Name]; ok {
			spec = s
		}
		sep := ":"
		if strings.Contains(spec, ":") {
			sep = ","
		}
		storages := []string{core.StorageHeap}
		if slices.ContainsFunc(d.Fields, func(f engine.Field) bool { return f.Name == "storage" }) {
			storages = append(storages, core.StorageMmap)
		}
		for _, storage := range storages {
			t.Run(d.Name+"/"+storage, func(t *testing.T) {
				ds := tinyDataset(t)
				queries := tinyQueries(t, ds)
				opts := []engine.Option{engine.WithSpec(spec)}
				if storage == core.StorageMmap {
					path := filepath.Join(t.TempDir(), "idx")
					if _, err := engine.Open(ctx, ds, engine.WithSpec(spec), engine.WithIndexPath(path)); err != nil {
						t.Fatal(err)
					}
					opts = []engine.Option{engine.WithSpec(spec + sep + "storage=mmap"), engine.WithIndexPath(path)}
				}
				eng, err := engine.Open(ctx, ds, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if storage == core.StorageMmap && !eng.Restored() {
					t.Fatal("the mmap open rebuilt instead of restoring")
				}
				other, err := engine.Open(ctx, gen.Synthetic(gen.SynthConfig{NumGraphs: 12, MeanNodes: 10, MeanDensity: 0.25, NumLabels: 4, Seed: 44}),
					engine.WithSpec(spec))
				if err != nil {
					t.Fatal(err)
				}
				checkPlans(t, "opened", eng, other.Method(), queries)
				pool := gen.Synthetic(gen.SynthConfig{NumGraphs: 4, MeanNodes: 14, MeanDensity: 0.2, NumLabels: 4, Seed: 43}).Graphs
				for i, g := range pool {
					if _, err := eng.AddGraph(ctx, g.ShallowWithID(0)); err != nil {
						t.Fatal(err)
					}
					if err := eng.RemoveGraph(ctx, graph.ID(3*i)); err != nil {
						t.Fatal(err)
					}
				}
				checkPlans(t, "mutated", eng, other.Method(), queries)
			})
		}
	}
}

// checkPlans checks the filter contract of eng's method on every query,
// and that its index probes the analysis other made as its own.
func checkPlans(t *testing.T, stage string, eng *engine.Engine, other core.Method, queries []*graph.Graph) {
	t.Helper()
	ctx := context.Background()
	ds := eng.Dataset()
	for i, q := range queries {
		plan, err := core.Plan(ctx, eng.Method(), ds, q)
		if err != nil {
			t.Fatalf("%s: query %d: %v", stage, i, err)
		}
		var ids graph.IDSet
		for chunk := range plan.Chunks() {
			for _, id := range chunk {
				if n := len(ids); n > 0 && id <= ids[n-1] {
					t.Fatalf("%s: query %d: id %d after %d", stage, i, id, ids[n-1])
				}
				ids = append(ids, id)
			}
		}
		drain := func() graph.IDSet {
			var out graph.IDSet
			for chunk := range plan.Chunks() {
				out = append(out, chunk...)
			}
			return out
		}
		if again := drain(); !again.Equal(ids) {
			t.Fatalf("%s: query %d: the second pass yielded %v, the first %v", stage, i, again, ids)
		}
		for range plan.Chunks() {
			break
		}
		if again := drain(); !again.Equal(ids) {
			t.Fatalf("%s: query %d: the pass after a broken one yielded %v, the first %v", stage, i, again, ids)
		}
		want, err := core.BruteForceAnswers(ctx, ds, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range want {
			if !ids.Contains(id) {
				t.Errorf("%s: query %d: answer %d is no candidate", stage, i, id)
			}
		}
		shared, err := eng.Method().Probe(ctx, ds, other.Analyze(q))
		if err != nil {
			t.Fatalf("%s: query %d: probing another instance's analysis: %v", stage, i, err)
		}
		if got, want := slices.Collect(shared.Chunks()), slices.Collect(plan.Chunks()); !slices.EqualFunc(got, want, graph.IDSet.Equal) {
			t.Errorf("%s: query %d: the shared analysis yields chunks %v, the own plan %v", stage, i, got, want)
		}
		for _, id := range ids {
			if shared.Verify(id) != plan.Verify(id) {
				t.Errorf("%s: query %d: the shared analysis verifies candidate %d otherwise", stage, i, id)
			}
		}
	}
}
