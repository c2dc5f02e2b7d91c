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
// holds every brute-force answer.
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
				checkPlans(t, "opened", eng, queries)
				pool := gen.Synthetic(gen.SynthConfig{NumGraphs: 4, MeanNodes: 14, MeanDensity: 0.2, NumLabels: 4, Seed: 43}).Graphs
				for i, g := range pool {
					if _, err := eng.AddGraph(ctx, g.ShallowWithID(0)); err != nil {
						t.Fatal(err)
					}
					if err := eng.RemoveGraph(ctx, graph.ID(3*i)); err != nil {
						t.Fatal(err)
					}
				}
				checkPlans(t, "mutated", eng, queries)
			})
		}
	}
}

// checkPlans checks the filter contract of eng's method on every query.
func checkPlans(t *testing.T, stage string, eng *engine.Engine, queries []*graph.Graph) {
	t.Helper()
	ctx := context.Background()
	ds := eng.Dataset()
	for i, q := range queries {
		plan, err := eng.Method().Plan(ctx, ds, q)
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
	}
}
