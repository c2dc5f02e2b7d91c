package engine_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/grapes"
	"repro/internal/graph"
)

// TestMutableConcurrentQueries hammers one engine with concurrent queries,
// streams, and mutations. Run under -race (CI does) this pins the
// reader/writer serialization: no data race between index maintenance and
// in-flight queries, and every query sees a consistent snapshot.
func TestMutableConcurrentQueries(t *testing.T) {
	ctx := context.Background()
	ds := tinyDataset(t)
	for _, spec := range []string{"grapes", "ctindex:fingerprintBits=512"} {
		t.Run(spec, func(t *testing.T) {
			eng, err := engine.Open(ctx, ds, engine.WithSpec(spec))
			if err != nil {
				t.Fatal(err)
			}
			hammer(t, eng, tinyQueries(t, ds))
		})
	}
}

// TestShardedMutableConcurrentQueries is the sharded, persisted analogue:
// the shard engines' locks nest under the sharded engine's, and each
// mutation's shard file is rewritten while queries run.
func TestShardedMutableConcurrentQueries(t *testing.T) {
	ctx := context.Background()
	ds := tinyDataset(t)
	for _, spec := range []string{"grapes", "ctindex:fingerprintBits=512"} {
		t.Run(spec, func(t *testing.T) {
			s, err := engine.OpenSharded(ctx, ds, 3, engine.WithSpec(spec),
				engine.WithIndexPath(filepath.Join(t.TempDir(), "idx")))
			if err != nil {
				t.Fatal(err)
			}
			hammer(t, s, tinyQueries(t, ds))
		})
	}
}

// hammer runs two query workers, two stream workers and one mutator
// (adds, every other one removed again) against eng at once.
func hammer(t *testing.T, eng engine.Querier, queries []*graph.Graph) {
	ctx := context.Background()
	pool := gen.Synthetic(gen.SynthConfig{
		NumGraphs: 8, MeanNodes: 10, MeanDensity: 0.2, NumLabels: 4, Seed: 43,
	})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				q := queries[(w+i)%len(queries)]
				if w%2 == 0 {
					if _, err := eng.Query(ctx, q); err != nil {
						t.Errorf("query: %v", err)
						return
					}
					continue
				}
				for _, err := range eng.Stream(ctx, q) {
					if err != nil {
						t.Errorf("stream: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, g := range pool.Graphs {
			id, err := eng.AddGraph(ctx, g.ShallowWithID(0))
			if err != nil {
				t.Errorf("add %d: %v", i, err)
				return
			}
			if i%2 == 0 {
				if err := eng.RemoveGraph(ctx, id); err != nil {
					t.Errorf("remove %d: %v", id, err)
					return
				}
			}
		}
	}()
	wg.Wait()
}

// TestMutableErrors pins the mutation error surface.
func TestMutableErrors(t *testing.T) {
	ctx := context.Background()
	ds := tinyDataset(t)
	eng, err := engine.Open(ctx, ds, engine.WithSpec("ggsx"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AddGraph(ctx, nil); err == nil {
		t.Error("adding nil graph must fail")
	}
	if _, err := eng.AddGraph(ctx, graph.New(0)); err == nil {
		t.Error("adding empty graph must fail")
	}
	if err := eng.RemoveGraph(ctx, 9999); !errors.Is(err, engine.ErrNoSuchGraph) {
		t.Errorf("remove of unknown id = %v, want engine.ErrNoSuchGraph", err)
	}
	if err := eng.RemoveGraph(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if err := eng.RemoveGraph(ctx, 0); !errors.Is(err, engine.ErrNoSuchGraph) {
		t.Errorf("double remove = %v, want engine.ErrNoSuchGraph", err)
	}
}

// TestShardedMutationRoutesToOwningShard: mutations land in ShardOf's
// shard, and shard-local ids stay consistent with the global mapping.
func TestShardedMutationRoutesToOwningShard(t *testing.T) {
	ctx := context.Background()
	ds := tinyDataset(t)
	s, err := engine.OpenSharded(ctx, ds, 4, engine.WithSpec("ggsx"))
	if err != nil {
		t.Fatal(err)
	}
	before := make([]int, 4)
	for i := range before {
		before[i] = s.ShardLen(i)
	}
	pool := gen.Synthetic(gen.SynthConfig{
		NumGraphs: 3, MeanNodes: 10, MeanDensity: 0.2, NumLabels: 4, Seed: 44,
	})
	for _, g := range pool.Graphs {
		id, err := s.AddGraph(ctx, g.ShallowWithID(0))
		if err != nil {
			t.Fatal(err)
		}
		owner := engine.ShardOf(id, 4)
		before[owner]++
		if got := s.ShardLen(owner); got != before[owner] {
			t.Errorf("graph %d: owning shard %d has %d graphs, want %d", id, owner, got, before[owner])
		}
	}
	// Removal of a graph keeps the slot (sub-dataset lengths unchanged)
	// but queries lose it; covered by parity tests — here just assert the
	// call succeeds and the epoch moves.
	e0 := s.Epoch()
	if err := s.RemoveGraph(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != e0+1 {
		t.Errorf("epoch %d after remove, want %d", s.Epoch(), e0+1)
	}
}

// sizeCounting is a method that counts its SizeBytes calls.
type sizeCounting struct {
	core.Method
	calls atomic.Int64
}

func (m *sizeCounting) SizeBytes() int64 {
	m.calls.Add(1)
	return m.Method.SizeBytes()
}

// TestMutationDoesNotResizeIndex: a mutation costs the mutated graph, so
// AddGraph and RemoveGraph never ask the method for its size, which a
// path index can only tell by walking every posting — flat and 4-shard.
// BuildStats reads the size when asked, so it still reports the index as
// the mutations left it.
func TestMutationDoesNotResizeIndex(t *testing.T) {
	ctx := context.Background()
	pool := gen.Synthetic(gen.SynthConfig{NumGraphs: 6, MeanNodes: 10, MeanDensity: 0.2, NumLabels: 4, Seed: 45}).Graphs
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var (
				eng     engine.Querier
				methods []*sizeCounting
			)
			wrap := func(m core.Method) core.Method {
				c := &sizeCounting{Method: m}
				methods = append(methods, c)
				return c
			}
			if shards == 0 {
				e, err := engine.Open(ctx, tinyDataset(t), engine.WithMethod(wrap(grapes.New(grapes.Options{Workers: 2}))))
				if err != nil {
					t.Fatal(err)
				}
				eng = e
			} else {
				s, err := engine.OpenSharded(ctx, tinyDataset(t), shards, engine.WithSpec("grapes:workers=2"))
				if err != nil {
					t.Fatal(err)
				}
				engine.WrapMethods(s, wrap)
				eng = s
			}
			for _, m := range methods {
				m.calls.Store(0)
			}
			for _, g := range pool {
				id, err := eng.AddGraph(ctx, g.ShallowWithID(0))
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.RemoveGraph(ctx, id-3); err != nil {
					t.Fatal(err)
				}
			}
			var calls, want int64
			for _, m := range methods {
				calls += m.calls.Load()
				want += m.Method.SizeBytes()
			}
			if calls != 0 {
				t.Fatalf("%d mutations asked the index for its size %d times", 2*len(pool), calls)
			}
			if got := eng.(interface{ BuildStats() core.BuildStats }).BuildStats().SizeBytes; got != want {
				t.Fatalf("BuildStats().SizeBytes = %d after the mutations, the index holds %d", got, want)
			}
		})
	}
}
