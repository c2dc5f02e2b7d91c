package router_test

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/router"
)

// TestAddRollbackEveryShape is the Store's rollback rule on every shape
// that serves a dataset: flat, 3-shard, routed over flat subs and routed
// over 3-shard subs. The journal append of the maintainer that applies the
// add last fails (a directory blocks it), so every maintainer before it
// already took the graph. The add must then fail with no live graph added,
// and every sub-index must answer exactly: a sharded sub that already
// re-homed the graph must not answer with it. Once the append is
// unblocked, an add succeeds, and a reopen over the mutated dataset still
// answers exactly.
func TestAddRollbackEveryShape(t *testing.T) {
	const shards = 3
	names := []string{"grapes", "ggsx"}
	specs := []string{"grapes:maxPathLen=3", "ggsx:maxPathLen=3"}
	for _, row := range []struct {
		name   string
		shards int // per engine; 1 = flat
		routed bool
	}{
		{"flat", 1, false},
		{"sharded", shards, false},
		{"routed-flat", 1, true},
		{"routed-sharded", shards, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			ctx := context.Background()
			ds := tinyDataset(t)
			dir := t.TempDir()
			n := 1
			if row.routed {
				n = len(names)
			}
			// open opens the row's engines over ds, persisted under dir, and
			// the shape that writes through them all.
			open := func() (engine.Querier, []engine.Querier) {
				subs := make([]engine.Querier, n)
				routed := make([]router.Sub, n)
				for i := range subs {
					opts := []engine.Option{engine.WithSpec(specs[i]), engine.WithIndexPath(filepath.Join(dir, names[i]))}
					var err error
					if row.shards > 1 {
						subs[i], err = engine.OpenSharded(ctx, ds, row.shards, opts...)
					} else {
						subs[i], err = engine.Open(ctx, ds, opts...)
					}
					if err != nil {
						t.Fatal(err)
					}
					routed[i] = router.Sub{Name: names[i], Engine: subs[i]}
				}
				if !row.routed {
					return subs[0], subs
				}
				m, err := router.New(ds, routed, router.Options{Policy: router.PolicyStatic})
				if err != nil {
					t.Fatal(err)
				}
				return m, subs
			}
			target, subs := open()
			added := ds.Graphs[3]
			// The added graph is a query of its own: it answers it once live.
			queries := append(mixedQueries(t, ds), added.ShallowWithID(0))
			check := func(stage string) {
				t.Helper()
				for i, q := range queries {
					want, err := core.BruteForceAnswers(ctx, ds, q)
					if err != nil {
						t.Fatal(err)
					}
					for _, e := range append([]engine.Querier{target}, subs...) {
						got, err := e.Query(ctx, q)
						if err != nil {
							t.Fatal(err)
						}
						if !got.Answers.Equal(want) {
							t.Errorf("%s: %T query %d answers %v, want %v", stage, e, i, got.Answers, want)
						}
						var streamed graph.IDSet
						for id, err := range e.Stream(ctx, q) {
							if err != nil {
								t.Fatal(err)
							}
							streamed = append(streamed, id)
						}
						if !streamed.Equal(want) {
							t.Errorf("%s: %T query %d streamed %v, want %v", stage, e, i, streamed, want)
						}
					}
				}
			}

			// The last sub applies last, and of a sharded sub only the shard
			// ShardOf places the graph in applies it.
			path := filepath.Join(dir, names[n-1])
			if row.shards > 1 {
				path = engine.ShardIndexPath(path, engine.ShardOf(graph.ID(ds.Len()), row.shards))
			}
			path = engine.JournalPath(path)
			if err := os.MkdirAll(filepath.Join(path, "blocker"), 0o755); err != nil {
				t.Fatal(err)
			}
			live, _ := target.Counts()
			if _, err := target.AddGraph(ctx, added.ShallowWithID(0)); err == nil {
				t.Fatal("AddGraph succeeded although its journal could not be written")
			}
			if now, _ := target.Counts(); now != live {
				t.Fatalf("failed add left %d live graphs, want %d", now, live)
			}
			check("rolled back")

			if err := os.RemoveAll(path); err != nil {
				t.Fatal(err)
			}
			if _, err := target.AddGraph(ctx, added.ShallowWithID(0)); err != nil {
				t.Fatalf("AddGraph once the journal is writable: %v", err)
			}
			if now, _ := target.Counts(); now != live+1 {
				t.Fatalf("add left %d live graphs, want %d", now, live+1)
			}
			check("added")
			target, subs = open()
			check("reopened")
		})
	}
}

// TestRouterJoinedWrites: a router's sub-engines share one Store, so a
// write through any of them — or through the router — reaches every
// sub-index under one lock. Writers on the router and on each sub race
// readers on all of them; afterwards every one answers exactly.
func TestRouterJoinedWrites(t *testing.T) {
	ctx := context.Background()
	ds := tinyDataset(t)
	queries := mixedQueries(t, ds)
	flat, err := engine.Open(ctx, ds, engine.WithSpec("ggsx:maxPathLen=3"))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := engine.OpenSharded(ctx, ds, 3, engine.WithSpec("grapes:maxPathLen=3"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := router.New(ds, []router.Sub{{Name: "ggsx", Engine: flat}, {Name: "grapes", Engine: sharded}}, router.Options{})
	if err != nil {
		t.Fatal(err)
	}
	members := []engine.Querier{m, flat, sharded}
	pool := ds.Graphs[:6]
	live, _ := m.Counts()
	var wg sync.WaitGroup
	for w, e := range members {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := w; i < len(pool); i += len(members) {
				id, err := e.AddGraph(ctx, pool[i].ShallowWithID(0))
				if err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					if err := e.RemoveGraph(ctx, id); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
		go func() {
			defer wg.Done()
			for _, q := range queries {
				if _, err := e.Query(ctx, q); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, q := range queries {
		want, err := core.BruteForceAnswers(ctx, ds, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range members {
			got, err := e.Query(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Answers.Equal(want) {
				t.Errorf("%T query %d answers %v, want %v", e, i, got.Answers, want)
			}
		}
	}
	if now, _ := m.Counts(); now != live+len(pool)/2 {
		t.Errorf("router counts %d live graphs, want %d", now, live+len(pool)/2)
	}
}
