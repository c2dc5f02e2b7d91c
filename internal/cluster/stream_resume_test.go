package cluster_test

import (
	"context"
	"iter"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/router"
	"repro/internal/subiso"
	"repro/internal/testutil/promise"
	"repro/internal/workload"
)

// lifespan is one graph's life on the writer's logical clock: its add
// began and ended at addBegin and addEnd (0 for the initial graphs), its
// removal at rmBegin and rmEnd (math.MaxInt when never removed).
type lifespan struct {
	g                                *graph.Graph
	addBegin, addEnd, rmBegin, rmEnd int
}

// history is a concurrent writer's mutations on a logical clock that
// streams read too, so a stream's window [open, end] can be compared with
// every graph's life.
type history struct {
	mu    sync.Mutex
	clock int
	life  map[graph.ID]*lifespan
}

func newHistory(ds *graph.Dataset) *history {
	h := &history{life: make(map[graph.ID]*lifespan, ds.Len())}
	for i, g := range ds.Graphs {
		h.life[graph.ID(i)] = &lifespan{g: g, rmBegin: math.MaxInt, rmEnd: math.MaxInt}
	}
	return h
}

func (h *history) tick() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.clock++
	return h.clock
}

// bounds returns q's answers live for the whole window [open, end] and
// those live at some moment of it.
func (h *history) bounds(q *graph.Graph, open, end int) (always, ever graph.IDSet) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for id := range graph.ID(len(h.life)) {
		l := h.life[id]
		if l == nil || !subiso.Exists(q, l.g) {
			continue
		}
		if l.addEnd < open && l.rmBegin > end {
			always = append(always, id)
		}
		if l.addBegin < end && l.rmEnd > open {
			ever = append(ever, id)
		}
	}
	return always, ever
}

// writes is one shape's mutation surface: add returns the new graph's id.
type writes struct {
	add    func(g *graph.Graph) (graph.ID, error)
	remove func(id graph.ID) error
}

// write alternates adds (copies of dataset graphs) and removes of random
// live graphs until stop closes, recording each on h and signalling
// progress after each.
func (h *history) write(t *testing.T, w writes, pool []*graph.Graph, stop <-chan struct{}, progress chan<- struct{}) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		if i%2 == 0 {
			g := pool[rng.Intn(len(pool))].ShallowWithID(0)
			begin := h.tick()
			id, err := w.add(g)
			if err != nil {
				t.Errorf("add: %v", err)
				return
			}
			end := h.tick()
			h.mu.Lock()
			h.life[id] = &lifespan{g: g, addBegin: begin, addEnd: end, rmBegin: math.MaxInt, rmEnd: math.MaxInt}
			h.mu.Unlock()
		} else {
			h.mu.Lock()
			var live []graph.ID
			for id, l := range h.life {
				if l.rmBegin == math.MaxInt {
					live = append(live, id)
				}
			}
			id := live[rng.Intn(len(live))]
			h.clock++
			h.life[id].rmBegin = h.clock
			h.mu.Unlock()
			if err := w.remove(id); err != nil {
				t.Errorf("remove %d: %v", id, err)
				return
			}
			end := h.tick()
			h.mu.Lock()
			h.life[id].rmEnd = end
			h.mu.Unlock()
		}
		select {
		case progress <- struct{}{}:
		default:
		}
	}
}

// TestStreamsSurviveWrites is the stream promise as a property: flat,
// 4-shard, router (flat subs over its shared dataset) and node streams run
// while a writer adds and removes graphs, at least one mutation landing
// every eighth answer, and each stream's answers S satisfy A_always ⊆ S ⊆ A_ever — brute-force answers over the
// graphs live for the stream's whole life, and over those live at any
// moment of it — with no stream ending in an error.
func TestStreamsSurviveWrites(t *testing.T) {
	ctx := context.Background()
	const shardCount = 4
	allShards := []int{0, 1, 2, 3}
	shapes := []struct {
		name string
		open func(t *testing.T, ds *graph.Dataset, spec string) (func(q *graph.Graph) iter.Seq2[graph.ID, error], writes)
	}{
		{"flat", func(t *testing.T, ds *graph.Dataset, spec string) (func(*graph.Graph) iter.Seq2[graph.ID, error], writes) {
			eng, err := engine.Open(ctx, ds, engine.WithSpec(spec))
			if err != nil {
				t.Fatal(err)
			}
			return func(q *graph.Graph) iter.Seq2[graph.ID, error] { return eng.Stream(ctx, q) },
				writes{func(g *graph.Graph) (graph.ID, error) { return eng.AddGraph(ctx, g) },
					func(id graph.ID) error { return eng.RemoveGraph(ctx, id) }}
		}},
		{"sharded", func(t *testing.T, ds *graph.Dataset, spec string) (func(*graph.Graph) iter.Seq2[graph.ID, error], writes) {
			s, err := engine.OpenSharded(ctx, ds, shardCount, engine.WithSpec(spec))
			if err != nil {
				t.Fatal(err)
			}
			return func(q *graph.Graph) iter.Seq2[graph.ID, error] { return s.Stream(ctx, q) },
				writes{func(g *graph.Graph) (graph.ID, error) { return s.AddGraph(ctx, g) },
					func(id graph.ID) error { return s.RemoveGraph(ctx, id) }}
		}},
		{"router", func(t *testing.T, ds *graph.Dataset, spec string) (func(*graph.Graph) iter.Seq2[graph.ID, error], writes) {
			// Flat subs share the router's dataset, so a write moves it
			// before each sub folds the graph into its own index.
			other := "noindex"
			if spec == other {
				other = "ggsx"
			}
			var subs []router.Sub
			for _, sp := range []string{spec, other} {
				eng, err := engine.Open(ctx, ds, engine.WithSpec(sp))
				if err != nil {
					t.Fatal(err)
				}
				subs = append(subs, router.Sub{Name: engine.MethodName(eng), Engine: eng})
			}
			m, err := router.New(ds, subs, router.Options{Policy: router.PolicyLearned, Epsilon: 1, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			return func(q *graph.Graph) iter.Seq2[graph.ID, error] { return m.Stream(ctx, q) },
				writes{func(g *graph.Graph) (graph.ID, error) { return m.AddGraph(ctx, g) },
					func(id graph.ID) error { return m.RemoveGraph(ctx, id) }}
		}},
		{"node", func(t *testing.T, ds *graph.Dataset, spec string) (func(*graph.Graph) iter.Seq2[graph.ID, error], writes) {
			n, err := cluster.NewNode(ctx, ds, cluster.NodeConfig{Name: "n", Spec: spec, ShardCount: shardCount, Shards: allShards})
			if err != nil {
				t.Fatal(err)
			}
			// The coordinator's part: fresh ids and cluster epochs.
			next, epoch := graph.ID(ds.Len()), uint64(0)
			return func(q *graph.Graph) iter.Seq2[graph.ID, error] {
					return n.StreamStats(ctx, allShards, nil, q, -1, nil)
				},
				writes{func(g *graph.Graph) (graph.ID, error) {
					id := next
					next++
					epoch++
					_, err := n.Add(ctx, id, epoch, g)
					return id, err
				}, func(id graph.ID) error {
					epoch++
					_, err := n.Remove(ctx, id, epoch)
					return err
				}}
		}},
	}
	for _, spec := range []string{"noindex", "ggsx", "grapes:maxPathLen=3"} {
		for _, shape := range shapes {
			t.Run(shape.name+"/"+spec, func(t *testing.T) {
				// Past GGSX's and Grapes' 256-id candidate chunks, so a
				// stream left on its old plan would read postings a write
				// spliced under it.
				ds := gen.Synthetic(gen.SynthConfig{NumGraphs: 700, MeanNodes: 14, MeanDensity: 0.2, NumLabels: 4, Seed: 41})
				var qs []*graph.Graph
				for _, edges := range []int{1, 2} {
					gen, err := workload.Generate(ds, workload.Config{NumQueries: 2, QueryEdges: edges, Seed: int64(50 + edges)})
					if err != nil {
						t.Fatalf("workload: %v", err)
					}
					qs = append(qs, gen...)
				}
				stream, w := shape.open(t, ds, spec)
				h := newHistory(ds)
				stop, progress, written := make(chan struct{}), make(chan struct{}, 1), make(chan struct{})
				go func() {
					defer close(written)
					h.write(t, w, ds.Graphs, stop, progress)
				}()
				stopWriter := sync.OnceFunc(func() { close(stop); <-written })
				defer stopWriter()
				type run struct {
					q         *graph.Graph
					open, end int
					got       graph.IDSet
				}
				var runs []run
				for _, q := range qs {
					r := run{q: q, open: h.tick()}
					for id, err := range stream(q) {
						if err != nil {
							t.Fatalf("stream under writes: %v", err)
						}
						r.got = append(r.got, id)
						// Let a mutation land every few answers, so most
						// rounds re-plan.
						if len(r.got)%8 != 1 {
							continue
						}
						select {
						case <-progress:
						case <-written:
						}
					}
					r.end = h.tick()
					runs = append(runs, r)
				}
				stopWriter()
				for _, r := range runs {
					always, ever := h.bounds(r.q, r.open, r.end)
					promise.Check(t, r.got, always, ever)
				}
			})
		}
	}
}
