package engine_test

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
)

// countingMethod is a method that counts its analyses and probes.
type countingMethod struct {
	core.Method
	analyses, probes *atomic.Int64
}

func (m countingMethod) Analyze(q *graph.Graph) core.Analysis {
	m.analyses.Add(1)
	return m.Method.Analyze(q)
}

func (m countingMethod) Probe(ctx context.Context, ds *graph.Dataset, a core.Analysis) (core.QueryPlan, error) {
	m.probes.Add(1)
	return m.Method.Probe(ctx, ds, a)
}

// methodSpecs returns, per test method, the spec the shard tests open it
// with.
func methodSpecs() []string {
	var specs []string
	for _, tc := range allSpecs {
		spec := tc.override
		if spec == "" {
			spec = tc.def
		}
		if o, ok := shardParityOverrides[spec]; ok {
			spec = o
		}
		specs = append(specs, spec)
	}
	return specs
}

// TestSharedAnalysis: a query is analysed once, whatever the shard count.
// For every method, over four legs probed two at a time (so under the race
// detector the legs read one analysis concurrently), Analyze runs once per
// sharded one-shot and once per stream, and a stream's re-plan after a
// write probes the legs again without analysing anew. Answers still match
// the flat engine's.
func TestSharedAnalysis(t *testing.T) {
	const shards, fanout = 4, 2
	ctx := context.Background()
	ds := tinyDataset(t)
	queries := tinyQueries(t, ds)
	for _, spec := range methodSpecs() {
		t.Run(strings.SplitN(spec, ":", 2)[0], func(t *testing.T) {
			flat, err := engine.Open(ctx, ds, engine.WithSpec(spec))
			if err != nil {
				t.Fatal(err)
			}
			var analyses, probes atomic.Int64
			legs := make([]*engine.Shard, shards)
			for i := range legs {
				sub, global := engine.PartitionShard(ds, shards, i)
				m, err := engine.New(spec)
				if err != nil {
					t.Fatal(err)
				}
				e, err := engine.Open(ctx, sub, engine.WithMethod(countingMethod{m, &analyses, &probes}))
				if err != nil {
					t.Fatal(err)
				}
				legs[i] = engine.NewLeg(e, global)
			}
			open := func() ([]*engine.Shard, error) { return legs, nil }
			var mu sync.RWMutex
			for i, q := range queries {
				want, err := flat.Query(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				analyses.Store(0)
				mu.RLock()
				got, err := engine.Drain(ctx, legs, q, fanout, fanout, "counted")
				mu.RUnlock()
				if err != nil {
					t.Fatal(err)
				}
				if n := analyses.Load(); n != 1 {
					t.Errorf("query %d: a %d-shard one-shot analysed the query %d times", i, shards, n)
				}
				if !got.Answers.Equal(want.Answers) {
					t.Errorf("query %d: one-shot answers %v, flat %v", i, got.Answers, want.Answers)
				}
				analyses.Store(0)
				var streamed graph.IDSet
				for id, err := range engine.MergeStream(ctx, &mu, nil, q, -1, fanout, fanout, open) {
					if err != nil {
						t.Fatal(err)
					}
					streamed = append(streamed, id)
				}
				if n := analyses.Load(); n != 1 {
					t.Errorf("query %d: a %d-shard stream analysed the query %d times", i, shards, n)
				}
				if !streamed.Equal(want.Answers) {
					t.Errorf("query %d: streamed %v, flat %v", i, streamed, want.Answers)
				}
			}

			// A write lands on every leg after the stream's first answer (the
			// first round verifies one candidate, so legs have cursor left):
			// the stream re-plans, and re-probing is all it does.
			q, first := replanQuery(t, flat, queries)
			analyses.Store(0)
			probes.Store(0)
			wrote := false
			for id, err := range engine.MergeStream(ctx, &mu, nil, q, -1, fanout, fanout, open) {
				if err != nil {
					t.Fatal(err)
				}
				if wrote || id != first {
					continue
				}
				wrote = true
				mu.Lock()
				for _, sh := range legs {
					var last graph.ID = -1
					for gid := range sh.Graphs() {
						last = gid
					}
					if last > first {
						if err := sh.Remove(ctx, last); err != nil {
							t.Fatal(err)
						}
					}
				}
				mu.Unlock()
			}
			if !wrote {
				t.Fatal("the stream never yielded its first answer")
			}
			if n := analyses.Load(); n != 1 {
				t.Errorf("a stream re-planned after a write analysed the query %d times, want once", n)
			}
			if n := probes.Load(); n <= shards {
				t.Errorf("the legs were probed %d times: the write did not re-plan the stream", n)
			}
		})
	}
}

// replanQuery returns a query with at least two answers on eng, and its
// first answer.
func replanQuery(t *testing.T, eng *engine.Engine, queries []*graph.Graph) (*graph.Graph, graph.ID) {
	t.Helper()
	for _, q := range queries {
		res, err := eng.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Answers) >= 2 {
			return q, res.Answers[0]
		}
	}
	t.Fatal("no query has two answers")
	return nil, 0
}

// TestDrainMatchesMergeStream: for every method, over a sharded engine
// with tombstones, the one-shot Drain (legs drained by push) and
// MergeStream drained to its end (legs pulled) agree on everything a
// one-shot reports: candidates, answers, and the produced and verified
// counts.
func TestDrainMatchesMergeStream(t *testing.T) {
	ctx := context.Background()
	for _, spec := range methodSpecs() {
		t.Run(strings.SplitN(spec, ":", 2)[0], func(t *testing.T) {
			ds := tinyDataset(t)
			queries := tinyQueries(t, ds)
			s, err := engine.OpenSharded(ctx, ds, 3, engine.WithSpec(spec))
			if err != nil {
				t.Fatal(err)
			}
			for id := graph.ID(1); int(id) < ds.Len(); id += 4 {
				if err := s.RemoveGraph(ctx, id); err != nil {
					t.Fatal(err)
				}
			}
			for i, q := range queries {
				res, err := s.Query(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				var cands, answers graph.IDSet
				stats := &core.PipelineStats{Candidates: &cands}
				for id, err := range s.StreamStats(ctx, q, stats) {
					if err != nil {
						t.Fatal(err)
					}
					answers = append(answers, id)
				}
				if !cands.Equal(res.Candidates) || !answers.Equal(res.Answers) {
					t.Errorf("query %d: stream candidates %v answers %v, one-shot %v and %v", i, cands, answers, res.Candidates, res.Answers)
				}
				if p, v := int(stats.Produced.Load()), int(stats.Verified.Load()); p != res.Produced || v != res.Verified {
					t.Errorf("query %d: stream produced %d verified %d, one-shot %d and %d", i, p, v, res.Produced, res.Verified)
				}
			}
		})
	}
}
