package cluster_test

import (
	"context"
	"errors"
	"iter"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/testutil/leak"
	"repro/internal/workload"
)

// TestNodeMutationCompletesWhileStreamStalled is the node analogue of the
// engine's stalled-stream tests: a node stream parked between chunks holds
// no lock, so a routed add into a streamed shard and a reinstall of one both
// complete promptly, and the resumed stream — whose plans are a generation
// behind — ends in an engine.ErrStreamStale-wrapped error.
func TestNodeMutationCompletesWhileStreamStalled(t *testing.T) {
	ctx := context.Background()
	ds := testDataset(t)
	// A one-edge query matches most graphs: the first answer comes early,
	// with stream left after it that must hit the stale check.
	qs, err := workload.Generate(ds, workload.Config{NumQueries: 1, QueryEdges: 1, Seed: 43})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	q := qs[0]
	if truth, err := core.BruteForceAnswers(ctx, ds, q); err != nil || len(truth) < 2 {
		t.Fatalf("fixture query has %d answers (err %v), want >= 2", len(truth), err)
	}
	const shardCount = 2
	shards := []int{0, 1}
	for _, tc := range []struct {
		name   string
		mutate func(*cluster.Node) error
	}{
		{"routed add", func(n *cluster.Node) error {
			_, err := n.Add(ctx, graph.ID(ds.Len()), 1, ds.Graphs[0].ShallowWithID(0))
			return err
		}},
		{"reinstall", func(n *cluster.Node) error { return n.LoadLocal(ctx, shards[0]) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer leak.Check(t)()
			node, err := cluster.NewNode(ctx, testDataset(t), cluster.NodeConfig{
				Name: "n", Spec: "noindex", ShardCount: shardCount, Shards: shards,
			})
			if err != nil {
				t.Fatal(err)
			}
			next, stop := iter.Pull2(node.StreamStats(ctx, shards, nil, q, -1, nil))
			defer stop()
			if _, err, ok := next(); !ok || err != nil {
				t.Fatalf("first answer: ok=%v err=%v", ok, err)
			}

			done := make(chan error, 1)
			go func() { done <- tc.mutate(node) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s blocked behind a stalled node stream", tc.name)
			}

			for {
				_, err, ok := next()
				if !ok {
					t.Fatal("stale node stream ended without an error")
				}
				if err != nil {
					if !errors.Is(err, engine.ErrStreamStale) {
						t.Fatalf("stream err = %v, want ErrStreamStale", err)
					}
					break
				}
			}
		})
	}
}
