package cluster_test

import (
	"context"
	"iter"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/testutil/leak"
	"repro/internal/testutil/promise"
	"repro/internal/workload"
)

// TestNodeMutationCompletesWhileStreamStalled is the node analogue of the
// engine's stalled-stream tests: a node stream parked between rounds holds
// no lock, so a routed add into a streamed shard and a reinstall of one both
// complete promptly. The resumed stream then ends without error within the
// stream promise: it re-plans after its frontier on the add, and keeps
// reading its pinned shard instance across the reinstall.
func TestNodeMutationCompletesWhileStreamStalled(t *testing.T) {
	ctx := context.Background()
	ds := testDataset(t)
	// A one-edge query matches most graphs: the first answer comes early,
	// with stream left after it that must survive the mutation.
	qs, err := workload.Generate(ds, workload.Config{NumQueries: 1, QueryEdges: 1, Seed: 43})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	q := qs[0]
	truth, err := core.BruteForceAnswers(ctx, ds, q)
	if err != nil || len(truth) < 2 {
		t.Fatalf("fixture query has %d answers (err %v), want >= 2", len(truth), err)
	}
	// The routed add is a copy of graph 0; it may be yielded or not.
	added := graph.ID(ds.Len())
	ever := truth
	if truth[0] == 0 {
		ever = append(slices.Clone(truth), added)
	}
	const shardCount = 2
	shards := []int{0, 1}
	for _, tc := range []struct {
		name   string
		mutate func(*cluster.Node) error
	}{
		{"routed add", func(n *cluster.Node) error {
			_, err := n.Add(ctx, added, 1, ds.Graphs[0].ShallowWithID(0))
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
			first, err, ok := next()
			if !ok || err != nil {
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

			got := graph.IDSet{first}
			for {
				id, err, ok := next()
				if !ok {
					break
				}
				if err != nil {
					t.Fatalf("resumed node stream: %v", err)
				}
				got = append(got, id)
			}
			promise.Check(t, got, truth, ever)
		})
	}
}
