package cluster

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/testutil/leak"
	"repro/internal/workload"
)

func nodeFixture(t *testing.T, graphs, queries int) (*graph.Dataset, []*graph.Graph) {
	t.Helper()
	ds := gen.Synthetic(gen.SynthConfig{
		NumGraphs: graphs, MeanNodes: 14, MeanDensity: 0.2, NumLabels: 4, Seed: 41,
	})
	qs, err := workload.Generate(ds, workload.Config{NumQueries: queries, QueryEdges: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return ds, qs
}

// nodeAnswers drains the node's stream of q over shard k: every answer,
// ascending global ids.
func nodeAnswers(t testing.TB, n *Node, k int, q *graph.Graph) graph.IDSet {
	t.Helper()
	out := graph.IDSet{}
	for id, err := range n.StreamStats(context.Background(), []int{k}, nil, q, -1, nil) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, id)
	}
	return out
}

// TestNodeStreamHonoursVerifyBudget: the node's merged stream verifies with
// its whole VerifyWorkers budget. At 4 workers it yields exactly the serial
// sequence, strictly ascending, and a stream broken after k answers leaves
// no verify worker behind.
func TestNodeStreamHonoursVerifyBudget(t *testing.T) {
	ctx := context.Background()
	src, queries := nodeFixture(t, 60, 6)
	shards := []int{0, 1, 2}
	open := func(workers int) *Node {
		n, err := NewNode(ctx, src, NodeConfig{
			Name: "n", Spec: "noindex", ShardCount: len(shards), Shards: shards, VerifyWorkers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	serial, pooled := open(1), open(4)
	defer leak.Check(t)()
	stream := func(n *Node, q *graph.Graph, k int) graph.IDSet {
		var out graph.IDSet
		for id, err := range n.StreamStats(ctx, shards, nil, q, -1, nil) {
			if err != nil {
				t.Fatal(err)
			}
			if len(out) > 0 && id <= out[len(out)-1] {
				t.Fatalf("%d after %d: not strictly ascending", id, out[len(out)-1])
			}
			if out = append(out, id); len(out) == k {
				break
			}
		}
		return out
	}
	for i, q := range queries {
		want := stream(serial, q, -1)
		if len(want) < 2 {
			t.Fatalf("query %d has %d answers; the fixture needs more", i, len(want))
		}
		for _, k := range []int{-1, 1, len(want) / 2} {
			got := stream(pooled, q, k)
			if k < 0 {
				k = len(want)
			}
			if !got.Equal(want[:k]) {
				t.Fatalf("query %d: 4 workers streamed %v, want %v", i, got, want[:k])
			}
		}
	}
}

// TestNodeAddRedelivery: an add delivered twice acks twice and applies
// once — the shard's length, its live count and its answers do not move.
func TestNodeAddRedelivery(t *testing.T) {
	ctx := context.Background()
	src, queries := nodeFixture(t, 25, 4)
	n, err := NewNode(ctx, src, NodeConfig{Name: "n", Spec: "grapes:maxPathLen=3", ShardCount: 2, Shards: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	id := graph.ID(src.Len())
	k := engine.ShardOf(id, 2)
	g := src.Graphs[0]
	first, err := n.Add(ctx, id, 1, g.ShallowWithID(0))
	if err != nil {
		t.Fatal(err)
	}
	length := n.shards[k].Engine().Dataset().Len()
	live := n.Info().Shards[k].Graphs
	answers := make([]graph.IDSet, len(queries))
	for i, q := range queries {
		answers[i] = nodeAnswers(t, n, k, q)
	}
	second, err := n.Add(ctx, id, 1, g.ShallowWithID(0))
	if err != nil {
		t.Fatalf("re-delivered add: %v, want an ack", err)
	}
	if second != first {
		t.Errorf("re-delivered add acked %+v, first delivery %+v", second, first)
	}
	if got := n.shards[k].Engine().Dataset().Len(); got != length {
		t.Errorf("re-delivery grew the shard from %d to %d slots", length, got)
	}
	if got := n.Info().Shards[k].Graphs; got != live {
		t.Errorf("re-delivery moved the live count from %d to %d", live, got)
	}
	for i, q := range queries {
		if got := nodeAnswers(t, n, k, q); !got.Equal(answers[i]) {
			t.Errorf("query %d after re-delivery: %v, want %v", i, got, answers[i])
		}
	}
}

// TestNodeAddRollsBackFailedPersist: an add whose journal record cannot be
// appended is not acked and leaves nothing live; the coordinator may then
// assign the same id again, and that add applies.
func TestNodeAddRollsBackFailedPersist(t *testing.T) {
	ctx := context.Background()
	src, _ := nodeFixture(t, 25, 4)
	n, err := NewNode(ctx, src, NodeConfig{
		Name: "n", Spec: "grapes:maxPathLen=3", ShardCount: 2, Shards: []int{0, 1},
		IndexPath: filepath.Join(t.TempDir(), "n.idx"),
	})
	if err != nil {
		t.Fatal(err)
	}
	id := graph.ID(src.Len())
	k := engine.ShardOf(id, 2)
	g := src.Graphs[0]
	// The query is the added graph itself, so it is an answer once live.
	q := g.ShallowWithID(0)
	before := nodeAnswers(t, n, k, q)
	info := n.Info()

	// A non-empty directory where the shard's journal goes fails the append.
	path := engine.JournalPath(n.shardIndexPath(k))
	if err := os.MkdirAll(filepath.Join(path, "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Add(ctx, id, 1, g.ShallowWithID(0)); err == nil {
		t.Fatal("add acked although its journal could not be written")
	}
	if got := nodeAnswers(t, n, k, q); !got.Equal(before) {
		t.Fatalf("rolled-back add is live: answers %v, want %v", got, before)
	}
	if got := n.Info(); got.MaxGlobalID != info.MaxGlobalID || got.Shards[k] != info.Shards[k] {
		t.Fatalf("rolled-back add moved the shard state from %+v (max id %d) to %+v (max id %d)",
			info.Shards[k], info.MaxGlobalID, got.Shards[k], got.MaxGlobalID)
	}

	if err := os.RemoveAll(path); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Add(ctx, id, 1, g.ShallowWithID(0)); err != nil {
		t.Fatalf("add of the same id once the file is writable: %v", err)
	}
	if got, want := nodeAnswers(t, n, k, q), before.Union(graph.IDSet{id}); !got.Equal(want) {
		t.Fatalf("answers after the re-applied add: %v, want %v", got, want)
	}
	var streamed graph.IDSet
	for gid, err := range n.StreamStats(ctx, []int{k}, nil, q, -1, nil) {
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, gid)
	}
	if want := before.Union(graph.IDSet{id}); !streamed.Equal(want) {
		t.Fatalf("streamed %v, want %v", streamed, want)
	}
	graphs, _, _, err := n.Dump(k)
	if err != nil {
		t.Fatal(err)
	}
	copies := 0
	for _, dg := range graphs {
		if dg.ID == id {
			copies++
		}
	}
	if copies != 1 {
		t.Fatalf("dump holds %d live copies of graph %d, want 1", copies, id)
	}
}

// TestNodeJournalsMutations: a node's durable mutations append to its shard
// journal and leave the shard file as it was. A restarted node reloads its
// dataset copy at epoch 0, so it restores that file with no record replayed
// and answers as the unmutated shard.
func TestNodeJournalsMutations(t *testing.T) {
	ctx := context.Background()
	src, queries := nodeFixture(t, 25, 4)
	cfg := NodeConfig{
		Name: "n", Spec: "grapes:maxPathLen=3", ShardCount: 2, Shards: []int{0, 1},
		IndexPath: filepath.Join(t.TempDir(), "n.idx"),
	}
	n, err := NewNode(ctx, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	id := graph.ID(src.Len())
	k := engine.ShardOf(id, 2)
	path := n.shardIndexPath(k)
	base, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]graph.IDSet, len(queries))
	for i, q := range queries {
		want[i] = nodeAnswers(t, n, k, q)
	}
	victim := graph.ID(-1)
	for _, g := range src.Graphs {
		if engine.ShardOf(g.ID(), 2) == k {
			victim = g.ID()
			break
		}
	}
	if _, err := n.Add(ctx, id, 1, src.Graphs[0].ShallowWithID(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Remove(ctx, victim, 2); err != nil {
		t.Fatal(err)
	}
	if now, err := os.ReadFile(path); err != nil || !slices.Equal(now, base) {
		t.Fatalf("a journaled mutation rewrote the shard file (%v)", err)
	}
	fi, err := os.Stat(engine.JournalPath(path))
	if err != nil || fi.Size() < 2*25 {
		t.Fatalf("shard journal after two mutations: %v, %v", fi, err)
	}

	restarted, err := NewNode(ctx, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !restarted.shards[k].Engine().Restored() {
		t.Fatal("restarted node rebuilt the shard instead of restoring its file")
	}
	for i, q := range queries {
		if got := nodeAnswers(t, restarted, k, q); !got.Equal(want[i]) {
			t.Errorf("query %d after restart: %v, want the unmutated %v", i, got, want[i])
		}
	}
}
