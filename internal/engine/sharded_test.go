package engine_test

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	_ "repro/internal/engine/std"
	"repro/internal/graph"
	"repro/internal/testutil/leak"
	"repro/internal/workload"
)

// TestShardOfDeterministicAndCovering: the hash partition is a pure function
// of the graph id and spreads a realistic id range over every shard.
func TestShardOfDeterministicAndCovering(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		counts := make([]int, shards)
		for id := graph.ID(0); id < 1000; id++ {
			s := engine.ShardOf(id, shards)
			if s != engine.ShardOf(id, shards) {
				t.Fatalf("ShardOf(%d, %d) not deterministic", id, shards)
			}
			if s < 0 || s >= shards {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", id, shards, s)
			}
			counts[s]++
		}
		for s, n := range counts {
			if n == 0 {
				t.Errorf("shards=%d: shard %d got no graphs out of 1000", shards, s)
			}
		}
	}
}

// TestShardedParityEveryMethod is the core correctness contract: for every
// registered method, a sharded engine with N in {1, 2, 4} returns exactly
// the unsharded engine's answer set, and its candidate set never loses an
// answer (candidate sets themselves may differ for the frequent-mining
// methods, whose feature selection is dataset-global).
// shardParityOverrides swaps in tighter mining bounds for the sharded
// parity run: support thresholds are ratios, so a quarter-size shard mines
// with a quarter of the absolute support — on the tiny test dataset that
// inflates the pattern space past the standard test budget. Bounding the
// feature size keeps the same code paths while staying inside it.
var shardParityOverrides = map[string]string{
	"treedelta:maxPatterns=20000,querySupportToAdd=0.5": "treedelta:maxFeatureSize=5,maxPatterns=20000,querySupportToAdd=0.5",
}

func TestShardedParityEveryMethod(t *testing.T) {
	ds := tinyDataset(t)
	queries := tinyQueries(t, ds)
	ctx := context.Background()

	for _, tc := range allSpecs {
		spec := tc.override
		if spec == "" {
			spec = tc.def
		}
		if o, ok := shardParityOverrides[spec]; ok {
			spec = o
		}
		t.Run(spec, func(t *testing.T) {
			flat, err := engine.Open(ctx, ds, engine.WithSpec(spec))
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			want := make([]*core.QueryResult, len(queries))
			for i, q := range queries {
				if want[i], err = flat.Query(ctx, q); err != nil {
					t.Fatalf("unsharded query %d: %v", i, err)
				}
			}
			for _, shards := range []int{1, 2, 4} {
				s, err := engine.OpenSharded(ctx, ds, shards, engine.WithSpec(spec))
				if err != nil {
					t.Fatalf("OpenSharded(%d): %v", shards, err)
				}
				total := 0
				for i := 0; i < s.Shards(); i++ {
					total += s.ShardLen(i)
				}
				if total != ds.Len() {
					t.Fatalf("shards=%d: partition holds %d graphs, dataset %d", shards, total, ds.Len())
				}
				for i, q := range queries {
					got, err := s.Query(ctx, q)
					if err != nil {
						t.Fatalf("shards=%d query %d: %v", shards, i, err)
					}
					if !got.Answers.Equal(want[i].Answers) {
						t.Errorf("shards=%d query %d: answers %v != unsharded %v",
							shards, i, got.Answers, want[i].Answers)
					}
					for _, id := range got.Answers {
						if !got.Candidates.Contains(id) {
							t.Errorf("shards=%d query %d: answer %d missing from merged candidates", shards, i, id)
						}
					}
				}
			}
		})
	}
}

// TestShardedStreamMatchesQuery: the merged stream yields exactly the
// fan-out Query's answers, in ascending global id order, and its candidate
// collector gathers exactly Query's candidates.
func TestShardedStreamMatchesQuery(t *testing.T) {
	ds := tinyDataset(t)
	queries := tinyQueries(t, ds)
	ctx := context.Background()
	s, err := engine.OpenSharded(ctx, ds, 3, engine.WithSpec("grapes:workers=2"))
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		res, err := s.Query(ctx, q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		var streamed, cands graph.IDSet
		prev := graph.ID(-1)
		for id, err := range s.StreamStats(ctx, q, &core.PipelineStats{Candidates: &cands}) {
			if err != nil {
				t.Fatalf("stream %d: %v", i, err)
			}
			if id <= prev {
				t.Fatalf("stream %d: ids not strictly ascending (%d after %d)", i, id, prev)
			}
			prev = id
			streamed = append(streamed, id)
		}
		if !streamed.Equal(res.Answers) {
			t.Errorf("query %d: streamed %v != answers %v", i, streamed, res.Answers)
		}
		if !cands.Equal(res.Candidates) {
			t.Errorf("query %d: stream collected candidates %v != query candidates %v", i, cands, res.Candidates)
		}
	}
}

// TestShardedStreamHonoursVerifyBudget: every round of the merged stream
// verifies through the verify pool with the whole budget. At 4 workers a
// 3-shard stream yields exactly the serial sequence, strictly ascending,
// and a stream broken after k answers leaves no verify worker behind.
func TestShardedStreamHonoursVerifyBudget(t *testing.T) {
	ctx := context.Background()
	ds := tinyDataset(t)
	// One-edge queries match most graphs: long streams, full rounds.
	queries, err := workload.Generate(ds, workload.Config{NumQueries: 3, QueryEdges: 1, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	queries = append(queries, tinyQueries(t, ds)...)
	open := func(workers int) *engine.Sharded {
		s, err := engine.OpenSharded(ctx, ds, 3, engine.WithSpec("noindex"), engine.WithVerifyWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	serial, pooled := open(1), open(4)
	defer leak.Check(t)()
	stream := func(s *engine.Sharded, q *graph.Graph, k int) graph.IDSet {
		var out graph.IDSet
		for id, err := range s.Stream(ctx, q) {
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
		for _, k := range []int{-1, 1, len(want) / 2} {
			if k == 0 {
				continue
			}
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

// TestShardedQueryBatchMatchesQuery: batch results agree with one-by-one
// fan-out queries and come back in input order.
func TestShardedQueryBatchMatchesQuery(t *testing.T) {
	ds := tinyDataset(t)
	queries := tinyQueries(t, ds)
	ctx := context.Background()
	s, err := engine.OpenSharded(ctx, ds, 2, engine.WithSpec("ggsx:maxPathLen=3"))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := core.QueryBatchFunc(ctx, queries, core.BatchOptions{Workers: 3}, s.Query)
	if err != nil {
		t.Fatalf("QueryBatch: %v", err)
	}
	if len(batch) != len(queries) {
		t.Fatalf("batch has %d entries, want %d", len(batch), len(queries))
	}
	for i, br := range batch {
		if br.Err != nil {
			t.Fatalf("batch entry %d: %v", i, br.Err)
		}
		if br.Query != i {
			t.Fatalf("batch entry %d claims query %d", i, br.Query)
		}
		want, err := s.Query(ctx, queries[i])
		if err != nil {
			t.Fatal(err)
		}
		if !br.Result.Answers.Equal(want.Answers) {
			t.Errorf("batch entry %d: answers %v != query answers %v", i, br.Result.Answers, want.Answers)
		}
	}
}

// TestShardedCancellation: a cancelled context aborts the parallel build,
// the fan-out query, and — mid-stream — the merged answer stream, exactly
// like the unsharded engine.
func TestShardedCancellation(t *testing.T) {
	defer leak.Check(t)()
	ds := tinyDataset(t)
	queries := tinyQueries(t, ds)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := engine.OpenSharded(cancelled, ds, 2, engine.WithSpec("grapes")); !errors.Is(err, context.Canceled) {
		t.Fatalf("OpenSharded with cancelled ctx: err = %v, want context.Canceled", err)
	}

	s, err := engine.OpenSharded(context.Background(), ds, 2, engine.WithSpec("noindex"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(cancelled, queries[0]); !errors.Is(err, context.Canceled) {
		t.Errorf("Query with cancelled ctx: err = %v, want context.Canceled", err)
	}

	// Mid-query: cancel after the stream yields its first answer. Every
	// later candidate must surface the cancellation (or the stream was
	// already past its last candidate — then it must have produced the
	// full, correct answer set).
	full, err := s.Query(context.Background(), queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Answers) == 0 {
		t.Fatal("workload query has no answers; pick a different seed")
	}
	ctx, cancelMid := context.WithCancel(context.Background())
	defer cancelMid()
	var streamed graph.IDSet
	var streamErr error
	for id, err := range s.Stream(ctx, queries[0]) {
		if err != nil {
			streamErr = err
			break
		}
		streamed = append(streamed, id)
		cancelMid()
	}
	if streamErr != nil {
		if !errors.Is(streamErr, context.Canceled) {
			t.Fatalf("mid-stream error = %v, want context.Canceled", streamErr)
		}
		for _, id := range streamed {
			if !full.Answers.Contains(id) {
				t.Errorf("cancelled stream yielded non-answer %d", id)
			}
		}
	} else if !streamed.Equal(full.Answers) {
		t.Errorf("uncancelled tail: streamed %v != full answers %v", streamed, full.Answers)
	}
}

// TestShardedPersistenceLifecycle: per-shard files restore independently, a
// corrupt shard rebuilds alone, and a changed shard count invalidates the
// manifest and rebuilds everything.
func TestShardedPersistenceLifecycle(t *testing.T) {
	ds := tinyDataset(t)
	queries := tinyQueries(t, ds)
	base := filepath.Join(t.TempDir(), "tiny.idx")
	ctx := context.Background()
	const shards = 3
	open := func() *engine.Sharded {
		t.Helper()
		s, err := engine.OpenSharded(ctx, ds, shards,
			engine.WithSpec("grapes:workers=2"), engine.WithIndexPath(base))
		if err != nil {
			t.Fatalf("OpenSharded: %v", err)
		}
		return s
	}

	s1 := open()
	if s1.Restored() {
		t.Fatal("first open restored a nonexistent index")
	}
	if _, err := os.Stat(base); err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	for i := 0; i < shards; i++ {
		if s1.ShardLen(i) == 0 {
			continue
		}
		if _, err := os.Stat(engine.ShardIndexPath(base, i)); err != nil {
			t.Fatalf("shard file %d not written: %v", i, err)
		}
	}

	s2 := open()
	if !s2.Restored() {
		t.Fatal("second open rebuilt instead of restoring")
	}
	for i, q := range queries {
		r1, err := s1.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := s2.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !r1.Answers.Equal(r2.Answers) {
			t.Errorf("query %d: restored answers diverge", i)
		}
	}

	// Corrupt one shard: only it rebuilds, and the overwrite heals it.
	victim, nonEmpty := -1, 0
	for i := 0; i < shards; i++ {
		if s1.ShardLen(i) > 0 {
			nonEmpty++
			if victim < 0 {
				victim = i
			}
		}
	}
	if err := os.WriteFile(engine.ShardIndexPath(base, victim), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s3 := open()
	if s3.Restored() {
		t.Fatal("open trusted a corrupt shard")
	}
	if got, want := s3.RestoredShards(), nonEmpty-1; got != want {
		t.Fatalf("corrupt shard: restored %d shards, want %d", got, want)
	}
	if !open().Restored() {
		t.Fatal("rebuild did not overwrite the corrupt shard file")
	}

	// Respelling a default parameter is the same configuration and must
	// still restore (the manifest stores the default-eliding canonical
	// spec). maxPathLen=4 is the grapes default.
	same, err := engine.OpenSharded(ctx, ds, shards,
		engine.WithSpec("grapes:maxPathLen=4,workers=2"), engine.WithIndexPath(base))
	if err != nil {
		t.Fatal(err)
	}
	if !same.Restored() {
		t.Fatal("explicitly spelling a default parameter forced a rebuild")
	}

	// A different shard count must not trust the old shard files.
	s5, err := engine.OpenSharded(ctx, ds, shards+1,
		engine.WithSpec("grapes:workers=2"), engine.WithIndexPath(base))
	if err != nil {
		t.Fatal(err)
	}
	if s5.RestoredShards() != 0 {
		t.Fatalf("changed shard count restored %d shards, want 0", s5.RestoredShards())
	}

	// A non-default build parameter is another configuration: the manifest
	// endorses none of the files, and each is rewritten under it.
	other, err := engine.OpenSharded(ctx, ds, shards,
		engine.WithSpec("grapes:maxPathLen=3,workers=2"), engine.WithIndexPath(base))
	if err != nil {
		t.Fatal(err)
	}
	if other.RestoredShards() != 0 {
		t.Fatalf("changed build parameter restored %d shards, want 0", other.RestoredShards())
	}
	foreign, err := os.ReadFile(engine.ShardIndexPath(base, victim))
	if err != nil {
		t.Fatal(err)
	}

	// A save that crashed before its manifest write leaves a shard file of
	// another configuration under a manifest that endorses the old one. The
	// file's own stamp must refuse it: only that shard rebuilds, and the
	// engine never assembles from mixed-parameter shards.
	open()
	if err := engine.AtomicWriteFile(engine.ShardIndexPath(base, victim), func(w io.Writer) error {
		_, err := w.Write(foreign)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	mixed := open()
	if got, want := mixed.RestoredShards(), nonEmpty-1; got != want {
		t.Fatalf("foreign-parameter shard: restored %d shards, want %d", got, want)
	}
	for i, q := range queries {
		want, err := core.BruteForceAnswers(ctx, ds, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := mixed.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Answers.Equal(want) {
			t.Errorf("query %d after the foreign shard rebuilt: answers %v, want %v", i, got.Answers, want)
		}
	}
}

// TestShardedEmptyShardsServeMutations: a shard that holds no graph at open
// is an ordinary engine over an empty sub-dataset. For every method it
// takes the graphs routed to it, answers exactly, and — where the method
// persists — writes its file, so a reopen restores every shard.
func TestShardedEmptyShardsServeMutations(t *testing.T) {
	ctx := context.Background()
	pool := tinyDataset(t)
	queries := tinyQueries(t, pool)
	const shards = 4
	for _, tc := range allSpecs {
		spec := tc.override
		if spec == "" {
			spec = tc.def
		}
		if o, ok := shardParityOverrides[spec]; ok {
			spec = o
		}
		if tc.def == "gIndex" {
			// A shard of two or three graphs mines at an absolute support of
			// one; bound the feature size to stay inside the budget.
			spec = "gindex:maxFeatureSize=4,maxPatterns=20000,supportRatio=0.2"
		}
		t.Run(spec, func(t *testing.T) {
			ds := graph.NewDataset("one")
			ds.Dict.CopyFrom(&pool.Dict)
			ds.Add(pool.Graphs[0].ShallowWithID(0))
			probe, err := engine.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			opts := []engine.Option{engine.WithSpec(spec)}
			_, persisted := probe.(core.Persistable)
			if persisted {
				opts = append(opts, engine.WithIndexPath(filepath.Join(t.TempDir(), "idx")))
			}
			s, err := engine.OpenSharded(ctx, ds, shards, opts...)
			if err != nil {
				t.Fatal(err)
			}
			var wasEmpty []int
			for i := range shards {
				if s.ShardLen(i) == 0 {
					wasEmpty = append(wasEmpty, i)
				}
			}
			for _, g := range pool.Graphs[1:10] {
				if _, err := s.AddGraph(ctx, g.ShallowWithID(0)); err != nil {
					t.Fatalf("AddGraph: %v", err)
				}
			}
			filled := 0
			for _, i := range wasEmpty {
				if s.ShardLen(i) > 0 {
					filled++
				}
			}
			if filled == 0 {
				t.Fatalf("no shard empty at open (%v) received a graph", wasEmpty)
			}
			check := func(stage string, e *engine.Sharded) {
				t.Helper()
				for i, q := range queries {
					want, err := core.BruteForceAnswers(ctx, ds, q)
					if err != nil {
						t.Fatal(err)
					}
					got, err := e.Query(ctx, q)
					if err != nil {
						t.Fatalf("%s: query %d: %v", stage, i, err)
					}
					if !got.Answers.Equal(want) {
						t.Errorf("%s: query %d answers %v, want %v", stage, i, got.Answers, want)
					}
				}
			}
			check("mutated", s)
			if !persisted {
				return
			}
			reopened, err := engine.OpenSharded(ctx, ds, shards, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !reopened.Restored() {
				t.Fatalf("reopen restored %d shards, not all", reopened.RestoredShards())
			}
			check("reopened", reopened)
		})
	}
}

// TestShardedAddRollsBackFailedPersist: an add whose journal record cannot
// be appended fails with no live mutation, and the engine keeps serving and
// mutating once the journal can be written again — the next mutation
// compacts the shard file.
func TestShardedAddRollsBackFailedPersist(t *testing.T) {
	ctx := context.Background()
	ds := tinyDataset(t)
	queries := tinyQueries(t, ds)
	base := filepath.Join(t.TempDir(), "idx")
	const shards = 3
	s, err := engine.OpenSharded(ctx, ds, shards, engine.WithSpec("grapes:maxPathLen=3"), engine.WithIndexPath(base))
	if err != nil {
		t.Fatal(err)
	}
	// A non-empty directory where the owning shard's journal goes fails the
	// append.
	path := engine.JournalPath(engine.ShardIndexPath(base, engine.ShardOf(graph.ID(ds.Len()), shards)))
	if err := os.MkdirAll(filepath.Join(path, "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	live, _ := s.Counts()
	if _, err := s.AddGraph(ctx, ds.Graphs[0].ShallowWithID(0)); err == nil {
		t.Fatal("AddGraph succeeded although its journal could not be written")
	}
	if now, _ := s.Counts(); now != live {
		t.Fatalf("failed add left %d live graphs, want %d", now, live)
	}
	check := func(stage string) {
		t.Helper()
		for i, q := range queries {
			want, err := core.BruteForceAnswers(ctx, ds, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Query(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Answers.Equal(want) {
				t.Errorf("%s: query %d answers %v, want %v", stage, i, got.Answers, want)
			}
		}
	}
	check("rolled back")
	if err := os.RemoveAll(path); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddGraph(ctx, ds.Graphs[0].ShallowWithID(0)); err != nil {
		t.Fatalf("AddGraph once the file is writable: %v", err)
	}
	check("added")
	// A reopen over the mutated dataset answers exactly: the failed add's
	// shard restores once a later mutation compacted it, and rebuilds
	// otherwise.
	if s, err = engine.OpenSharded(ctx, ds, shards, engine.WithSpec("grapes:maxPathLen=3"), engine.WithIndexPath(base)); err != nil {
		t.Fatal(err)
	}
	check("reopened")
}

// TestShardedRejectsWithMethod: a single pre-built instance cannot back N
// shards.
func TestShardedRejectsWithMethod(t *testing.T) {
	ds := tinyDataset(t)
	m, err := engine.New("noindex")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.OpenSharded(context.Background(), ds, 2, engine.WithMethod(m)); err == nil {
		t.Fatal("OpenSharded accepted WithMethod")
	}
	if _, err := engine.OpenSharded(context.Background(), ds, 0); err == nil {
		t.Fatal("OpenSharded accepted 0 shards")
	}
}
