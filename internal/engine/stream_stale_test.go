package engine_test

import (
	"context"
	"iter"
	"slices"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/testutil/leak"
	"repro/internal/testutil/promise"
	"repro/internal/workload"
)

// pullFirstAnswer starts a pull-based consumer over the stream and returns
// after the first answer: the stream goroutine is then parked in its yield
// with the engine's read lock released (chunked locking), which is exactly
// the stalled-consumer state these tests exercise.
func pullFirstAnswer(t *testing.T, seq iter.Seq2[graph.ID, error]) (first graph.ID, next func() (graph.ID, error, bool), stop func()) {
	t.Helper()
	next, stop = iter.Pull2(seq)
	first, err, ok := next()
	if !ok {
		t.Fatal("stream ended before its first answer")
	}
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	return first, next, stop
}

// stalledStreamSurvivesWrites parks a stream of eng after its first answer,
// then adds a copy of an answer and removes the last answer while it is
// parked. Both mutations must complete promptly, and the resumed stream
// must end without error within the stream promise: ids strictly
// ascending, every answer live throughout (all but the removed one)
// yielded, and nothing outside the answers live at some moment (the
// originals plus the added copy).
func stalledStreamSurvivesWrites(t *testing.T, eng engine.Querier) {
	defer leak.Check(t)()
	ctx := context.Background()
	// A one-edge query matches most graphs: after the first answer is
	// pulled there is stream left, and the removed last answer lies beyond
	// the frontier.
	qs, err := workload.Generate(eng.Dataset(), workload.Config{NumQueries: 1, QueryEdges: 1, Seed: 43})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	q := qs[0]
	res, err := eng.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	truth := res.Answers
	if len(truth) < 3 {
		t.Fatalf("fixture query has %d answers, want >= 3", len(truth))
	}

	first, next, stop := pullFirstAnswer(t, eng.Stream(ctx, q))
	defer stop()

	// The stream is stalled between rounds; the mutations must not block.
	removed := truth[len(truth)-1]
	var added graph.ID
	done := make(chan error, 1)
	go func() {
		var err error
		if added, err = eng.AddGraph(ctx, eng.Dataset().Graphs[truth[0]].ShallowWithID(0)); err == nil {
			err = eng.RemoveGraph(ctx, removed)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("mutation: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("mutation blocked behind a stalled stream")
	}

	got := graph.IDSet{first}
	for {
		id, err, ok := next()
		if !ok {
			break
		}
		if err != nil {
			t.Fatalf("resumed stream: %v", err)
		}
		got = append(got, id)
	}
	always := slices.DeleteFunc(slices.Clone(truth), func(id graph.ID) bool { return id == removed })
	promise.Check(t, got, always, append(slices.Clone(truth), added))
}

// TestMutationCompletesWhileStreamStalled is the regression test for
// chunked locking: a stream stalled mid-consumption holds no lock, so a
// mutation completes promptly, and the resumed stream re-plans after its
// frontier and ends within the stream promise instead of failing.
func TestMutationCompletesWhileStreamStalled(t *testing.T) {
	eng, err := engine.Open(context.Background(), tinyDataset(t), engine.WithSpec("noindex"))
	if err != nil {
		t.Fatal(err)
	}
	stalledStreamSurvivesWrites(t, eng)
}

// TestShardedMutationCompletesWhileStreamStalled is the sharded analogue.
func TestShardedMutationCompletesWhileStreamStalled(t *testing.T) {
	s, err := engine.OpenSharded(context.Background(), tinyDataset(t), 3, engine.WithSpec("noindex"))
	if err != nil {
		t.Fatal(err)
	}
	stalledStreamSurvivesWrites(t, s)
}
