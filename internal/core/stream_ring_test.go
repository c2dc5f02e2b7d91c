package core_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/testutil/leak"
)

// slowOddPlan is a candidate set of n ids whose odd ids are answers and
// whose verifications finish out of order (every third one yields the
// processor first).
type slowOddPlan struct{ n int }

func (p slowOddPlan) Candidates() graph.IDSet { return graph.UniverseIDSet(p.n) }

func (p slowOddPlan) Verify(id graph.ID) bool {
	if id%3 == 0 {
		runtime.Gosched()
	}
	return id%2 == 1
}

// TestStreamParallelRingReuse drives the parallel verifier far past its
// ring of 2×workers result slots — every slot is reused hundreds of times —
// and checks ordered emission, the read-ahead bound on an early break, and
// a clean teardown on break and on cancellation. Run with -race.
func TestStreamParallelRingReuse(t *testing.T) {
	defer leak.Check(t)()
	const n, workers = 1000, 3
	ds := graph.NewDataset("ring")
	for i := 0; i < n; i++ {
		ds.Add(graph.New(0))
	}
	plan := slowOddPlan{n}
	ctx := context.Background()

	next := graph.ID(1)
	for id, err := range core.StreamPlan(ctx, ds, plan, core.StreamOptions{VerifyWorkers: workers}) {
		if err != nil {
			t.Fatal(err)
		}
		if id != next {
			t.Fatalf("answer %d out of order, want %d", id, next)
		}
		next += 2
	}
	if next != n+1 {
		t.Fatalf("stream ended at %d, want every odd id below %d", next, n)
	}

	var stats core.PipelineStats
	got := 0
	for _, err := range core.StreamPlan(ctx, ds, plan, core.StreamOptions{VerifyWorkers: workers, Stats: &stats}) {
		if err != nil {
			t.Fatal(err)
		}
		if got++; got == 5 {
			break
		}
	}
	// Five answers sit at candidates 1..9; at most a ring of read-ahead
	// (plus the candidate in the feeder's hand) may have been verified.
	if v := stats.Verified.Load(); v > 10+2*workers+1 {
		t.Errorf("limit-5 stream verified %d candidates, want at most %d", v, 10+2*workers+1)
	}

	cctx, cancel := context.WithCancel(ctx)
	seen := 0
	var last error
	for _, err := range core.StreamPlan(cctx, ds, plan, core.StreamOptions{VerifyWorkers: workers}) {
		if last = err; err != nil {
			break
		}
		if seen++; seen == 20 {
			cancel()
		}
	}
	cancel()
	if last == nil {
		t.Fatalf("cancelled stream ended without an error after %d answers", seen)
	}
}
