package server

import (
	"context"
	"errors"
	"iter"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	_ "repro/internal/engine/std"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/workload"
)

func testDataset(t testing.TB) *graph.Dataset {
	t.Helper()
	return gen.Synthetic(gen.SynthConfig{
		NumGraphs: 25, MeanNodes: 14, MeanDensity: 0.2, NumLabels: 4, Seed: 41,
	})
}

func testQueries(t testing.TB, ds *graph.Dataset) []*graph.Graph {
	t.Helper()
	qs, err := workload.Generate(ds, workload.Config{NumQueries: 6, QueryEdges: 5, Seed: 42})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	// Drop isomorphic duplicates: the tests assert that the first serve of
	// each query misses, which two isomorphic workload queries would break.
	seen := map[string]bool{}
	out := qs[:0]
	for _, q := range qs {
		k, ok := QueryKey(q)
		if ok && seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, q)
	}
	return out
}

// immutable is the Mutable half of the test Queriers: every mutation fails
// with errReadOnly, and the epoch and counts stay zero.
type immutable struct{}

var errReadOnly = errors.New("test querier holds no index to mutate")

func (immutable) AddGraph(context.Context, *graph.Graph) (graph.ID, error) {
	return 0, errReadOnly
}
func (immutable) RemoveGraph(context.Context, graph.ID) error { return errReadOnly }
func (immutable) Epoch() uint64                               { return 0 }
func (immutable) Counts() (live, removed int)                 { return 0, 0 }

// blockingQuerier is an engine.Querier whose Query blocks on gate (when
// set) and counts its calls, for single-flight tests.
type blockingQuerier struct {
	immutable
	ds      *graph.Dataset
	calls   atomic.Int64
	entered chan struct{} // receives one token per Query entry
	gate    chan struct{} // Query blocks until closed (nil = no blocking)
	failed  []int         // FailedShards of every result (a partial answer)
}

func (b *blockingQuerier) Dataset() *graph.Dataset { return b.ds }

func (b *blockingQuerier) Query(ctx context.Context, q *graph.Graph) (*core.QueryResult, error) {
	b.calls.Add(1)
	if b.entered != nil {
		b.entered <- struct{}{}
	}
	if b.gate != nil {
		select {
		case <-b.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return &core.QueryResult{Candidates: graph.NewIDSet(1, 2), Answers: graph.NewIDSet(2), FailedShards: b.failed}, nil
}

func (b *blockingQuerier) Ready() bool { return true }

func (b *blockingQuerier) Stream(ctx context.Context, q *graph.Graph) iter.Seq2[graph.ID, error] {
	return b.StreamStats(ctx, q, nil)
}

func (b *blockingQuerier) StreamStats(context.Context, *graph.Graph, *core.PipelineStats) iter.Seq2[graph.ID, error] {
	return func(yield func(graph.ID, error) bool) {}
}

// TestSingleFlightDedup: concurrent isomorphic queries share one
// computation — the engine runs once, every caller gets the answer, and
// the latecomers count as dedups, not misses.
func TestSingleFlightDedup(t *testing.T) {
	ds := testDataset(t)
	q := testQueries(t, ds)[0]
	fake := &blockingQuerier{ds: ds, entered: make(chan struct{}, 1), gate: make(chan struct{})}
	ce := NewCached(fake, CacheConfig{})

	leaderDone := make(chan error, 1)
	go func() {
		_, err := ce.Query(context.Background(), q)
		leaderDone <- err
	}()
	<-fake.entered // the leader is inside the engine, holding the flight

	const followers = 7
	var wg sync.WaitGroup
	errs := make([]error, followers)
	results := make([]*core.QueryResult, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Isomorphic copies: same canonical key, distinct bytes.
			results[i], errs[i] = ce.Query(context.Background(), workload.Permute(q, int64(i+1)))
		}(i)
	}
	// Wait until every follower has joined the flight, then release.
	for ce.CacheStats().Dedups < followers {
		runtime.Gosched()
	}
	close(fake.gate)
	wg.Wait()
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}
	for i := 0; i < followers; i++ {
		if errs[i] != nil {
			t.Fatalf("follower %d: %v", i, errs[i])
		}
		if !results[i].Answers.Equal(graph.NewIDSet(2)) {
			t.Errorf("follower %d answers = %v, want [2]", i, results[i].Answers)
		}
		if !results[i].Cached {
			t.Errorf("follower %d should report Cached", i)
		}
	}
	if calls := fake.calls.Load(); calls != 1 {
		t.Errorf("engine ran %d times for %d concurrent identical queries, want 1", calls, followers+1)
	}
	st := ce.CacheStats()
	if st.Dedups != followers {
		t.Errorf("dedups = %d, want %d", st.Dedups, followers)
	}
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1 — only the leader computed; joiners are dedups, not misses", st.Misses)
	}
	// And the flight's result is now cached for later arrivals.
	res, err := ce.Query(context.Background(), q)
	if err != nil || !res.Cached {
		t.Errorf("post-flight query: err=%v cached=%v, want hit", err, res.Cached)
	}
	if calls := fake.calls.Load(); calls != 1 {
		t.Errorf("engine re-ran after the result was cached (%d calls)", calls)
	}
}

// TestSingleFlightLeaderCancellationDoesNotPoison: when the flight's
// leader dies of its *own* canceled context, a waiter with a live context
// recomputes instead of inheriting the cancellation.
func TestSingleFlightLeaderCancellationDoesNotPoison(t *testing.T) {
	ds := testDataset(t)
	q := testQueries(t, ds)[0]
	fake := &blockingQuerier{ds: ds, entered: make(chan struct{}, 2), gate: make(chan struct{})}
	ce := NewCached(fake, CacheConfig{})

	leaderCtx, leaderCancel := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, err := ce.Query(leaderCtx, q)
		leaderDone <- err
	}()
	<-fake.entered // leader holds the flight, parked on the gate

	followerDone := make(chan error, 1)
	var followerRes *core.QueryResult
	go func() {
		var err error
		followerRes, err = ce.Query(context.Background(), q)
		followerDone <- err
	}()
	for ce.CacheStats().Dedups < 1 {
		runtime.Gosched()
	}

	leaderCancel() // the impatient client gives up mid-compute
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want context.Canceled", err)
	}
	<-fake.entered // the follower retried and is now computing itself
	close(fake.gate)
	if err := <-followerDone; err != nil {
		t.Fatalf("follower inherited the leader's cancellation: %v", err)
	}
	if !followerRes.Answers.Equal(graph.NewIDSet(2)) {
		t.Errorf("follower answers = %v, want [2]", followerRes.Answers)
	}
	if calls := fake.calls.Load(); calls != 2 {
		t.Errorf("engine calls = %d, want 2 (canceled leader + retrying follower)", calls)
	}
}

// TestCachedNeverStoresPartial: a result missing cluster shards is served
// but never cached — the lost shard may come back without the epoch moving
// — so an identical second query computes again and still says partial.
func TestCachedNeverStoresPartial(t *testing.T) {
	ds := testDataset(t)
	q := testQueries(t, ds)[0]
	fake := &blockingQuerier{ds: ds, failed: []int{1}}
	ce := NewCached(fake, CacheConfig{})
	for i := 0; i < 2; i++ {
		res, err := ce.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached || len(res.FailedShards) != 1 {
			t.Errorf("query %d: cached=%v failed shards %v, want a computed partial answer", i, res.Cached, res.FailedShards)
		}
	}
	if calls := fake.calls.Load(); calls != 2 {
		t.Errorf("engine ran %d times, want 2: the partial answer was cached", calls)
	}
	if st := ce.CacheStats(); st.Hits != 0 || st.Misses != 2 {
		t.Errorf("cache hits %d misses %d, want 0 and 2", st.Hits, st.Misses)
	}
}

// TestCachedParityEveryMethod is the serving-layer correctness contract:
// for every registered method, flat and sharded (N in {1, 4}), the cached
// engine's answers — on the miss, on the identical-query hit, and on an
// isomorphic permuted hit — are identical to the uncached engine's.
func TestCachedParityEveryMethod(t *testing.T) {
	ds := testDataset(t)
	queries := testQueries(t, ds)
	ctx := context.Background()
	// Mining-method overrides, mirroring the sharded parity test: per-shard
	// support is a ratio of the (smaller) shard, so unbounded feature sizes
	// blow the test budget.
	specs := map[string]string{
		"gindex":    "gindex:maxPatterns=20000,supportRatio=0.2",
		"treedelta": "treedelta:maxFeatureSize=5,maxPatterns=20000,querySupportToAdd=0.5",
	}
	for _, d := range engine.Descriptors() {
		spec := specs[d.Name]
		if spec == "" {
			spec = d.Name
		}
		t.Run(spec, func(t *testing.T) {
			for _, shards := range []int{0, 1, 4} {
				var q engine.Querier
				var err error
				switch {
				case d.OpenQuerier != nil:
					// Composite entries (the router) only construct through
					// OpenAny; with shards > 1 every routed sub-engine is
					// sharded.
					q, err = engine.OpenAny(ctx, ds, shards, engine.WithSpec(spec))
				case shards == 0:
					q, err = engine.Open(ctx, ds, engine.WithSpec(spec))
				default:
					q, err = engine.OpenSharded(ctx, ds, shards, engine.WithSpec(spec))
				}
				if err != nil {
					t.Fatalf("open (shards=%d): %v", shards, err)
				}
				ce := NewCached(q, CacheConfig{})
				for i, query := range queries {
					want, err := q.Query(ctx, query)
					if err != nil {
						t.Fatalf("shards=%d query %d: %v", shards, i, err)
					}
					miss, err := ce.Query(ctx, query)
					if err != nil {
						t.Fatalf("shards=%d query %d (miss): %v", shards, i, err)
					}
					if miss.Cached {
						t.Fatalf("shards=%d query %d: first serve must compute", shards, i)
					}
					hit, err := ce.Query(ctx, query)
					if err != nil {
						t.Fatalf("shards=%d query %d (hit): %v", shards, i, err)
					}
					if !hit.Cached {
						t.Errorf("shards=%d query %d: second serve must hit", shards, i)
					}
					perm, err := ce.Query(ctx, workload.Permute(query, int64(31+i)))
					if err != nil {
						t.Fatalf("shards=%d query %d (permuted): %v", shards, i, err)
					}
					if !perm.Cached {
						t.Errorf("shards=%d query %d: isomorphic permutation must hit", shards, i)
					}
					// Answers must match the uncached engine's on every
					// path. Candidate sets are asserted against the miss's
					// computation, not want's: Tree+Δ legitimately refines
					// its index between runs of the same query, so only
					// the cached copies must be byte-identical to what was
					// actually computed and stored.
					for name, got := range map[string]*core.QueryResult{"miss": miss, "hit": hit, "permuted hit": perm} {
						if !got.Answers.Equal(want.Answers) {
							t.Errorf("shards=%d query %d (%s): answers %v != uncached %v",
								shards, i, name, got.Answers, want.Answers)
						}
					}
					for name, got := range map[string]*core.QueryResult{"hit": hit, "permuted hit": perm} {
						if !got.Candidates.Equal(miss.Candidates) {
							t.Errorf("shards=%d query %d (%s): candidates diverge from the stored computation",
								shards, i, name)
						}
					}
				}
			}
		})
	}
}
