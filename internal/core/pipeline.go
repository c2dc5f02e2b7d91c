package core

import (
	"context"
	"fmt"
	"iter"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// This file is the lazy side of the filter-and-verify pipeline: the query
// path decomposed into composable iterator stages —
//
//	candidate producer → liveness filter → verifier → consumer
//
// The producer emits candidate IDs in ascending order, in chunks, without
// materializing the full candidate set (methods that implement
// CandidateChunker stream their posting-list intersections; the rest fall
// back to one chunk holding Candidates()). The liveness filter drops
// tombstoned slots as IDs flow past. The verifier — serial or a bounded
// worker pool — proves candidates and emits answers in candidate order as
// each proof lands, so the first answer costs one verification, not a full
// candidate scan, and a limit-N consumer does only the work it keeps.

// CandidateChunker is implemented by methods that can emit their candidate
// set lazily, as a sequence of sorted, non-overlapping, strictly ascending
// chunks whose concatenation equals Candidates(q). Query-level work (feature
// extraction, posting lookups) runs eagerly in CandidateChunks; the per-graph
// scan or intersection is deferred into the sequence. The returned sequence
// must be re-iterable and must do no index reads after its yield returns
// false, so an early-terminated stream can be torn down without
// synchronization.
type CandidateChunker interface {
	CandidateChunks(q *graph.Graph) (iter.Seq[graph.IDSet], error)
}

// ChunkedPlan is implemented by query plans that expose their candidate set
// as a lazy chunk sequence under the same contract as CandidateChunker.
type ChunkedPlan interface {
	QueryPlan
	Chunks() iter.Seq[graph.IDSet]
}

// PlanChunks adapts any plan into the producer stage's chunk sequence: a
// ChunkedPlan streams its chunks, everything else degrades to a single
// materialized chunk.
func PlanChunks(plan QueryPlan) iter.Seq[graph.IDSet] {
	if cp, ok := plan.(ChunkedPlan); ok {
		return cp.Chunks()
	}
	return func(yield func(graph.IDSet) bool) {
		if c := plan.Candidates(); len(c) > 0 {
			yield(c)
		}
	}
}

// PipelineStats counts one query's flow through the pipeline stages. Fields
// are atomics because the verifier stage may run in a worker pool; a stats
// struct may also be shared across the per-shard legs of a merged stream.
type PipelineStats struct {
	// Produced counts candidate IDs emitted by the producer stage (after
	// any resume-skip, before the liveness filter).
	Produced atomic.Int64
	// Live counts candidates that survived the tombstone/liveness filter.
	Live atomic.Int64
	// Verified counts verifier invocations — the pipeline's unit of real
	// work, and what early termination is measured by.
	Verified atomic.Int64
	// FailedShards is QueryResult.FailedShards for a stream: a cluster
	// stream sets it before it ends; nil when the stream is complete.
	FailedShards []int
}

// StreamOptions tunes a streamed query.
type StreamOptions struct {
	// VerifyWorkers bounds the verifier stage's parallelism; <= 1 verifies
	// serially. The stage emits in candidate order either way, with
	// read-ahead bounded at ~2×workers, so a limit-1 stream never proves
	// more than a small window past its answer.
	VerifyWorkers int
	// SkipTo makes the producer emit only IDs >= SkipTo — the resume
	// primitive behind the cluster's per-shard frontiers. Zero emits all.
	SkipTo graph.ID
	// Stats, when non-nil, receives the pipeline counters for this query.
	Stats *PipelineStats
}

// liveStage is the producer's resume-skip plus the liveness filter, one ID
// at a time: the single definition of which produced IDs reach the verifier,
// shared by the streamed Cursor and the one-shot Processor.QueryCtx.
type liveStage struct {
	ds     *graph.Dataset
	stats  *PipelineStats
	skipTo graph.ID
}

func (l *liveStage) admit(id graph.ID) bool {
	if id < l.skipTo {
		return false
	}
	l.stats.Produced.Add(1)
	if !l.ds.Alive(id) {
		return false
	}
	l.stats.Live.Add(1)
	return true
}

// Cursor is a pull-side view of the producer and liveness-filter stages:
// Next returns live candidate IDs one at a time, in ascending order,
// pulling chunks from the plan only as they are consumed. Callers that
// interleave locking with consumption (the engines' chunked-locking
// streams) drive a Cursor directly; Stop releases the underlying chunk
// sequence and is idempotent. A Cursor is not safe for concurrent use.
type Cursor struct {
	liveStage
	next    func() (graph.IDSet, bool)
	stop    func()
	chunk   graph.IDSet
	pos     int
	stopped bool
}

// NewCursor composes the producer and liveness stages over a plan. The
// caller must Stop the cursor when done (Next reaching the end stops it
// implicitly).
func NewCursor(ds *graph.Dataset, plan QueryPlan, opts StreamOptions) *Cursor {
	stats := opts.Stats
	if stats == nil {
		stats = &PipelineStats{}
	}
	next, stop := iter.Pull(PlanChunks(plan))
	return &Cursor{liveStage: liveStage{ds: ds, stats: stats, skipTo: opts.SkipTo}, next: next, stop: stop}
}

// Next returns the next live candidate ID, or false when the producer is
// exhausted.
func (c *Cursor) Next() (graph.ID, bool) {
	if c.stopped {
		return 0, false
	}
	for {
		for c.pos < len(c.chunk) {
			id := c.chunk[c.pos]
			c.pos++
			if c.admit(id) {
				return id, true
			}
		}
		chunk, ok := c.next()
		if !ok {
			c.Stop()
			return 0, false
		}
		// A whole chunk below the resume frontier is skipped without
		// touching its IDs (chunks are ascending).
		if n := len(chunk); n > 0 && chunk[n-1] < c.skipTo {
			continue
		}
		c.chunk, c.pos = chunk, 0
	}
}

// Stop releases the chunk sequence. Safe to call more than once.
func (c *Cursor) Stop() {
	if c.stopped {
		return
	}
	c.stopped = true
	c.chunk = nil
	c.stop()
}

// StreamPlan runs the verifier stage over a plan's lazy candidate stream and
// yields answers in candidate (ascending ID) order as they are proven. A
// context cancellation is yielded once as a non-nil error, then the sequence
// ends. The caller owns any locking; every stage — chunk pulls, liveness
// checks, verification — runs within the iteration.
func StreamPlan(ctx context.Context, ds *graph.Dataset, plan QueryPlan, opts StreamOptions) iter.Seq2[graph.ID, error] {
	stats := opts.Stats
	if stats == nil {
		stats = &PipelineStats{}
	}
	opts.Stats = stats
	if opts.VerifyWorkers > 1 {
		return streamParallel(ctx, ds, plan, opts)
	}
	return func(yield func(graph.ID, error) bool) {
		cur := NewCursor(ds, plan, opts)
		defer cur.Stop()
		for {
			id, ok := cur.Next()
			if !ok {
				return
			}
			if err := ctx.Err(); err != nil {
				yield(0, err)
				return
			}
			stats.Verified.Add(1)
			if plan.Verify(id) && !yield(id, nil) {
				return
			}
		}
	}
}

// verifySlot carries one candidate through the parallel verifier. Slots
// live in a fixed ring reused across candidates; res has capacity one, so a
// worker never blocks posting its result.
type verifySlot struct {
	id  graph.ID
	res chan bool
}

// streamParallel is the verifier stage as a bounded worker pool with ordered
// emission. A feeder goroutine pulls the cursor and, per candidate, takes a
// token from inflight (the read-ahead bound: 2×workers candidates fed but not
// yet emitted), fills the next ring slot and hands it to the order channel
// and then the jobs channel; workers verify and post to the slot's result
// channel; the emitter walks the order channel, so answers surface in
// candidate order no matter which worker finishes first, and returns the
// token once it has drained a slot — tokens are returned in feed order, so
// the slot a new token maps to is always free. Teardown closes stop, which
// unblocks the feeder wherever it is parked, and waits for every goroutine
// before returning — no leaks on early break or cancellation.
func streamParallel(ctx context.Context, ds *graph.Dataset, plan QueryPlan, opts StreamOptions) iter.Seq2[graph.ID, error] {
	return func(yield func(graph.ID, error) bool) {
		workers := opts.VerifyWorkers
		stats := opts.Stats
		ring := make([]verifySlot, 2*workers)
		for i := range ring {
			ring[i].res = make(chan bool, 1)
		}
		stop := make(chan struct{})
		jobs := make(chan *verifySlot)
		// Both sized to the ring: every fed slot holds a token, so the
		// order send never blocks.
		inflight := make(chan struct{}, len(ring))
		order := make(chan *verifySlot, len(ring))
		var wg sync.WaitGroup

		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for s := range jobs {
					stats.Verified.Add(1)
					s.res <- plan.Verify(s.id)
				}
			}()
		}

		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(jobs)
			defer close(order)
			cur := NewCursor(ds, plan, opts)
			defer cur.Stop()
			for n := 0; ; n++ {
				id, ok := cur.Next()
				if !ok {
					return
				}
				select {
				case inflight <- struct{}{}:
				case <-stop:
					return
				}
				s := &ring[n%len(ring)]
				s.id = id
				order <- s
				select {
				case jobs <- s:
				case <-stop:
					return
				}
			}
		}()

		defer wg.Wait()
		defer close(stop)
		for s := range order {
			select {
			case matched := <-s.res:
				id := s.id
				<-inflight
				if matched && !yield(id, nil) {
					return
				}
			case <-ctx.Done():
				yield(0, ctx.Err())
				return
			}
		}
		if err := ctx.Err(); err != nil {
			yield(0, err)
		}
	}
}

// StreamAnswersOpts is StreamAnswers with explicit pipeline options: it
// plans the query, then streams answers through the lazy producer →
// liveness filter → verifier composition.
func StreamAnswersOpts(ctx context.Context, m Method, ds *graph.Dataset, q *graph.Graph, opts StreamOptions) iter.Seq2[graph.ID, error] {
	return func(yield func(graph.ID, error) bool) {
		plan, err := NewPlan(ctx, m, ds, q)
		if err != nil {
			yield(0, fmt.Errorf("core: filtering with %s: %w", m.Name(), err))
			return
		}
		for id, err := range StreamPlan(ctx, ds, plan, opts) {
			if !yield(id, err) {
				return
			}
		}
	}
}
