package core

import (
	"iter"
	"slices"
	"sync/atomic"

	"repro/internal/graph"
)

// This file is the lazy side of the filter-and-verify pipeline: the query
// path decomposed into composable iterator stages —
//
//	candidate producer → liveness filter → verifier → consumer
//
// The producer is the plan's Chunks: candidate IDs in ascending order, in
// chunks, without materializing the full candidate set (posting-list
// intersections and table scans run inside the sequence). The liveness
// filter drops tombstoned slots as IDs flow past; a Cursor pulls both
// stages one ID at a time. The verifier proves what the consumer pulls, so
// the first answer costs one verification, not a full candidate scan, and a
// limit-N consumer does only the work it keeps: serially in StreamAnswers,
// in batches through VerifyCandidates in the engines' streams.

// PipelineStats counts one query's flow through the pipeline stages. Fields
// are atomics because the verifier stage may run in a worker pool; a stats
// struct may also be shared across the per-shard legs of a merged stream.
type PipelineStats struct {
	// Produced counts candidate IDs emitted by the producer stage (after
	// any resume-skip, before the liveness filter). A stream re-planned
	// after a mutation (engine.MergeStream) counts again the IDs a leg had
	// read past the stream's frontier: its next candidate and the dead IDs
	// before it.
	Produced atomic.Int64
	// Verified counts verifier invocations — the pipeline's unit of real
	// work, and what early termination is measured by.
	Verified atomic.Int64
	// FailedShards is QueryResult.FailedShards for a stream: a cluster
	// stream sets it before it ends; nil when the stream is complete.
	FailedShards []int
	// Candidates, when non-nil, collects the live candidates the stream
	// pulls, ascending: a merged stream appends each pulled batch, and a
	// cluster stream gathers its legs' candidates — the one-shot
	// response's candidate set, for callers that drain the stream.
	Candidates *graph.IDSet
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
	return l.ds.Alive(id)
}

// Cursor is a pull-side view of the producer and liveness-filter stages:
// Next returns live candidate IDs one at a time, in ascending order.
// Callers that interleave locking with consumption (the engines' chunked-
// locking streams) drive a Cursor directly; Stop releases the underlying
// chunk sequence and is idempotent. A Cursor is not safe for concurrent
// use.
type Cursor struct {
	liveStage
	next    func() (graph.IDSet, bool) // nil: the chunks were drained up front
	stop    func()
	chunk   graph.IDSet
	pos     int
	stopped bool
	owned   bool // chunk is the cursor's own copy (DrainCursor past one chunk)
}

// NewCursor composes the producer and liveness stages over a plan,
// counting into stats (nil = none), pulling chunks from the plan only as
// they are consumed. The producer emits only IDs >= skipTo — the resume
// primitive behind the cluster's per-shard frontiers. The caller must Stop
// the cursor when done (Next reaching the end stops it implicitly).
func NewCursor(ds *graph.Dataset, plan QueryPlan, stats *PipelineStats, skipTo graph.ID) *Cursor {
	if stats == nil {
		stats = &PipelineStats{}
	}
	next, stop := iter.Pull(plan.Chunks())
	return &Cursor{liveStage: liveStage{ds: ds, stats: stats, skipTo: skipTo}, next: next, stop: stop}
}

// DrainCursor is NewCursor with the producer run to its end up front, by
// push: the plan's chunks are ranged once, without the coroutine a pull
// needs, and Next serves their IDs through the liveness filter. It is the
// cursor of a consumer that pulls every candidate anyway (the sharded
// one-shot query); a stream that may stop early keeps NewCursor. The first
// chunk is held as yielded (producers never write a chunk after yielding
// it) and later ones are copied behind it.
func DrainCursor(ds *graph.Dataset, plan QueryPlan, stats *PipelineStats, skipTo graph.ID) *Cursor {
	if stats == nil {
		stats = &PipelineStats{}
	}
	// The loop body is a closure: state it keeps lives in c, allocated
	// anyway, rather than in locals it would move to the heap.
	c := &Cursor{liveStage: liveStage{ds: ds, stats: stats, skipTo: skipTo}}
	for chunk := range plan.Chunks() {
		switch n := len(chunk); {
		case n == 0 || chunk[n-1] < skipTo: // wholly below the resume frontier
		case c.chunk == nil:
			c.chunk = chunk
		default:
			if !c.owned {
				c.chunk, c.owned = slices.Clip(c.chunk), true
			}
			c.chunk = append(c.chunk, chunk...)
		}
	}
	return c
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
		if c.next == nil {
			c.Stop()
			return 0, false
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

// Buffered returns how many produced IDs the cursor holds and has not
// served yet, dead ones included: for a DrainCursor, every ID it has left.
func (c *Cursor) Buffered() int { return len(c.chunk) - c.pos }

// Stop releases the chunk sequence. Safe to call more than once.
func (c *Cursor) Stop() {
	if c.stopped {
		return
	}
	c.stopped = true
	c.chunk = nil
	if c.stop != nil {
		c.stop()
	}
}
