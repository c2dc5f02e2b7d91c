package engine

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
)

// ErrStreamStale is wrapped into the terminal error of a stream whose
// index moved mid-iteration. Streams use chunked locking: the owner's read
// lock is released before every yield and re-acquired after, so a slow
// streaming consumer never blocks mutations — the price is that a mutation
// landing inside that window invalidates the plan's view of the index, and
// the stream aborts with this error instead of silently mixing two index
// generations. The consumer restarts the stream (the cluster resumes after
// the frontier it already holds).
var ErrStreamStale = errors.New("dataset mutated during stream; restart the stream")

// streamQuantum is the maximum verifications per lock hold in a
// chunked-locking stream. The quantum starts at 1 — the first answer is
// yielded after a single verification — and doubles per round up to this
// cap, amortizing lock traffic on long streams while keeping the writer
// wait bounded.
const streamQuantum = 64

// round is one lock hold of a chunked stream: verify up to quantum
// candidates and return the matches, in ascending ID order, and whether the
// candidates ran out. An error ends the stream once the matches are
// yielded.
type round func(quantum int) (graph.IDSet, bool, error)

// chunkedStream is the chunked-locking loop every stream runs. open is
// called under mu's read lock: it plans the query and returns the round,
// the stale check, and a cleanup. Every round runs under the lock; the lock
// is released before the round's matches are yielded and re-acquired
// after, and stale — called under the re-acquired lock — ends the stream
// with its error when the index moved in between.
func chunkedStream(mu *sync.RWMutex, open func() (round, func() error, func(), error)) iter.Seq2[graph.ID, error] {
	return func(yield func(graph.ID, error) bool) {
		mu.RLock()
		locked := true
		unlock := func() {
			if locked {
				mu.RUnlock()
				locked = false
			}
		}
		defer unlock()
		step, stale, stop, err := open()
		if err != nil {
			unlock()
			yield(0, err)
			return
		}
		defer stop()
		for quantum := 1; ; quantum = min(2*quantum, streamQuantum) {
			out, done, err := step(quantum)
			unlock()
			for _, id := range out {
				if !yield(id, nil) {
					return
				}
			}
			if err != nil {
				yield(0, err)
				return
			}
			if done {
				return
			}
			mu.RLock()
			locked = true
			if err := stale(); err != nil {
				unlock()
				yield(0, err)
				return
			}
		}
	}
}

// epochStale is the stale check of a stream planned over ds now: it fails
// once the dataset epoch has moved. Call it under the owner's read lock.
func epochStale(ds *graph.Dataset) func() error {
	epoch := ds.Epoch()
	return func() error {
		if now := ds.Epoch(); now != epoch {
			return fmt.Errorf("engine: %w (epoch %d -> %d)", ErrStreamStale, epoch, now)
		}
		return nil
	}
}

// StreamStats implements StatsStreamer: one query's answers, yielded as
// verification confirms them, in candidate (ascending ID) order, without
// materializing the answer or candidate sets — candidates are pulled
// lazily through the chunked producer, so the first answer is yielded after
// one verification. Each round verifies its quantum through
// core.VerifyCandidates with the engine's verify workers. A filtering
// failure or context cancellation is yielded once as a non-nil error, then
// the sequence ends. The read lock is never held across a yield, so a slow
// consumer never stalls mutations; one landing mid-stream aborts it with
// an ErrStreamStale-wrapped error.
func (e *Engine) StreamStats(ctx context.Context, q *graph.Graph, stats *core.PipelineStats) iter.Seq2[graph.ID, error] {
	if stats == nil {
		stats = new(core.PipelineStats)
	}
	return chunkedStream(&e.mu, func() (round, func() error, func(), error) {
		plan, err := core.NewPlan(ctx, e.method, e.ds, q)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("core: filtering with %s: %w", e.method.Name(), err)
		}
		cur := core.NewCursor(e.ds, plan, core.StreamOptions{Stats: stats})
		batch := make(graph.IDSet, 0, streamQuantum)
		step := func(quantum int) (graph.IDSet, bool, error) {
			batch = batch[:0]
			done := false
			for len(batch) < quantum {
				id, ok := cur.Next()
				if !ok {
					done = true
					break
				}
				batch = append(batch, id)
			}
			matched, err := core.VerifyCandidates(ctx, plan, batch, e.verifyWorkers)
			stats.Verified.Add(int64(len(batch)))
			return matched, done, err
		}
		return step, epochStale(e.ds), cur.Stop, nil
	})
}

// mergeHead is one shard's cursor in MergeStream and its current
// candidate, in shard-local and parent ids.
type mergeHead struct {
	plan          core.QueryPlan
	ids           []graph.ID // the shard's local -> parent map
	cur           *core.Cursor
	local, global graph.ID
	done          bool
}

func (h *mergeHead) advance() {
	id, ok := h.cur.Next()
	if !ok {
		h.done = true
		return
	}
	h.local, h.global = id, h.ids[id]
}

// MergeStream is the k-way merge over shard cursors that Sharded and
// cluster.Node stream q through. open runs under mu's read lock and returns
// the shards to merge and the stale check; every non-empty shard is then
// planned, its cursor resuming strictly after parent id after (-1: from
// the start). Each round verifies the globally smallest candidate head, up
// to quantum times, with chunkedStream's locking; the answers come out in
// ascending parent id order. stats (nil = none) accumulates every shard's
// counters.
func MergeStream(ctx context.Context, mu *sync.RWMutex, stats *core.PipelineStats, q *graph.Graph, after graph.ID,
	open func() ([]*Shard, func() error, error)) iter.Seq2[graph.ID, error] {
	if stats == nil {
		stats = new(core.PipelineStats)
	}
	return chunkedStream(mu, func() (round, func() error, func(), error) {
		shards, stale, err := open()
		if err != nil {
			return nil, nil, nil, err
		}
		plans := make([]core.QueryPlan, len(shards))
		// The plans outlive the fan-out pool, so they must capture the
		// caller's ctx (cancellation still reaches the verifiers through
		// it), not the pool's internally cancelled one.
		err = ForEachBounded(ctx, len(shards), runtime.GOMAXPROCS(0), func(_ context.Context, i int) error {
			sh := shards[i]
			if sh.empty() {
				return nil
			}
			var err error
			plans[i], err = core.NewPlan(ctx, sh.eng.Method(), sh.eng.ds, q)
			return err
		})
		if err != nil {
			return nil, nil, nil, err
		}
		heads := make([]mergeHead, 0, len(shards))
		for i, sh := range shards {
			if plans[i] == nil {
				continue
			}
			skip := graph.ID(sh.firstAfter(after))
			h := mergeHead{plan: plans[i], ids: sh.global, cur: core.NewCursor(sh.eng.ds, plans[i], core.StreamOptions{Stats: stats, SkipTo: skip})}
			h.advance()
			heads = append(heads, h)
		}
		stop := func() {
			for i := range heads {
				heads[i].cur.Stop()
			}
		}
		out := make(graph.IDSet, 0, streamQuantum)
		step := func(quantum int) (graph.IDSet, bool, error) {
			out = out[:0]
			// Count verifications, not matches: the hold must stay bounded
			// even when nothing matches.
			for range quantum {
				var best *mergeHead
				for i := range heads {
					if h := &heads[i]; !h.done && (best == nil || h.global < best.global) {
						best = h
					}
				}
				if best == nil {
					return out, true, nil
				}
				if err := ctx.Err(); err != nil {
					return out, false, err
				}
				stats.Verified.Add(1)
				matched, id := best.plan.Verify(best.local), best.global
				best.advance()
				if matched {
					out = append(out, id)
				}
			}
			return out, false, nil
		}
		return step, stale, stop, nil
	})
}
