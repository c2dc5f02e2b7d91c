package engine

import (
	"context"
	"fmt"
	"iter"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

// streamQuantum is the maximum verifications per lock hold in a
// chunked-locking stream. The quantum starts at 1 — the first answer is
// yielded after a single verification — and doubles per round up to this
// cap, amortizing lock traffic on long streams while keeping the writer
// wait bounded.
const streamQuantum = 64

// merge is the one query runner behind every query but the flat one-shot
// (Processor.QueryCtx): a k-way merge over its legs' candidate cursors,
// smallest parent id first. A leg is a Shard; a flat engine is one leg
// whose ids are parent ids. The merge verifies a pulled batch candidate by
// its leg's plan, so core.VerifyCandidates proves the batch with the
// owner's whole verify budget.
type merge struct {
	heads   []mergeHead
	stats   *core.PipelineStats
	workers int
	// cands is the pulled batch, ascending parent ids; from[i] is where
	// cands[i] came from.
	cands graph.IDSet
	from  []pulled
}

// mergeHead is one leg's cursor, nil once the leg ran out (a cursor run to
// its end stops itself), and its current candidate. epoch is the leg's
// dataset epoch when the plan was built: a plan reads its method's index
// lazily, so it is valid only while that epoch holds.
type mergeHead struct {
	plan          core.QueryPlan
	leg           *Shard
	cur           *core.Cursor
	epoch         uint64
	local, global graph.ID
}

// pulled is a batch candidate's leg and local id.
type pulled struct {
	h     *mergeHead
	local graph.ID
}

func (h *mergeHead) advance() {
	id, ok := h.cur.Next()
	if !ok {
		h.cur = nil
		return
	}
	h.local, h.global = id, id
	if !h.leg.identity {
		h.global = h.leg.global[id]
	}
}

// analyze is q's analysis for every leg, made once by the first non-empty
// leg's method: the legs are instances of one spec, so each probes it, and
// the query-only work (feature extraction, the matcher's compilation) runs
// once per query, not once per leg. CT-Index's analysis orders its matcher
// by that leg's label frequencies, so that shard's statistics order the
// search on every leg: a search's speed changes, never its answer. Nil when
// every leg is empty.
func analyze(legs []*Shard, q *graph.Graph) core.Analysis {
	for _, sh := range legs {
		if !sh.empty() {
			return sh.eng.method.Analyze(q)
		}
	}
	return nil
}

// openMerge probes analysis a over every non-empty leg, fanout legs at a
// time; start then opens the legs' cursors. The caller holds the owner's
// read lock, which serializes every leg's mutations, so the legs' methods
// are read without their engines' locks: a Sharded engine's legs share its
// Store, and read-locking it again could deadlock behind a waiting writer.
func openMerge(ctx context.Context, legs []*Shard, a core.Analysis, stats *core.PipelineStats, fanout, workers int) (*merge, error) {
	plans := make([]core.QueryPlan, len(legs))
	// The plans outlive the fan-out pool, so they capture the caller's ctx
	// (cancellation still reaches the verifiers through it), not the pool's
	// internally cancelled one.
	err := ForEachBounded(ctx, len(legs), fanout, func(_ context.Context, i int) error {
		sh := legs[i]
		if sh.empty() {
			return nil
		}
		var err error
		if plans[i], err = sh.eng.method.Probe(ctx, sh.eng.ds, a); err != nil {
			return fmt.Errorf("core: filtering with %s: %w", sh.eng.method.Name(), err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// heads never grows past len(legs), so the batch's head pointers stay
	// valid.
	m := &merge{heads: make([]mergeHead, 0, len(legs)), stats: stats, workers: workers}
	for i, sh := range legs {
		if plans[i] != nil {
			m.heads = append(m.heads, mergeHead{plan: plans[i], leg: sh, epoch: sh.eng.ds.Epoch()})
		}
	}
	return m, nil
}

// start opens every leg's cursor strictly after parent id after (-1: from
// the start) with open: core.NewCursor pulls a leg's chunks as the merge
// consumes them, core.DrainCursor produces them all at once.
func (m *merge) start(after graph.ID, open func(*graph.Dataset, core.QueryPlan, *core.PipelineStats, graph.ID) *core.Cursor) {
	for i := range m.heads {
		h := &m.heads[i]
		h.cur = open(h.leg.eng.ds, h.plan, m.stats, graph.ID(h.leg.firstAfter(after)))
		h.advance()
	}
}

// reserve sizes the batch for every id the legs' cursors still hold, so a
// drain pulls without growing it.
func (m *merge) reserve() {
	n := 0
	for i := range m.heads {
		if h := &m.heads[i]; h.cur != nil {
			n += 1 + h.cur.Buffered()
		}
	}
	if n > 0 {
		m.cands, m.from = make(graph.IDSet, 0, n), make([]pulled, 0, n)
	}
}

// moved reports whether a mutation landed on a leg with cursor left since
// its plan was built. Call it under the owner's read lock.
func (m *merge) moved() bool {
	for i := range m.heads {
		if h := &m.heads[i]; h.cur != nil && h.leg.eng.ds.Epoch() != h.epoch {
			return true
		}
	}
	return false
}

// stop stops every leg's cursor.
func (m *merge) stop() {
	for i := range m.heads {
		if h := &m.heads[i]; h.cur != nil {
			h.cur.Stop()
		}
	}
}

// pull appends candidates to the batch until it holds n (n < 0: until the
// legs run out) and reports whether the legs ran out.
func (m *merge) pull(n int) bool {
	for n < 0 || len(m.cands) < n {
		var best *mergeHead
		for i := range m.heads {
			if h := &m.heads[i]; h.cur != nil && (best == nil || h.global < best.global) {
				best = h
			}
		}
		if best == nil {
			return true
		}
		m.cands = append(m.cands, best.global)
		m.from = append(m.from, pulled{best, best.local})
		best.advance()
	}
	return false
}

// verify proves the batch and returns its answers, ascending.
func (m *merge) verify(ctx context.Context) (graph.IDSet, error) {
	m.stats.Verified.Add(int64(len(m.cands)))
	return core.VerifyCandidates(ctx, m, m.cands, m.workers)
}

// Verify tests batch candidate id by its leg's plan.
func (m *merge) Verify(id graph.ID) bool {
	i, _ := slices.BinarySearch(m.cands, id)
	p := m.from[i]
	return p.h.plan.Verify(p.local)
}

// Drain is the one-shot query of Sharded and cluster.Node: the merge run to
// completion under the owner's read lock, which the caller holds. q is
// analysed once and every leg probes that analysis; each leg's chunks are
// produced by push (core.DrainCursor), with no coroutine, since every
// candidate is pulled anyway. Candidates is every live candidate pulled,
// ascending parent ids, and Answers the verified subset. FilterTime is
// planning plus chunk production and the pull, VerifyTime the rest, so
// TotalTime is the wall time; the stage spans are Processor.QueryCtx's.
func Drain(ctx context.Context, legs []*Shard, q *graph.Graph, fanout, workers int, method string) (*core.QueryResult, error) {
	var stats core.PipelineStats
	t0 := time.Now()
	cctx, csp := obs.StartSpan(ctx, "candidate-chunk")
	m, err := openMerge(cctx, legs, analyze(legs, q), &stats, fanout, workers)
	csp.End()
	if err != nil {
		return nil, err
	}
	// Pulling every candidate runs each cursor to its end, which stops it.
	_, fsp := obs.StartSpan(ctx, "tombstone-filter")
	m.start(-1, core.DrainCursor)
	m.reserve()
	m.pull(-1)
	res := &core.QueryResult{Method: method, Candidates: m.cands, Produced: int(stats.Produced.Load()),
		Verified: len(m.cands), FilterTime: time.Since(t0)}
	fsp.Attr("produced", res.Produced)
	fsp.Attr("live", len(m.cands))
	fsp.End()

	t1 := time.Now()
	vctx, vsp := obs.StartSpan(ctx, "verify")
	if res.Answers, err = m.verify(vctx); err != nil {
		vsp.Cancel()
		return nil, err
	}
	res.VerifyTime = time.Since(t1)
	vsp.Attr("verified", res.Verified)
	vsp.Attr("answers", len(res.Answers))
	vsp.End()
	return res, nil
}

// MergeStream streams q's answers through the merge in ascending parent
// ids, with chunked locking: open (under mu's read lock) returns the legs;
// each round pulls up to a quantum of candidates and verifies them under
// the lock, which is released while the answers are yielded. Re-locked, a
// stream whose legs moved (a mutation landed on one) stops its cursors and
// re-plans the same legs strictly after its frontier, the last parent id
// it pulled and verified; the re-plan probes the legs again with the
// analysis the stream made when it opened. Graphs are immutable and ids
// never reused, so the stream yields ids strictly ascending, each once;
// every graph live for the stream's whole life that contains q; and only
// graphs that contain q and were live at some moment of it. Legs start
// strictly after parent id after (-1: from the start), and stats (nil =
// none) accumulates every leg's counters and, when stats.Candidates is
// set, the pulled candidates. A filtering failure or context cancellation
// is yielded once as an error.
func MergeStream(ctx context.Context, mu *sync.RWMutex, stats *core.PipelineStats, q *graph.Graph, after graph.ID, fanout, workers int,
	open func() ([]*Shard, error)) iter.Seq2[graph.ID, error] {
	if stats == nil {
		stats = new(core.PipelineStats)
	}
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
		legs, err := open()
		frontier := after
		a := analyze(legs, q)
		var m *merge // nil until planned
		defer func() {
			if m != nil {
				m.stop()
			}
		}()
		for quantum := 1; ; quantum = min(2*quantum, streamQuantum) {
			if err == nil && (m == nil || m.moved()) {
				if m != nil {
					m.stop()
				}
				if m, err = openMerge(ctx, legs, a, stats, fanout, workers); err == nil {
					m.start(frontier, core.NewCursor)
				}
			}
			if err != nil {
				unlock()
				yield(0, err)
				return
			}
			m.cands, m.from = m.cands[:0], m.from[:0]
			done := m.pull(quantum)
			if n := len(m.cands); n > 0 {
				frontier = m.cands[n-1]
			}
			if stats.Candidates != nil {
				*stats.Candidates = append(*stats.Candidates, m.cands...)
			}
			out, err := m.verify(ctx)
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
		}
	}
}

// StreamStats implements StatsStreamer: MergeStream over the engine as its
// one leg, yielding answers in ascending ID order as verification confirms
// them — the first after one verification — with no lock held across a
// yield; a mutation landing mid-stream re-plans it after its frontier.
func (e *Engine) StreamStats(ctx context.Context, q *graph.Graph, stats *core.PipelineStats) iter.Seq2[graph.ID, error] {
	return MergeStream(ctx, &e.root().mu, stats, q, -1, 1, e.verifyWorkers, func() ([]*Shard, error) {
		return []*Shard{{eng: e, identity: true}}, nil
	})
}
