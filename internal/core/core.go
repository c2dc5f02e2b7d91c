// Package core defines the common contract of the six indexed subgraph
// query processing methods and the filter-and-verify query pipeline wrapped
// around them. It is the primary public surface of the reproduction: all
// methods are built, queried, and measured through this package.
//
// All methods operate in the three stages described in §2.2 of the paper:
//
//  1. index construction — features are extracted from the dataset graphs
//     and organized in a method-specific structure;
//  2. filtering — the query graph's features are matched against the index,
//     producing a candidate set of graphs possibly containing the query;
//  3. verification — each candidate is tested for subgraph isomorphism
//     against the query (VF2 by default).
//
// Filtering may produce false positives but never false negatives: the
// answer set is always a subset of the candidate set.
package core

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"
	"sync"
	"time"

	"repro/internal/diskfmt"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/subiso"
)

// ErrNotBuilt is returned when querying a method before Build.
var ErrNotBuilt = errors.New("core: index not built")

// BuildStats reports on an index construction run.
type BuildStats struct {
	Elapsed   time.Duration
	SizeBytes int64 // estimated in-memory size of the index structure
	Features  int   // number of distinct features indexed (0 if n/a)
}

// Method is one indexed subgraph query processing method. Implementations
// are Grapes, GraphGrepSX, CT-Index, gIndex, Tree+Δ, and gCode.
//
// Build must be called exactly once before Candidates/Verify. Methods are
// safe for concurrent queries after Build unless documented otherwise
// (Tree+Δ mutates its index during query processing and serializes
// internally).
//
// Every method maintains its built index under dataset mutation: the two
// maintenance calls run under the owning engine's write lock, never
// concurrently with queries, so implementations need no synchronization
// beyond what their query path already has.
type Method interface {
	// Name returns the method's display name as used in the paper's figures.
	Name() string
	// Build constructs the index over ds. The context's deadline or
	// cancellation is honored at feature-extraction granularity: Build
	// returns ctx.Err() as soon as practical after cancellation, mirroring
	// the paper's 8-hour experiment kill switch.
	Build(ctx context.Context, ds *graph.Dataset) error
	// Candidates returns the candidate set for query q: the IDs of all
	// dataset graphs that pass the filtering stage. The result is sorted.
	Candidates(q *graph.Graph) (graph.IDSet, error)
	// SizeBytes estimates the in-memory size of the built index.
	SizeBytes() int64
	// AddGraphToIndex folds g — already added to the dataset the index
	// serves, carrying its assigned ID — into the index. On error the index
	// is unchanged.
	AddGraphToIndex(g *graph.Graph) error
	// RemoveGraphFromIndex drops graph id from the index. The query
	// pipeline filters every candidate set against the dataset's
	// tombstones, so a removal the index missed costs space and filtering
	// power, never an answer.
	RemoveGraphFromIndex(id graph.ID) error
}

// Verifier is implemented by methods that verify with their own variant of
// the matcher (CT-Index's tuned ordering and pruning). CompileQuery runs
// once per query plan; the pipeline then tests each candidate graph against
// the compiled query, so nothing query-dependent is redone per candidate.
type Verifier interface {
	CompileQuery(q *graph.Graph) *subiso.Prepared
}

// Planner is implemented by methods whose verification depends on
// query-scoped filtering state (Grapes uses the matched path locations to
// verify against individual connected components). PlanQuery subsumes
// Candidates for such methods; the plan verifies against the graphs of ds,
// the dataset the query runs over, so the index itself holds no dataset.
type Planner interface {
	PlanQuery(ds *graph.Dataset, q *graph.Graph) (QueryPlan, error)
}

// QueryPlan carries one query's filtering outcome plus the state needed to
// verify its candidates. It is the pipeline's uniform execution unit: every
// method — whether it implements Planner, Verifier, or only the base Method
// contract — is adapted into a QueryPlan by NewPlan, and the Processor only
// ever executes plans.
type QueryPlan interface {
	// Candidates returns the sorted candidate set.
	Candidates() graph.IDSet
	// Verify tests the query against candidate id. VerifyCandidates calls
	// Verify concurrently for distinct ids when given more than one worker;
	// implementations must tolerate that (methods that mutate shared state
	// serialize internally).
	Verify(id graph.ID) bool
}

// genericPlan adapts a method without its own Planner into a QueryPlan: a
// candidate set — materialized, or produced lazily in chunks when the
// method implements CandidateChunker — plus the query compiled once, run
// against each candidate's whole graph under the plan's context.
type genericPlan struct {
	cands  graph.IDSet
	chunks iter.Seq[graph.IDSet]
	ctx    context.Context
	ds     *graph.Dataset
	prep   *subiso.Prepared
}

func (p *genericPlan) Candidates() graph.IDSet {
	if p.cands == nil && p.chunks != nil {
		// Materialize once for one-shot consumers; streamed consumers pull
		// Chunks() and never pay this.
		p.cands = graph.IDSet{}
		for chunk := range p.chunks {
			p.cands = append(p.cands, chunk...)
		}
	}
	return p.cands
}

func (p *genericPlan) Verify(id graph.ID) bool {
	g := p.ds.Graph(id)
	return g != nil && p.prep.Exists(p.ctx, g)
}

func (p *genericPlan) Chunks() iter.Seq[graph.IDSet] {
	if p.chunks != nil {
		return p.chunks
	}
	return func(yield func(graph.IDSet) bool) {
		if len(p.cands) > 0 {
			yield(p.cands)
		}
	}
}

// NewPlan adapts any method into a QueryPlan for one query, regardless of
// which optional interfaces it implements: a Planner supplies its own plan
// (filtering state reused during verification); everything else pairs its
// candidate set with the query compiled once — by the method when it is a
// Verifier, as plain VF2 otherwise — and run against whole dataset graphs.
// The context bounds those runs.
func NewPlan(ctx context.Context, m Method, ds *graph.Dataset, q *graph.Graph) (QueryPlan, error) {
	if planner, ok := m.(Planner); ok {
		return planner.PlanQuery(ds, q)
	}
	var cands graph.IDSet
	var chunks iter.Seq[graph.IDSet]
	if chunker, ok := m.(CandidateChunker); ok {
		var err error
		if chunks, err = chunker.CandidateChunks(q); err != nil {
			return nil, err
		}
	} else {
		var err error
		if cands, err = m.Candidates(q); err != nil {
			return nil, err
		}
	}
	for _, id := range cands {
		// Tombstoned candidates are legal (a stale posting the liveness
		// filter drops before verification); an ID past the dataset's
		// slots means the index was built over a different dataset. Chunked
		// producers are validated lazily instead: the liveness filter drops
		// out-of-range IDs and Verify treats them as non-matches.
		if int(id) < 0 || int(id) >= ds.Len() {
			return nil, fmt.Errorf("core: candidate %d not in dataset", id)
		}
	}
	var prep *subiso.Prepared
	if verifier, ok := m.(Verifier); ok {
		prep = verifier.CompileQuery(q)
	} else {
		prep = subiso.Compile(q, subiso.Options{})
	}
	return &genericPlan{cands: cands, chunks: chunks, ctx: ctx, ds: ds, prep: prep}, nil
}

// Persistable is implemented by methods whose built index round-trips
// through the repro-index container (package diskfmt), so an expensive
// build can be paid once: SaveIndex lays the index out as checksummed
// sections, LoadIndex restores from a parsed container. LoadIndex must be
// given the same dataset the index was built over (the index stores graph
// IDs and, for some methods, vertex IDs into it); implementations validate
// everything they decode and reject what the dataset cannot match.
//
// LoadIndex must honor the method's storage mode (StorageSelector): under
// StorageHeap it decodes eagerly and must not retain the reader; under
// StorageMmap it may alias the reader's mapped sections for the life of
// the index, copying anything it materializes into the heap.
type Persistable interface {
	SaveIndex(w *diskfmt.Writer) error
	LoadIndex(r *diskfmt.Reader, ds *graph.Dataset) error
}

// Storage modes of a restored index. Heap decodes the whole index into
// memory at load; Mmap keeps the container mapped and materializes
// postings, trie nodes, and codes lazily on first touch.
const (
	StorageHeap = "heap"
	StorageMmap = "mmap"
)

// StorageMode normalizes a configured storage option: anything but
// StorageMmap is StorageHeap.
func StorageMode(configured string) string {
	if configured == StorageMmap {
		return StorageMmap
	}
	return StorageHeap
}

// StorageSelector reports a method's configured storage mode (StorageHeap
// or StorageMmap). Methods without it are heap-only.
type StorageSelector interface {
	StorageMode() string
}

// Warmable is implemented by indexes that can pre-fault their hot
// sections after a lazy open. The engine calls WarmIndex on a background
// goroutine and keeps /readyz at 503 until it returns, so load balancers
// don't route to a cold mmap-backed node. WarmIndex must be safe to run
// concurrently with queries and must be a no-op for heap-resident
// indexes. It never runs concurrently with a mutation: the engine holds its
// read lock across WarmIndex, and every mutation (AddGraphToIndex or
// RemoveGraphFromIndex) runs under its write lock, so a mutation may
// release or rewrite whatever WarmIndex reads.
type Warmable interface {
	WarmIndex()
}

// QueryResult captures one query's outcome and per-stage accounting.
type QueryResult struct {
	Candidates graph.IDSet
	Answers    graph.IDSet
	FilterTime time.Duration
	VerifyTime time.Duration
	// Method names the concrete method that served the query (the method's
	// display name, e.g. "Grapes"). Layers that choose between methods —
	// the adaptive router — or replay stored results — the result cache —
	// preserve it, so routing decisions stay observable end to end.
	Method string
	// Cached marks a result served from a serving-layer result cache
	// instead of computed by the pipeline. FilterTime then holds the
	// canonical-key computation plus lookup latency and VerifyTime is
	// zero, so TotalTime() remains the query's real served latency.
	Cached bool
	// Produced counts candidate IDs the producer stage emitted (before the
	// liveness filter — len(Candidates) is the count after it); Verified
	// counts verifier invocations. For a one-shot query Verified equals
	// len(Candidates); a limited or early-terminated stream verifies fewer,
	// which is what the early-termination tests assert through these
	// counters.
	Produced int
	Verified int
	// FailedShards lists, ascending, the cluster shards that had no
	// reachable owner: their graphs are absent from Candidates and Answers.
	// Nil for every complete answer, which is every in-process answer.
	FailedShards []int
}

// FalsePositiveRatio returns (|C| - |A|) / |C| for this query, the
// per-query term of equation (3) of the paper. Queries with an empty
// candidate set contribute 0.
func (r *QueryResult) FalsePositiveRatio() float64 {
	if len(r.Candidates) == 0 {
		return 0
	}
	return float64(len(r.Candidates)-len(r.Answers)) / float64(len(r.Candidates))
}

// TotalTime returns filtering plus verification time.
func (r *QueryResult) TotalTime() time.Duration { return r.FilterTime + r.VerifyTime }

// Processor runs the filter-and-verify pipeline of a built Method over a
// dataset. Every query follows the same plan-based path: NewPlan adapts the
// method into a QueryPlan, then the plan's candidates are verified — either
// serially or, when VerifyWorkers > 1, by a context-aware worker pool that
// preserves the sorted answer order.
type Processor struct {
	Method Method
	DS     *graph.Dataset
	// VerifyWorkers is the per-query verification parallelism. Values <= 1
	// verify serially (the paper's measurement mode); larger values fan
	// candidates out across a worker pool.
	VerifyWorkers int
}

// NewProcessor returns a Processor for a built method over ds.
func NewProcessor(m Method, ds *graph.Dataset) *Processor {
	return &Processor{Method: m, DS: ds}
}

// Query processes one subgraph query end to end.
func (p *Processor) Query(q *graph.Graph) (*QueryResult, error) {
	return p.QueryCtx(context.Background(), q)
}

// QueryCtx is Query with cancellation applied to both stages. When the
// context carries an active obs span, each pipeline stage records a child
// span with its duration and candidate/verified counts — the per-query
// trace the slow-query log and gquery -trace render.
func (p *Processor) QueryCtx(ctx context.Context, q *graph.Graph) (*QueryResult, error) {
	res := &QueryResult{Method: p.Method.Name()}
	t0 := time.Now()
	cctx, csp := obs.StartSpan(ctx, "candidate-chunk")
	plan, err := NewPlan(cctx, p.Method, p.DS, q)
	if err != nil {
		csp.End()
		return nil, fmt.Errorf("core: filtering with %s: %w", p.Method.Name(), err)
	}
	csp.End()
	// Tombstoned graphs never surface: any posting a removal left behind is
	// dropped here, before verification. The one-shot path ranges over the
	// producer's chunks and applies the same liveness step
	// (liveStage.admit) the streamed path's Cursor applies lazily, so the
	// two can never disagree on what reaches the verifier.
	_, fsp := obs.StartSpan(ctx, "tombstone-filter")
	var stats PipelineStats
	live := liveStage{ds: p.DS, stats: &stats}
	var cands graph.IDSet
	for chunk := range PlanChunks(plan) {
		cands = slices.Grow(cands, len(chunk))
		for _, id := range chunk {
			if live.admit(id) {
				cands = append(cands, id)
			}
		}
	}
	res.Candidates = cands
	res.Produced = int(stats.Produced.Load())
	res.Verified = len(cands)
	res.FilterTime = time.Since(t0)
	fsp.Attr("produced", res.Produced)
	fsp.Attr("live", len(cands))
	fsp.End()

	t1 := time.Now()
	vctx, vsp := obs.StartSpan(ctx, "verify")
	answers, err := VerifyCandidates(vctx, plan, res.Candidates, p.VerifyWorkers)
	if err != nil {
		vsp.Cancel()
		return nil, err
	}
	res.Answers = answers
	res.VerifyTime = time.Since(t1)
	vsp.Attr("verified", res.Verified)
	vsp.Attr("answers", len(answers))
	vsp.End()
	return res, nil
}

// VerifyPlan runs a plan's verification stage over its own candidate set
// and returns the sorted answer set. Callers that filtered the candidates
// first (the pipeline's tombstone drop) use VerifyCandidates directly.
func VerifyPlan(ctx context.Context, plan QueryPlan, workers int) (graph.IDSet, error) {
	return VerifyCandidates(ctx, plan, plan.Candidates(), workers)
}

// VerifyCandidates verifies cands (a subset of the plan's candidates)
// and returns the sorted answer set. With workers <= 1 candidates are
// verified in order with a cancellation check between candidates;
// otherwise they are fanned out across a worker pool and the answers
// reassembled in candidate order.
func VerifyCandidates(ctx context.Context, plan QueryPlan, cands graph.IDSet, workers int) (graph.IDSet, error) {
	if workers > len(cands) {
		workers = len(cands)
	}
	if workers <= 1 {
		var out graph.IDSet
		for i, id := range cands {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if plan.Verify(id) {
				out = appendAnswer(out, cands, i)
			}
		}
		return out, nil
	}

	matched := make([]bool, len(cands))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				matched[i] = plan.Verify(cands[i])
			}
		}()
	}
feed:
	for i := range cands {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	// Any cancellation voids the parallel result, even one arriving after
	// the last candidate was handed out: ctx-aware verifiers (the VF2
	// fallback) abort early with a false negative when cancelled, so a
	// result that overlapped a cancellation cannot be trusted.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var out graph.IDSet
	for i, ok := range matched {
		if ok {
			out = appendAnswer(out, cands, i)
		}
	}
	return out, nil
}

// appendAnswer appends cands[i] to out, sizing out on the first answer for
// the candidates still to come (an empty answer set stays nil).
func appendAnswer(out, cands graph.IDSet, i int) graph.IDSet {
	if out == nil {
		out = make(graph.IDSet, 0, len(cands)-i)
	}
	return append(out, cands[i])
}

// StreamAnswers processes one query against a built method and yields
// matching graph IDs as verification confirms them, in candidate (ascending
// ID) order, without materializing the answer or candidate sets: candidates
// are pulled through the lazy producer → liveness filter → verifier
// composition (see pipeline.go) and verified serially, so the first answer
// is yielded after one verification. A filtering failure or context
// cancellation is yielded once as a non-nil error, then the sequence ends.
func StreamAnswers(ctx context.Context, m Method, ds *graph.Dataset, q *graph.Graph) iter.Seq2[graph.ID, error] {
	return func(yield func(graph.ID, error) bool) {
		plan, err := NewPlan(ctx, m, ds, q)
		if err != nil {
			yield(0, fmt.Errorf("core: filtering with %s: %w", m.Name(), err))
			return
		}
		cur := NewCursor(ds, plan, nil, 0)
		defer cur.Stop()
		for id, ok := cur.Next(); ok; id, ok = cur.Next() {
			if err := ctx.Err(); err != nil {
				yield(0, err)
				return
			}
			if plan.Verify(id) && !yield(id, nil) {
				return
			}
		}
	}
}

// BruteForceAnswers returns the exact answer set by running VF2 against
// every graph in the dataset — the "naive method" of the paper's
// introduction, used as ground truth in tests and as the no-index baseline
// in benchmarks.
func BruteForceAnswers(ctx context.Context, ds *graph.Dataset, q *graph.Graph) (graph.IDSet, error) {
	var out graph.IDSet
	prep := subiso.Compile(q, subiso.Options{})
	for _, g := range ds.Graphs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !ds.Alive(g.ID()) {
			continue
		}
		if prep.Exists(ctx, g) {
			out = append(out, g.ID())
		}
	}
	return out, nil
}

// BuildTimed runs Build and returns its stats.
func BuildTimed(ctx context.Context, m Method, ds *graph.Dataset) (BuildStats, error) {
	t0 := time.Now()
	err := m.Build(ctx, ds)
	st := BuildStats{Elapsed: time.Since(t0)}
	if err != nil {
		return st, err
	}
	st.SizeBytes = m.SizeBytes()
	return st, nil
}
