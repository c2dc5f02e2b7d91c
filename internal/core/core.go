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

// ErrForeignAnalysis is returned by Method.Probe given an analysis that a
// method of another kind made.
var ErrForeignAnalysis = errors.New("core: analysis made by another method")

// Analysis is one query's analysis by a method (Method.Analyze), opaque to
// all but the methods of the spec that made it. Each method's analysis is
// a pointer to what its planning allocated anyway, so splitting a plan in
// two costs no allocation.
type Analysis any

// Plan is q's plan by m over ds: m's analysis of q, probed against m's
// index — the flat query's one planning call.
func Plan(ctx context.Context, m Method, ds *graph.Dataset, q *graph.Graph) (QueryPlan, error) {
	return m.Probe(ctx, ds, m.Analyze(q))
}

// BuildStats reports on an index construction run.
type BuildStats struct {
	Elapsed   time.Duration
	SizeBytes int64 // estimated in-memory size of the index structure
}

// Method is one indexed subgraph query processing method. Implementations
// are Grapes, GraphGrepSX, CT-Index, gIndex, Tree+Δ, gCode, and the
// no-index scan.
//
// Build must be called exactly once before Probe. Methods are safe for
// concurrent queries after Build unless documented otherwise (Tree+Δ
// mutates its index during query processing and serializes internally).
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
	// Analyze is the query-only half of planning: everything a plan of q
	// needs that depends on q and the method's options alone, such as the
	// query's features and its compiled matcher. It reads no index, so one
	// analysis serves every index of the same spec (the legs of a sharded
	// query probe one analysis, concurrently); an analysis is read-only
	// once made. CT-Index is the one method whose analysis reads its
	// index's state: label frequencies that order its matcher, which
	// change a search's speed, never its answer.
	Analyze(q *graph.Graph) Analysis
	// Probe is the index half of planning: it runs the posting lookups for
	// analysis a against this index and returns the plan that produces the
	// query's candidates and verifies them against the graphs of ds, the
	// dataset the query runs over, under ctx. A method whose verification
	// reuses filtering state (Grapes's matched components) keeps that
	// state in its plan; the rest verify against whole graphs through
	// WholeGraphPlan. An analysis another method made is ErrForeignAnalysis.
	Probe(ctx context.Context, ds *graph.Dataset, a Analysis) (QueryPlan, error)
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

// QueryPlan is one query's filter and verify steps, the pipeline's one
// execution unit: the Processor, StreamAnswers and the engines' merged
// streams only ever execute plans.
type QueryPlan interface {
	// Chunks is the producer stage: the candidate set as a sequence of
	// chunks, each strictly ascending and starting above the last ID of
	// the one before, so chunks are disjoint and their concatenation is
	// the sorted candidate set. It may hold tombstoned or out-of-range
	// IDs: the liveness filter drops them. The per-graph scan or
	// intersection runs inside the sequence, so an early-terminated
	// consumer pays for the prefix it pulled. The sequence is
	// re-iterable, yielding the same IDs each time, and does no index
	// reads after its yield returns false, so a stopped stream is torn
	// down without synchronization. A yielded chunk is read-only and stays
	// valid: neither producer nor consumer writes it afterwards, so a
	// consumer may hold it while the sequence goes on (DrainCursor).
	Chunks() iter.Seq[graph.IDSet]
	// Verify tests the query against candidate id, false for an id no
	// live graph holds. VerifyCandidates calls Verify concurrently for
	// distinct ids when given more than one worker; implementations must
	// tolerate that (methods that mutate shared state serialize
	// internally). Verify honors the plan's context: a cancelled search
	// returns false, so a false that overlapped a cancellation is no
	// answer, and every caller reports the context's error instead.
	Verify(id graph.ID) bool
}

// wholeGraphPlan is WholeGraphPlan's plan.
type wholeGraphPlan struct {
	chunks iter.Seq[graph.IDSet]
	ctx    context.Context
	ds     *graph.Dataset
	prep   *subiso.Prepared
}

// WholeGraphPlan is the plan of a method that verifies against whole
// dataset graphs: its producer's chunks, plus the query compiled once
// (prep) and run under ctx against each candidate's graph in ds.
func WholeGraphPlan(ctx context.Context, ds *graph.Dataset, prep *subiso.Prepared, chunks iter.Seq[graph.IDSet]) QueryPlan {
	return &wholeGraphPlan{chunks: chunks, ctx: ctx, ds: ds, prep: prep}
}

func (p *wholeGraphPlan) Chunks() iter.Seq[graph.IDSet] { return p.chunks }

func (p *wholeGraphPlan) Verify(id graph.ID) bool {
	g := p.ds.Graph(id)
	return g != nil && p.prep.Exists(p.ctx, g)
}

// slotChunk is AllSlots' emission granularity: large enough to amortize
// the per-chunk overhead, small enough that an early-terminated stream
// materializes a sliver of the slot range.
const slotChunk = 1024

// AllSlots is the producer of a filter that rules nothing out: every slot
// ID in [0, n), ascending, in chunks, materializing nothing up front.
func AllSlots(n int) iter.Seq[graph.IDSet] {
	return func(yield func(graph.IDSet) bool) {
		for lo := 0; lo < n; lo += slotChunk {
			hi := min(lo+slotChunk, n)
			chunk := make(graph.IDSet, 0, hi-lo)
			for id := lo; id < hi; id++ {
				chunk = append(chunk, graph.ID(id))
			}
			if !yield(chunk) {
				return
			}
		}
	}
}

// DrainedPlan is a method's plan with its candidate set drained on demand,
// for tests and measurement harnesses that want the filter's output as one
// set. The query pipeline never drains a plan: it pulls Chunks.
type DrainedPlan struct{ QueryPlan }

// Candidates drains Chunks into the sorted candidate set.
func (p DrainedPlan) Candidates() graph.IDSet {
	cands := graph.IDSet{}
	for chunk := range p.Chunks() {
		cands = append(cands, chunk...)
	}
	return cands
}

// NewPlan is Plan with the plan's candidate set drainable.
func NewPlan(ctx context.Context, m Method, ds *graph.Dataset, q *graph.Graph) (DrainedPlan, error) {
	plan, err := Plan(ctx, m, ds, q)
	return DrainedPlan{plan}, err
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
// dataset. Every query follows the same plan-based path: the method plans
// it, then the plan's live candidates are verified — either serially or,
// when VerifyWorkers > 1, by a context-aware worker pool that preserves the
// sorted answer order.
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
	plan, err := Plan(cctx, p.Method, p.DS, q)
	if err != nil {
		csp.End()
		return nil, fmt.Errorf("core: filtering with %s: %w", p.Method.Name(), err)
	}
	csp.End()
	// Tombstoned graphs never surface: any posting a removal left behind is
	// dropped here, before verification. The one-shot path ranges over the
	// producer's chunks by push, as DrainCursor does, and applies the same
	// liveness step (liveStage.admit) every Cursor applies as it serves, so
	// the two can never disagree on what reaches the verifier. It admits as
	// it copies into one candidate set; a DrainCursor, which holds the
	// producer's first chunk uncopied, would cost this path a second copy.
	_, fsp := obs.StartSpan(ctx, "tombstone-filter")
	var stats PipelineStats
	live := liveStage{ds: p.DS, stats: &stats}
	var cands graph.IDSet
	for chunk := range plan.Chunks() {
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

// VerifyPlan runs a plan's verification stage over its whole drained
// candidate set and returns the sorted answer set. Callers that filtered
// the candidates first (the pipeline's tombstone drop) use VerifyCandidates
// directly.
func VerifyPlan(ctx context.Context, plan QueryPlan, workers int) (graph.IDSet, error) {
	return VerifyCandidates(ctx, plan, DrainedPlan{plan}.Candidates(), workers)
}

// VerifyCandidates verifies cands (IDs the verifier can test, ascending)
// and returns the sorted answer set. With workers <= 1 candidates are
// verified in order with a cancellation check between candidates and after
// the last; otherwise they are fanned out across a worker pool and the
// answers reassembled in candidate order. Either way a cancellation that
// overlapped any verification returns the context's error, never a
// partial or falsely empty answer set.
func VerifyCandidates(ctx context.Context, plan interface{ Verify(graph.ID) bool }, cands graph.IDSet, workers int) (graph.IDSet, error) {
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
		if err := ctx.Err(); err != nil {
			return nil, err
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
	// Any cancellation voids the result, even one arriving after the last
	// candidate was handed out: a cancelled verifier aborts with a false
	// negative, so a result that overlapped a cancellation cannot be
	// trusted.
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
// cancellation is yielded once as a non-nil error, then the sequence ends;
// a cancellation that overlapped the last verification is still reported.
func StreamAnswers(ctx context.Context, m Method, ds *graph.Dataset, q *graph.Graph) iter.Seq2[graph.ID, error] {
	return func(yield func(graph.ID, error) bool) {
		plan, err := Plan(ctx, m, ds, q)
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
		if err := ctx.Err(); err != nil {
			yield(0, err)
		}
	}
}

// BruteForceAnswers returns the exact answer set by running VF2 against
// every graph in the dataset — the "naive method" of the paper's
// introduction, used as ground truth in tests and as the no-index baseline
// in benchmarks. A cancellation that overlapped any test returns the
// context's error.
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
	if err := ctx.Err(); err != nil {
		return nil, err
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
