package router

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Options configures the routing layer of a Multi: which policy picks the
// serving method and how it explores.
type Options struct {
	// Policy is the routing policy name: static, learned, or race
	// (default learned).
	Policy string
	// Epsilon is the learned policy's exploration rate in [0, 1]; 0 means
	// purely greedy once warm. The router spec defaults it to 0.1.
	Epsilon float64
	// Seed seeds the exploration RNG, making routing reproducible for a
	// fixed traffic order.
	Seed int64
	// Registry hosts the cost model's latency histograms (the
	// sq_router_latency_seconds family). Pass the serving process's
	// registry so /metrics exposes the cells routing runs on; nil keeps
	// the model on a private registry.
	Registry *obs.Registry
}

func (o *Options) fill() {
	if o.Policy == "" {
		o.Policy = PolicyLearned
	}
}

// Config configures Open: the method set to co-build plus the engine
// lifecycle options each sub-engine opens with.
type Config struct {
	// Methods are the registry names (or aliases) of the methods to
	// co-build; at least two.
	Methods []string
	Options
	// IndexPath is the persistence base: each method's index persists at
	// MethodIndexPath(IndexPath, name) under a manifest at IndexPath, and
	// the learned cost model at ModelPath(IndexPath) restores warm routing
	// state across restarts ("" = no persistence).
	IndexPath string
	// VerifyWorkers is each sub-engine's per-query verification parallelism
	// (0 = GOMAXPROCS).
	VerifyWorkers int
	// Shards > 1 opens every sub-engine sharded with that many shards.
	Shards int
}

// Sub pairs a method name with an already-opened engine over the router's
// dataset; New composes a Multi from them. Open is the usual entry point —
// New exists for callers that already hold built engines (the bench
// harness builds each method once and shares it across policy variants).
type Sub struct {
	// Name is the method's registry name or alias.
	Name string
	// Engine serves the method's queries; it must be opened over the same
	// dataset the Multi routes for.
	Engine engine.Querier
}

// Multi is the adaptive method router: an engine.Querier over several
// co-built method indexes on one dataset. Per query it extracts a cheap
// feature vector, routes to the method its policy predicts cheapest, and
// observes the served latency to sharpen future predictions. Because every
// method returns the exact answer set, Multi's answers are identical to
// any single-method engine's — routing only moves latency.
//
// Multi is safe for concurrent queries. Its sub-engines share one
// engine.Store (engine.Join): a mutation changes the dataset once and
// every sub-index and the routing label statistics follow it under the
// Store's one lock, which every sub-engine's queries take too.
type Multi struct {
	*engine.Store
	names    []string // canonical registry names
	displays []string // figure-legend names, parallel to names
	subs     []engine.Querier
	ext      *Extractor
	pol      policy
	mdl      *model

	indexPath string // persistence base from Open ("" = none)
	build     core.BuildStats
	restored  int // sub-engines restored from disk (Open only)

	rngMu sync.Mutex
	rng   *rand.Rand

	statsMu  sync.Mutex
	queries  int64
	streams  int64
	raced    int64
	explored int64
	routed   []int64 // per sub: chosen to run (race counts both contenders)
	won      []int64 // per sub: result served
}

var _ engine.Querier = (*Multi)(nil)

// New composes a Multi from already-opened engines. Names resolve through
// the registry (aliases and case-insensitive spellings accepted) and must
// be distinct; at least two subs are required — routing over one method is
// just that method. The subs join one Store (engine.Join), so New must run
// while none of them serves a call; a sub that cannot join — not an
// engine.Engine or engine.Sharded over ds — is refused. Engines may be
// composed into several routers: they then share that one Store.
func New(ds *graph.Dataset, subs []Sub, opts Options) (*Multi, error) {
	if ds == nil {
		return nil, errors.New("router: nil dataset")
	}
	if len(subs) < 2 {
		return nil, fmt.Errorf("router: %d method(s); routing needs at least two", len(subs))
	}
	opts.fill()
	pol, err := newPolicy(opts.Policy, opts.Epsilon)
	if err != nil {
		return nil, err
	}
	m := &Multi{
		ext:    NewExtractor(ds),
		pol:    pol,
		mdl:    newModel(opts.Registry),
		rng:    rand.New(rand.NewSource(opts.Seed)),
		routed: make([]int64, len(subs)),
		won:    make([]int64, len(subs)),
	}
	seen := make(map[string]bool, len(subs))
	for _, sub := range subs {
		d, ok := engine.Lookup(sub.Name)
		if !ok {
			return nil, fmt.Errorf("router: unknown method %q in method list", sub.Name)
		}
		if d.OpenQuerier != nil {
			return nil, fmt.Errorf("router: method list cannot nest composite method %q", d.Name)
		}
		if seen[d.Name] {
			return nil, fmt.Errorf("router: method %q listed twice", d.Name)
		}
		seen[d.Name] = true
		if sub.Engine == nil {
			return nil, fmt.Errorf("router: method %q has no engine", d.Name)
		}
		// Stats attribution uses the spelling the engine's results carry,
		// so it matches response attribution exactly.
		display := engine.MethodName(sub.Engine)
		if display == "" {
			display = d.Display
		}
		m.names = append(m.names, d.Name)
		m.displays = append(m.displays, display)
		m.subs = append(m.subs, sub.Engine)
	}
	// A mutation adds to the shared dataset once, then has every sub fold
	// the graph into its own index and the extractor into its statistics.
	if m.Store, err = engine.Join(ds, m.subs...); err != nil {
		return nil, fmt.Errorf("router: %w", err)
	}
	m.Maintain(m.ext)
	return m, nil
}

// buildInfo is the construction-reporting surface Engine and Sharded share.
type buildInfo interface {
	BuildStats() core.BuildStats
	Restored() bool
}

// Open co-builds (or restores) one index per configured method over ds —
// concurrently, on a pool bounded by GOMAXPROCS — and returns the routing
// engine over them. With cfg.IndexPath, each method persists independently
// at MethodIndexPath(base, name) under a manifest at base (the multi-index
// analogue of the sharded layout), and the learned cost model restores from
// ModelPath(base) so routing starts warm. A manifest that does not match
// the method set or shard count invalidates everything; a per-method file
// whose stamps and journal do not reach the dataset rebuilds alone.
func Open(ctx context.Context, ds *graph.Dataset, cfg Config) (*Multi, error) {
	if ds == nil {
		return nil, errors.New("router: nil dataset")
	}
	names, err := resolveMethods(cfg.Methods)
	if err != nil {
		return nil, err
	}
	manifestOK := false
	if cfg.IndexPath != "" {
		if manifestOK, err = manifestMatches(cfg.IndexPath, names, cfg.Shards); err != nil {
			return nil, err
		}
		if !manifestOK {
			// Same policy as the sharded manifest: a mismatch invalidates
			// every per-method file, so an index persisted for another
			// method set or shard count can never restore silently.
			removeStale(cfg.IndexPath, names)
		}
	}

	subs := make([]Sub, len(names))
	t0 := time.Now()
	err = engine.ForEachBounded(ctx, len(names), runtime.GOMAXPROCS(0), func(ctx context.Context, i int) error {
		opts := []engine.Option{engine.WithSpec(names[i])}
		if cfg.VerifyWorkers > 0 {
			opts = append(opts, engine.WithVerifyWorkers(cfg.VerifyWorkers))
		}
		if cfg.IndexPath != "" {
			opts = append(opts, engine.WithIndexPath(MethodIndexPath(cfg.IndexPath, names[i])))
		}
		var q engine.Querier
		var oerr error
		if cfg.Shards > 1 {
			q, oerr = engine.OpenSharded(ctx, ds, cfg.Shards, opts...)
		} else {
			q, oerr = engine.Open(ctx, ds, opts...)
		}
		if oerr != nil {
			return fmt.Errorf("router: opening %s: %w", names[i], oerr)
		}
		subs[i] = Sub{Name: names[i], Engine: q}
		return nil
	})
	buildWall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	m, err := New(ds, subs, cfg.Options)
	if err != nil {
		return nil, err
	}
	m.indexPath = cfg.IndexPath
	built := false
	for _, sub := range m.subs {
		bi, ok := sub.(buildInfo)
		if !ok {
			continue
		}
		// A restored engine reports its live index size too.
		m.build.SizeBytes += bi.BuildStats().SizeBytes
		if bi.Restored() {
			m.restored++
		} else {
			built = true
		}
	}
	if built {
		m.build.Elapsed = buildWall
	}
	if cfg.IndexPath != "" {
		if !manifestOK {
			if err := writeManifest(cfg.IndexPath, names, cfg.Shards); err != nil {
				return nil, err
			}
		}
		// A warm cost model is an optimization, never a correctness input:
		// a missing or corrupt file just means routing starts cold.
		m.loadModel(ModelPath(cfg.IndexPath))
	}
	return m, nil
}

// resolveMethods canonicalizes and validates a method name list.
func resolveMethods(methods []string) ([]string, error) {
	if len(methods) < 2 {
		return nil, fmt.Errorf("router: %d method(s); routing needs at least two", len(methods))
	}
	names := make([]string, 0, len(methods))
	seen := make(map[string]bool, len(methods))
	for _, name := range methods {
		d, ok := engine.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("router: unknown method %q in method list (registered: %s)",
				name, methodsHint())
		}
		if d.OpenQuerier != nil {
			return nil, fmt.Errorf("router: method list cannot nest composite method %q", d.Name)
		}
		if seen[d.Name] {
			return nil, fmt.Errorf("router: method %q listed twice", d.Name)
		}
		seen[d.Name] = true
		names = append(names, d.Name)
	}
	return names, nil
}

// methodsHint lists the registry's routable (non-composite) methods.
func methodsHint() string {
	var names []string
	for _, d := range engine.Descriptors() {
		if d.OpenQuerier == nil {
			names = append(names, d.Name)
		}
	}
	return strings.Join(names, ", ")
}

// Ready reports whether every routed sub-engine is ready to serve: false
// while any sub-engine's lazily-opened (storage=mmap) index is still
// materializing its first-touch sections. The serving layer's /readyz
// forwards to it through the cache wrapper.
func (m *Multi) Ready() bool {
	for _, s := range m.subs {
		if !s.Ready() {
			return false
		}
	}
	return true
}

// Methods returns the canonical registry names of the routed methods, in
// configuration order.
func (m *Multi) Methods() []string { return append([]string(nil), m.names...) }

// Policy returns the routing policy name.
func (m *Multi) Policy() string { return m.pol.name() }

// Instrument exposes the learned cost model's latency family on reg: the
// serving layer's /metrics then serves the very cells routing runs on —
// one histogram-with-EWMA per (feature bucket, method) — rather than a
// copy. A router built with Options.Registry already shares; this is for
// routers built before the serving registry existed.
func (m *Multi) Instrument(reg *obs.Registry) { reg.Adopt(m.mdl.fam) }

// BuildStats reports aggregate index construction across the sub-engines
// (Open only; New composes engines it did not build, reporting zeros).
func (m *Multi) BuildStats() core.BuildStats { return m.build }

// RestoredMethods returns how many sub-engines Open restored from disk
// rather than built.
func (m *Multi) RestoredMethods() int { return m.restored }

// Extract computes the routing feature vector of q against the dataset's
// label statistics — exported so benchmarks and tests can inspect what the
// router keys on. Mutations refresh those statistics, so the vector always
// reflects the live dataset.
func (m *Multi) Extract(q *graph.Graph) Features {
	m.RLock()
	defer m.RUnlock()
	return m.ext.Extract(q)
}

// choose runs the policy under the RNG lock and returns the picked
// sub-engine indexes plus whether the front pick was exploratory.
func (m *Multi) choose(f Features) ([]int, bool) {
	m.rngMu.Lock()
	defer m.rngMu.Unlock()
	return m.pol.picks(f, m.names, m.mdl, m.rng)
}

// Query routes one query to the policy's predicted-cheapest method (or
// races the top two) and returns that engine's result, observing the served
// latency into the cost model. The result's Method field names the method
// that actually served it. The Store's read lock is held for the routing
// decision; the chosen sub-engine takes it again for its query.
func (m *Multi) Query(ctx context.Context, q *graph.Graph) (*core.QueryResult, error) {
	_, rsp := obs.StartSpan(ctx, "route")
	f := m.Extract(q)
	picks, explored := m.choose(f)
	rsp.Attr("bucket", f.Bucket().String())
	rsp.Attr("method", m.names[picks[0]])
	if explored {
		rsp.Attr("explored", true)
	}
	if len(picks) >= 2 {
		rsp.Attr("raced", m.names[picks[1]])
	}
	rsp.End()
	if len(picks) >= 2 {
		return m.race(ctx, q, f, picks[0], picks[1], explored)
	}
	i := picks[0]
	res, err := m.subs[i].Query(ctx, q)
	if err != nil {
		return nil, err
	}
	m.mdl.observe(f.Bucket(), m.names[i], res.TotalTime().Seconds())
	m.statsMu.Lock()
	m.queries++
	m.routed[i]++
	m.won[i]++
	if explored {
		m.explored++
	}
	m.statsMu.Unlock()
	return res, nil
}

// race runs the query on sub-engines a and b concurrently and serves the
// first successful result, cancelling the loser. The winner's latency is
// observed directly; the loser's is censored by the cancellation, so it is
// recorded at the winner's latency — the tightest known lower bound.
// Without that floor a method that keeps losing races would sit below the
// cold threshold forever, pinning the forced-warmup path (and the explored
// counter) for the lifetime of the process; with it, raced cells warm
// within a few queries and any optimism is self-correcting, since a
// too-cheap estimate just keeps the method in the race until real wins or
// losses move it.
func (m *Multi) race(ctx context.Context, q *graph.Graph, f Features, a, b int, explored bool) (*core.QueryResult, error) {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		i   int
		res *core.QueryResult
		err error
	}
	ch := make(chan outcome, 2)
	for _, i := range []int{a, b} {
		go func(i int) {
			res, err := m.subs[i].Query(rctx, q)
			ch <- outcome{i: i, res: res, err: err}
		}(i)
	}
	var firstErr error
	var won *outcome
	for k := 0; k < 2; k++ {
		o := <-ch
		if o.err != nil {
			if firstErr == nil {
				firstErr = o.err
			}
			continue
		}
		if won == nil {
			won = &o
			cancel() // stop the loser; the next loop round reaps it
		}
	}
	// Both goroutines have been joined before returning, so no straggling
	// loser outlives the query (each holds the Store's read lock while it
	// runs). The loser aborts at its next cancellation check, so the join
	// costs little beyond the winner's latency.
	if won == nil {
		return nil, firstErr
	}
	o := *won
	seconds := o.res.TotalTime().Seconds()
	m.mdl.observe(f.Bucket(), m.names[o.i], seconds)
	loser := a
	if o.i == a {
		loser = b
	}
	m.mdl.observe(f.Bucket(), m.names[loser], seconds)
	m.statsMu.Lock()
	m.queries++
	m.raced++
	m.routed[a]++
	m.routed[b]++
	m.won[o.i]++
	if explored {
		m.explored++
	}
	m.statsMu.Unlock()
	return o.res, nil
}

// Stream routes the query like Query (the race policy streams its top
// prediction — racing two streams would double-verify every candidate) and
// yields the chosen engine's answer stream. Streamed queries update the
// routing counters but not the cost model: a client may abandon the stream
// mid-way, so its wall time is not a comparable latency observation.
//
// The Store's lock is held only for the routing decision, not across the
// yielded stream: the sub-engine streams under the same lock with chunked
// locking, so a slow consumer never stalls mutations, and a mutation
// landing mid-stream re-plans the sub-engine's stream after its frontier
// (engine.MergeStream).
func (m *Multi) Stream(ctx context.Context, q *graph.Graph) iter.Seq2[graph.ID, error] {
	return m.StreamStats(ctx, q, nil)
}

// StreamStats implements engine.StatsStreamer: Stream with pipeline
// counters accumulated into stats (nil = no accounting).
func (m *Multi) StreamStats(ctx context.Context, q *graph.Graph, stats *core.PipelineStats) iter.Seq2[graph.ID, error] {
	return func(yield func(graph.ID, error) bool) {
		picks, _ := m.choose(m.Extract(q))
		i := picks[0]
		m.statsMu.Lock()
		m.streams++
		m.routed[i]++
		m.won[i]++
		m.statsMu.Unlock()
		for id, err := range m.subs[i].StreamStats(ctx, q, stats) {
			if !yield(id, err) {
				return
			}
		}
	}
}
