package server

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/obs"
)

// CachedEngine wraps any engine.Querier — flat or sharded — with an
// isomorphism-invariant result cache and single-flight deduplication. The
// cache is keyed by QueryKey, so two queries that are isomorphic as
// labelled graphs share an entry regardless of vertex ordering; concurrent
// misses on the same key share one computation instead of racing the
// pipeline. Cached answers are exactly the underlying engine's: a hit
// returns the stored Candidates/Answers sets with Cached set and the
// lookup latency as FilterTime. Everything but Query passes straight
// through to the embedded engine: streams (caching would materialize what
// streaming exists to avoid), readiness, and mutations, whose epoch bump
// invalidates earlier entries lazily on their next lookup.
type CachedEngine struct {
	engine.Querier
	cache *cache // nil when caching is disabled

	mu      sync.Mutex
	flights map[string]*flight
	dedups  atomic.Int64

	// Registry-backed mirrors of the cache counters, so /metrics exposes
	// hit rates without reaching into the cache's internal state. They
	// start as private cells and are rebound by instrument().
	obsHits, obsMisses, obsDedups *obs.Counter
}

// flight is one in-progress computation shared by all queries with its key.
type flight struct {
	done chan struct{} // closed after res/err are set
	res  *core.QueryResult
	err  error
}

var _ engine.Querier = (*CachedEngine)(nil)

// NewCached wraps inner with a result cache bounded by cfg. With
// cfg.Disabled every call passes straight through (single-flight included),
// so a CachedEngine can stand in unconditionally.
func NewCached(inner engine.Querier, cfg CacheConfig) *CachedEngine {
	c := &CachedEngine{
		Querier: inner, flights: make(map[string]*flight),
		obsHits: new(obs.Counter), obsMisses: new(obs.Counter), obsDedups: new(obs.Counter),
	}
	if !cfg.Disabled {
		c.cache = newCache(cfg)
	}
	return c
}

// instrument rebinds the cache counters onto reg, so the serving layer's
// /metrics and /stats report from one set of cells.
func (c *CachedEngine) instrument(reg *obs.Registry) {
	c.obsHits = reg.Counter("sq_cache_hits_total", "Result cache hits.").Counter()
	c.obsMisses = reg.Counter("sq_cache_misses_total", "Result cache misses.").Counter()
	c.obsDedups = reg.Counter("sq_cache_dedups_total",
		"Queries that joined an in-flight identical computation.").Counter()
}

// CacheStats snapshots cache and deduplication counters.
func (c *CachedEngine) CacheStats() CacheStats {
	var s CacheStats
	if c.cache != nil {
		s = c.cache.stats()
	}
	s.Dedups = c.dedups.Load()
	return s
}

// Query serves one query through the cache: a hit returns immediately, a
// miss computes through the wrapped engine (joining an in-flight identical
// computation when one exists) and stores the result. Errors are never
// cached; a waiter whose context ends before the shared computation does
// returns its own ctx error, and a waiter whose leader died of the
// leader's own context recomputes rather than inheriting the failure.
func (c *CachedEngine) Query(ctx context.Context, q *graph.Graph) (*core.QueryResult, error) {
	if c.cache == nil {
		return c.Querier.Query(ctx, q)
	}
	t0 := time.Now()
	key, ok := QueryKey(q)
	if !ok {
		return c.Querier.Query(ctx, q)
	}
	for {
		// The epoch is read before the lookup and before the compute: a
		// mutation that lands in between stamps this entry with an
		// already-old epoch, so the worst case is an unnecessary
		// invalidation later — never a stale replay.
		epoch := c.Epoch()
		if res, hit := c.cache.get(key, epoch); hit {
			c.obsHits.Inc()
			return cachedResult(res, time.Since(t0)), nil
		}
		// Flights are keyed by (epoch, key): a query racing a mutation
		// must not join a computation started against the previous
		// dataset version.
		fkey := strconv.FormatUint(epoch, 36) + "/" + key
		c.mu.Lock()
		f, inflight := c.flights[fkey]
		if !inflight {
			f = &flight{done: make(chan struct{})}
			c.flights[fkey] = f
			c.mu.Unlock()
			c.cache.countMiss()
			c.obsMisses.Inc()
			res, err := c.Querier.Query(ctx, q)
			// Store before retiring the flight: a query arriving between
			// the two would otherwise see neither and recompute in full. A
			// partial answer is never stored: the shard it lacks may come
			// back without the epoch moving.
			if err == nil && res.FailedShards == nil {
				c.cache.put(key, res, epoch)
			}
			f.res, f.err = res, err
			c.mu.Lock()
			delete(c.flights, fkey)
			c.mu.Unlock()
			close(f.done)
			return res, err
		}
		c.mu.Unlock()
		c.dedups.Add(1)
		c.obsDedups.Inc()
		select {
		case <-f.done:
			if f.err == nil {
				return cachedResult(f.res, time.Since(t0)), nil
			}
			if isContextErr(f.err) && ctx.Err() == nil {
				// The leader died of its *own* canceled context or
				// deadline; this waiter's budget is still alive, so one
				// impatient client must not poison the flight — loop and
				// recompute (or join the next flight).
				continue
			}
			return nil, f.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// isContextErr reports whether err is a context cancellation or deadline,
// wherever it sits in the chain.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// cachedResult is a hit's surface: the stored answer and candidate sets
// (shared, read-only by convention), Cached set, and the key+lookup latency
// as FilterTime so TotalTime() stays the real served latency. A flight
// follower may receive a partial answer, so FailedShards rides along.
func cachedResult(res *core.QueryResult, lookup time.Duration) *core.QueryResult {
	return &core.QueryResult{
		Candidates:   res.Candidates,
		Answers:      res.Answers,
		FilterTime:   lookup,
		Method:       res.Method,
		Cached:       true,
		FailedShards: res.FailedShards,
	}
}

// QueryLimited serves one query capped at limit answers (limit <= 0 means
// uncapped and defers to Query). A cache hit returns a truncated copy of
// the stored full result — the cap never costs a recompute. A miss runs
// the lazy streaming pipeline and stops after limit answers, so it does
// only the work it returns (Produced/Verified report exactly how much);
// the partial result is NEVER stored, so a limited query cannot poison
// the cache for a later unlimited one — that one misses, computes the
// full set, and stores it. Limited results carry no Candidates set: the
// limited path exists to avoid materializing it.
func (c *CachedEngine) QueryLimited(ctx context.Context, q *graph.Graph, limit int) (*core.QueryResult, error) {
	if limit <= 0 {
		return c.Query(ctx, q)
	}
	if c.cache != nil {
		if key, ok := QueryKey(q); ok {
			t0 := time.Now()
			if res, hit := c.cache.get(key, c.Epoch()); hit {
				c.obsHits.Inc()
				out := cachedResult(res, time.Since(t0))
				out.Candidates = nil
				if len(out.Answers) > limit {
					out.Answers = out.Answers[:limit:limit]
				}
				return out, nil
			}
			c.cache.countMiss()
			c.obsMisses.Inc()
		}
	}
	t0 := time.Now()
	var stats core.PipelineStats
	answers := make(graph.IDSet, 0, limit)
	for id, err := range c.StreamStats(ctx, q, &stats) {
		if err != nil {
			return nil, err
		}
		answers = append(answers, id)
		if len(answers) >= limit {
			break
		}
	}
	return &core.QueryResult{
		Answers:      answers,
		VerifyTime:   time.Since(t0),
		Method:       engine.MethodName(c.Querier),
		Produced:     int(stats.Produced.Load()),
		Verified:     int(stats.Verified.Load()),
		FailedShards: stats.FailedShards,
	}, nil
}
