// Command sqserve is the long-lived query service: it indexes (or restores)
// a GFD dataset once and serves subgraph queries over HTTP/JSON, with an
// isomorphism-invariant result cache, admission control, and NDJSON
// streaming.
//
// Usage:
//
//	sqserve -data molecules.gfd -method grapes:workers=8 -addr :7474
//	sqserve -data molecules.gfd -method ggsx -shards 4 -ix mol.idx
//	sqserve -data molecules.gfd -method router:methods=grapes+ggsx+gcode -ix mol.idx
//	sqserve -data molecules.gfd -cache-entries 0            # cache disabled
//	sqserve -cluster cluster.json -addr :7474               # coordinator over sqnode members
//
// With -method router:..., several method indexes are co-built and every
// query is routed to the predicted-cheapest method; responses carry the
// serving method, /stats exposes win rates and the learned cost model, and
// a clean drain persists the routing state under -ix so the next start
// routes warm.
//
// With -cluster, sqserve builds no index at all: it becomes the cluster
// coordinator over the shard nodes in the manifest (see sqnode), fanning
// queries across shard owners, hedging slow legs to replicas, routing
// mutations with epoch propagation, and re-replicating shards off dead
// nodes. The coordinator is served by the same serving layer as a local
// index, so every endpoint below answers the same way and gquery -remote
// is unchanged; /cluster and /metrics/cluster are added. It refuses to
// start until some owner of every shard answers. The -data, -method,
// -ix, -shards, -workers, -build-timeout and -cache-* flags do not apply:
// the coordinator caches nothing, because a shard re-adopted at an older
// epoch changes answers without moving the cluster epoch. -concurrency,
// -queue, -req-timeout, -slow-query, -slo and -pprof apply as for a local
// index, and -node-timeout, -hedge-delay and -probe-interval tune the
// fan-out.
//
// Endpoints:
//
//	POST   /query        one GraphJSON query; ?stream=1 streams NDJSON answers,
//	                     ?limit=N stops after the first N answers (the lazy
//	                     pipeline never verifies the unreturned tail)
//	POST   /batch        {"queries": [GraphJSON, ...], "workers": N}
//	POST   /graphs       add a graph to the live dataset (online index maintenance)
//	DELETE /graphs/{id}  tombstone a graph; its id is never reused
//	GET    /methods      the live method registry
//	GET    /stats        cache, admission, request, graph-count and epoch counters
//	GET    /healthz      liveness: 200 while the process runs
//	GET    /readyz       readiness: 503 during index build and graceful drain
//	GET    /cluster      (coordinator only) topology, per-node health, fan-out counters
//	GET    /metrics      Prometheus text exposition of the same counters /stats reports
//	GET    /metrics/cluster  (coordinator only) federated exposition: every node's
//	                     /metrics relabeled with node="<addr>" plus summed _agg families
//	GET    /health/score derived ok/degraded/critical verdict with per-check reasons
//	                     (error rate, p99 vs -slo, queue depth, cluster membership)
//	GET    /debug/pprof  runtime profiles (only with -pprof)
//
// A cluster answer missing shards whose every owner is down carries
// "partial": true and the "failed_shards" list, on /query, /batch items
// and the stream's done line.
//
// With -slow-query D, any query slower than D is logged as one structured
// JSON line carrying the query's span tree, plan, and pipeline counters —
// enough to diagnose it after the fact without re-running it.
//
// The dataset is live: every method folds mutations into its index
// online, mutations bump the dataset epoch,
// and invalidate cached results from earlier epochs lazily — a stale
// answer is never replayed.
//
// The listener is up before the index build finishes: /healthz answers 200
// from the first moment while /readyz answers 503 until the engine is
// ready, so orchestrators can distinguish "starting" from "dead".
//
// SIGINT/SIGTERM drains gracefully: /readyz flips to 503, new query work is
// rejected, and in-flight requests finish (bounded by -drain-timeout).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	_ "repro/internal/engine/std"
	"repro/internal/graph"
	"repro/internal/router"
	"repro/internal/server"
)

// options are the command-line flags.
type options struct {
	dataPath, methodStr, indexPath, addr, manifest    string
	shards, verifyW, cacheEntries, concurrency, queue int
	cacheBytes                                        int64
	cacheTTL, reqTimeout, buildTimeout, drainTimeout  time.Duration
	nodeTimeout, hedgeDelay, probeInterval            time.Duration
	slowQuery, slo                                    time.Duration
	enablePprof                                       bool
}

func main() {
	var o options
	flag.StringVar(&o.dataPath, "data", "", "GFD dataset file (required unless -cluster)")
	flag.StringVar(&o.methodStr, "method", "grapes", "method spec: name[:key=value,...]; see -list")
	flag.StringVar(&o.indexPath, "ix", "", "persist/restore the built index at this path")
	flag.IntVar(&o.shards, "shards", 0, "hash-partition the dataset into N shards (0/1 = unsharded)")
	flag.IntVar(&o.verifyW, "workers", 0, "per-query verification parallelism (0 = GOMAXPROCS)")
	flag.StringVar(&o.addr, "addr", ":7474", "listen address")

	flag.StringVar(&o.manifest, "cluster", "", "cluster manifest JSON: serve as the coordinator over sqnode members instead of building a local index")
	flag.DurationVar(&o.nodeTimeout, "node-timeout", 10*time.Second, "coordinator: budget per mutation leg and probe, and for a query leg's first line")
	flag.DurationVar(&o.hedgeDelay, "hedge-delay", 2*time.Second, "coordinator: duplicate a query leg that has sent no line after this long to a replica (<0 disables)")
	flag.DurationVar(&o.probeInterval, "probe-interval", 2*time.Second, "coordinator: node health-check period")

	flag.IntVar(&o.cacheEntries, "cache-entries", server.DefaultMaxEntries, "result cache capacity in entries (0 disables the cache)")
	flag.Int64Var(&o.cacheBytes, "cache-bytes", server.DefaultMaxBytes, "result cache capacity in bytes")
	flag.DurationVar(&o.cacheTTL, "cache-ttl", 0, "result cache entry lifetime (0 = no expiry)")

	flag.IntVar(&o.concurrency, "concurrency", 0, "max concurrently executing requests (0 = GOMAXPROCS)")
	flag.IntVar(&o.queue, "queue", 0, "max requests queued beyond the executing ones before 429 (0 = 4x concurrency)")
	flag.DurationVar(&o.reqTimeout, "req-timeout", 30*time.Second, "per-request execution budget")
	flag.DurationVar(&o.buildTimeout, "build-timeout", 8*time.Hour, "index construction budget")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "graceful shutdown budget for in-flight requests")

	flag.DurationVar(&o.slowQuery, "slow-query", 0, "log queries slower than this as structured JSON with their span tree (0 disables)")
	flag.DurationVar(&o.slo, "slo", 0, "p99 latency target /health/score compares against (0 disables the latency check)")
	flag.BoolVar(&o.enablePprof, "pprof", false, "serve runtime profiles under /debug/pprof")

	list := flag.Bool("list", false, "list registered methods and their parameters")
	flag.Parse()

	if *list {
		engine.FprintMethods(os.Stdout)
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "sqserve:", err)
		os.Exit(1)
	}
}

// bootstrapHandler serves the pre-ready window: alive, not ready.
func bootstrapHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"error":"starting up"}`)
	})
	return mux
}

// listenEarly starts the listener on a swappable handler so liveness is up
// (and readiness honestly 503) while the engine builds. The returned store
// swaps in the real handler when ready.
func listenEarly(addr string) (*http.Server, func(http.Handler), chan error) {
	var h atomic.Value
	h.Store(bootstrapHandler())
	srv := &http.Server{Addr: addr, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.Load().(http.Handler).ServeHTTP(w, r)
	})}
	serveErr := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			serveErr <- err
		}
	}()
	return srv, func(next http.Handler) { h.Store(next) }, serveErr
}

// run serves one engine — a local index, or with -cluster the coordinator —
// through the one serving layer, then drains on SIGINT/SIGTERM.
func run(o options) error {
	httpSrv, swap, serveErr := listenEarly(o.addr)
	cfg := server.Config{
		Cache: server.CacheConfig{
			Disabled:   o.cacheEntries == 0,
			MaxEntries: o.cacheEntries,
			MaxBytes:   o.cacheBytes,
			TTL:        o.cacheTTL,
		},
		Workers:        o.concurrency,
		MaxQueue:       o.queue,
		RequestTimeout: o.reqTimeout,
		SlowQuery:      o.slowQuery,
		SLO:            o.slo,
		EnablePprof:    o.enablePprof,
	}
	var (
		q     engine.Querier
		coord *cluster.Coordinator
		err   error
	)
	if o.manifest != "" {
		if coord, err = openCoordinator(o); err == nil {
			defer coord.Close()
			q = coord
			cfg.Spec, cfg.Shards, cfg.Registry = coord.Name(), coord.Manifest().Shards, coord.Registry()
			cfg.Cache = server.CacheConfig{Disabled: true}
		}
	} else {
		q, cfg.Spec, cfg.Shards, err = openLocal(o)
	}
	if err != nil {
		httpSrv.Close()
		return err
	}
	srv := server.New(q, cfg)
	h := srv.Handler()
	if coord != nil {
		h = coord.Handler(h)
	}
	swap(h)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-sigs
		log.Printf("draining: rejecting new work, waiting up to %v for in-flight requests", o.drainTimeout)
		srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
		defer cancel()
		done <- httpSrv.Shutdown(ctx)
	}()

	log.Printf("serving %s (%s) on %s", q.Dataset().Name, cfg.Spec, o.addr)
	select {
	case err := <-serveErr:
		return err
	case err := <-done:
		if err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
	}
	// A routed engine's learned cost model is state worth keeping: persist
	// it on a clean drain so the next start routes warm.
	if m, ok := q.(*router.Multi); ok && o.indexPath != "" {
		if err := m.Save(o.indexPath); err != nil {
			log.Printf("saving routing state: %v", err)
		} else {
			log.Printf("routing state saved under %s", o.indexPath)
		}
	}
	log.Printf("drained cleanly")
	return nil
}

// openCoordinator connects to the manifest's nodes.
func openCoordinator(o options) (*cluster.Coordinator, error) {
	man, err := cluster.LoadManifest(o.manifest)
	if err != nil {
		return nil, err
	}
	coord, err := cluster.NewCoordinator(context.Background(), man, cluster.CoordConfig{
		NodeTimeout:   o.nodeTimeout,
		HedgeDelay:    o.hedgeDelay,
		ProbeInterval: o.probeInterval,
	})
	if err != nil {
		return nil, err
	}
	log.Printf("coordinator ready: %s, method %s", man, coord.Name())
	return coord, nil
}

// openLocal builds or restores the local index, returning it with its
// canonical spec and the shard count /stats reports (0 = unsharded).
func openLocal(o options) (engine.Querier, string, int, error) {
	if o.dataPath == "" {
		return nil, "", 0, fmt.Errorf("-data is required")
	}
	ds, err := graph.LoadDatasetFile(o.dataPath)
	if err != nil {
		return nil, "", 0, fmt.Errorf("loading dataset: %w", err)
	}
	d, p, err := engine.ParseSpec(o.methodStr)
	if err != nil {
		return nil, "", 0, err
	}
	buildCtx, cancel := context.WithTimeout(context.Background(), o.buildTimeout)
	defer cancel()
	opts := []engine.Option{engine.WithSpec(o.methodStr)}
	if o.indexPath != "" {
		opts = append(opts, engine.WithIndexPath(o.indexPath))
	}
	if o.verifyW > 0 {
		opts = append(opts, engine.WithVerifyWorkers(o.verifyW))
	}
	t0 := time.Now()
	q, err := engine.OpenAny(buildCtx, ds, o.shards, opts...)
	if err != nil {
		return nil, "", 0, err
	}
	shards := o.shards
	switch e := q.(type) {
	case *engine.Sharded:
		log.Printf("engine ready: %s over %d graphs, %d shards (%d restored) in %v, index %.2f MB",
			d.Display, ds.Len(), shards, e.RestoredShards(),
			time.Since(t0).Round(time.Millisecond), float64(e.SizeBytes())/(1<<20))
	case *engine.Engine:
		verb := "built"
		if e.Restored() {
			verb = "restored"
		}
		log.Printf("engine ready: %s over %d graphs, index %s in %v (%.2f MB)",
			d.Display, ds.Len(), verb, time.Since(t0).Round(time.Millisecond),
			float64(e.Method().SizeBytes())/(1<<20))
		shards = 0
	case *router.Multi:
		log.Printf("engine ready: router over %s (%s policy), %d graphs (%d restored) in %v, indexes %.2f MB",
			strings.Join(e.Methods(), "+"), e.Policy(), ds.Len(), e.RestoredMethods(),
			time.Since(t0).Round(time.Millisecond), float64(e.BuildStats().SizeBytes)/(1<<20))
		if shards < 2 {
			shards = 0
		}
	}
	return q, p.Spec(), shards, nil
}
