// Command sqnode is one member of a query cluster: it builds (or restores)
// engines for the logical shards the cluster manifest assigns to it and
// serves them to the coordinator over the node protocol.
//
// Every node loads the same dataset file and partitions it with the same
// consistent hash the in-process sharded engine uses, so the cluster's
// answers are identical to a single machine's. The coordinator (sqserve
// -cluster) routes queries, mutations, and shard re-replication.
//
// Usage:
//
//	sqnode -data molecules.gfd -manifest cluster.json -name n0 -addr :7501
//	sqnode -data molecules.gfd -manifest cluster.json -name n1 -addr :7502 -ix n1.idx
//
// The node listens immediately: /healthz answers 200 from the start
// (liveness), while /readyz answers 503 until every assigned shard's index
// is built and flips back to 503 during graceful drain — so a coordinator
// or orchestrator never routes to a node that cannot serve.
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
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	_ "repro/internal/engine/std"
	"repro/internal/graph"
)

func main() {
	var (
		dataPath     = flag.String("data", "", "GFD dataset file (required); every node loads the full file and serves its hash partition")
		manifestPath = flag.String("manifest", "", "cluster manifest JSON (required)")
		name         = flag.String("name", "", "this node's name in the manifest (required)")
		methodStr    = flag.String("method", "grapes", "method spec: name[:key=value,...]; must agree across the cluster")
		indexPath    = flag.String("ix", "", "persistence base: shard k persists at <ix>.node-shard-<k>")
		verifyW      = flag.Int("workers", 0, "node-wide verification parallelism: each query leg verifies with all of it (0 = GOMAXPROCS)")
		addr         = flag.String("addr", ":7501", "listen address")
		reqTimeout   = flag.Duration("req-timeout", 30*time.Second, "per-request execution budget")
		buildTimeout = flag.Duration("build-timeout", 8*time.Hour, "shard index construction budget")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget for in-flight requests")
		slowQuery    = flag.Duration("slow-query", 0, "log shard queries slower than this as structured JSON with their span tree (0 disables)")
		enablePprof  = flag.Bool("pprof", false, "serve runtime profiles under /debug/pprof")
		list         = flag.Bool("list", false, "list registered methods and their parameters")
	)
	flag.Parse()

	if *list {
		engine.FprintMethods(os.Stdout)
		return
	}
	if err := run(*dataPath, *manifestPath, *name, *methodStr, *indexPath, *verifyW, *addr,
		*reqTimeout, *buildTimeout, *drainTimeout, *slowQuery, *enablePprof); err != nil {
		fmt.Fprintln(os.Stderr, "sqnode:", err)
		os.Exit(1)
	}
}

func run(dataPath, manifestPath, name, methodStr, indexPath string, verifyW int, addr string,
	reqTimeout, buildTimeout, drainTimeout, slowQuery time.Duration, enablePprof bool) error {
	if dataPath == "" || manifestPath == "" || name == "" {
		return fmt.Errorf("-data, -manifest, and -name are required")
	}
	man, err := cluster.LoadManifest(manifestPath)
	if err != nil {
		return err
	}
	idx := man.NodeIndex(name)
	if idx < 0 {
		return fmt.Errorf("node %q is not in the manifest (%s)", name, man)
	}
	shards := man.ShardsOf(idx)

	// Listen before building: liveness is up from the first moment, and
	// readiness honestly reports the build in progress as 503.
	var handler atomic.Value
	handler.Store(bootstrapHandler())
	httpSrv := &http.Server{Addr: addr, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	})}
	serveErr := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			serveErr <- err
		}
	}()

	ds, err := graph.LoadDatasetFile(dataPath)
	if err != nil {
		httpSrv.Close()
		return fmt.Errorf("loading dataset: %w", err)
	}
	buildCtx, cancel := context.WithTimeout(context.Background(), buildTimeout)
	t0 := time.Now()
	node, err := cluster.NewNode(buildCtx, ds, cluster.NodeConfig{
		Name:          name,
		Spec:          methodStr,
		ShardCount:    man.Shards,
		Shards:        shards,
		IndexPath:     indexPath,
		VerifyWorkers: verifyW,
	})
	cancel()
	if err != nil {
		httpSrv.Close()
		return err
	}
	ns := cluster.NewNodeServer(node, cluster.NodeServerConfig{
		RequestTimeout: reqTimeout,
		SlowQuery:      slowQuery,
		EnablePprof:    enablePprof,
	})
	handler.Store(ns.Handler())
	log.Printf("node %s ready: %s over %d graphs, shards %v of %d in %v",
		name, node.Spec(), ds.Len(), shards, man.Shards, time.Since(t0).Round(time.Millisecond))

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		return err
	case <-sigs:
	}
	log.Printf("draining: readiness down, waiting up to %v for in-flight requests", drainTimeout)
	ns.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	log.Printf("drained cleanly")
	return nil
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
		fmt.Fprintln(w, `{"error":"building shard indexes"}`)
	})
	return mux
}
