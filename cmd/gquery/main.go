// Command gquery indexes a GFD dataset with one of the six methods and
// processes subgraph queries against it, reporting per-query candidates,
// answers, timings, and the workload false positive ratio.
//
// Methods are selected by engine spec: a registered name or alias,
// optionally with typed parameter overrides.
//
// Usage:
//
//	gquery -data molecules.gfd -queries q.gfd -method Grapes
//	gquery -data molecules.gfd -queries q.gfd -method grapes:maxPathLen=3,workers=8 -v
//	gquery -data molecules.gfd -queries q.gfd -method gIndex -ix gindex.idx
//	gquery -data molecules.gfd -queries q.gfd -method grapes -shards 4 -ix mol.idx
//	gquery -data molecules.gfd -queries q.gfd -method router:methods=grapes+ggsx+gcode -v
//	gquery -list
//
// With -method router:..., several method indexes are co-built and every
// query is routed to the method predicted cheapest for its features; -v
// shows which method served each query and a final routing summary.
//
// With -shards N (N > 1), the dataset is hash-partitioned into N shards,
// one index per shard is built in parallel (or restored from -ix's
// per-shard files), and every query fans out across the shards with its
// results merged.
//
// With -remote URL, gquery is a thin client instead: no dataset is loaded
// and no index is built — each query is POSTed to a running sqserve
// instance and the server's answers, timings, and cache hits are reported:
//
//	gquery -remote http://localhost:7474 -queries q.gfd -v
//
// With -trace, each query's span tree is printed after its result line:
// locally the engine's own stage spans (route, candidate-chunk,
// tombstone-filter, verify); against -remote the server's echoed tree,
// which on a cluster coordinator includes every node's grafted subtree.
//
// With -add and/or -remove, gquery mutates the dataset before querying:
// -remove tombstones graphs by id, -add appends every graph of a GFD file
// (removals apply first). Locally every method folds the mutations into
// its index online; against -remote the same
// mutations go through the server's POST /graphs and DELETE /graphs/{id}
// endpoints. -queries may be omitted when only mutating:
//
//	gquery -data molecules.gfd -queries q.gfd -method grapes -add new.gfd -remove 3,17
//	gquery -remote http://localhost:7474 -add new.gfd -remove 3 -v
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	_ "repro/internal/engine/std"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/workload"
)

func main() {
	var (
		dataPath  = flag.String("data", "", "GFD dataset file (required)")
		queryPath = flag.String("queries", "", "GFD query file (required)")
		methodStr = flag.String("method", "Grapes", "method spec: name[:key=value,...]; see -list")
		indexPath = flag.String("ix", "", "persist/restore the built index at this path")
		workers   = flag.Int("workers", 0, "per-query verification parallelism (0 = GOMAXPROCS)")
		shards    = flag.Int("shards", 0, "hash-partition the dataset into N shards with parallel build and query fan-out (0/1 = unsharded)")
		remote    = flag.String("remote", "", "query a running sqserve at this base URL instead of building a local index")
		addPath   = flag.String("add", "", "add every graph of this GFD file to the dataset before querying (online index maintenance)")
		removeIDs = flag.String("remove", "", "comma-separated graph ids to tombstone before querying (applied before -add)")
		timeout   = flag.Duration("timeout", 8*time.Hour, "per-stage time budget")
		trace     = flag.Bool("trace", false, "print each query's span tree (remote: the server-echoed tree, cluster node subtrees included)")
		verbose   = flag.Bool("v", false, "per-query output")
		list      = flag.Bool("list", false, "list registered methods and their parameters")
	)
	flag.Parse()

	if *list {
		engine.FprintMethods(os.Stdout)
		return
	}
	removals, err := parseRemovals(*removeIDs)
	if err == nil {
		if *remote != "" {
			// The engine flags belong to the server in client mode; silently
			// ignoring them would let users attribute the server's numbers to
			// a method it is not running.
			if conflict := localOnlyFlags(); len(conflict) > 0 {
				err = fmt.Errorf("-remote is a client mode and cannot take %s: the method, shards, and index are chosen by the sqserve instance",
					strings.Join(conflict, ", "))
			} else {
				err = runRemote(*remote, *queryPath, *addPath, removals, *timeout, *verbose, *trace)
			}
		} else {
			err = run(*dataPath, *queryPath, *methodStr, *indexPath, *addPath, removals, *workers, *shards, *timeout, *verbose, *trace)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gquery:", err)
		os.Exit(1)
	}
}

// parseRemovals parses the -remove id list.
func parseRemovals(s string) ([]graph.ID, error) {
	if s == "" {
		return nil, nil
	}
	var out []graph.ID
	for _, part := range strings.Split(s, ",") {
		id, err := strconv.ParseInt(strings.TrimSpace(part), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("-remove: bad graph id %q", part)
		}
		out = append(out, graph.ID(id))
	}
	return out, nil
}

// localOnlyFlags returns the explicitly set flags that only apply when
// building a local engine.
func localOnlyFlags() []string {
	local := map[string]bool{"data": true, "method": true, "ix": true, "workers": true, "shards": true}
	var set []string
	flag.Visit(func(f *flag.Flag) {
		if local[f.Name] {
			set = append(set, "-"+f.Name)
		}
	})
	return set
}

// runRemote drives the query workload against a running sqserve instance:
// each query is serialized with its own label strings (the server resolves
// them against the dataset dictionary) and the server's answers, timings,
// and cache hits are aggregated client-side.
func runRemote(baseURL, queryPath, addPath string, removals []graph.ID, timeout time.Duration, verbose, trace bool) error {
	// Transient server pushback — 429 from admission control, 503 while
	// draining or a cluster shard is momentarily ownerless, a refused
	// connection during a restart — retries with capped backoff and jitter
	// instead of failing the workload.
	client := &server.RetryClient{Client: &http.Client{Timeout: timeout}}
	if verbose {
		client.OnRetry = func(attempt int, cause error, wait time.Duration) {
			fmt.Printf("retrying after %v (attempt %d failed: %v)\n", wait.Round(time.Millisecond), attempt, cause)
		}
	}
	if len(removals) > 0 || addPath != "" {
		if err := mutateRemote(client, baseURL, addPath, removals, verbose); err != nil {
			return err
		}
		if queryPath == "" {
			return nil // mutation-only invocation
		}
	}
	if queryPath == "" {
		return fmt.Errorf("-queries is required")
	}
	qds, err := graph.LoadDatasetFile(queryPath)
	if err != nil {
		return fmt.Errorf("loading queries: %w", err)
	}
	if qds.Len() == 0 {
		return fmt.Errorf("no queries in %s", queryPath)
	}
	var serverTime, rttTime time.Duration
	var fpSum float64
	hits, partials := 0, 0
	for i, q := range qds.Graphs {
		body, err := json.Marshal(server.GraphToJSON(q, &qds.Dict))
		if err != nil {
			return err
		}
		req, err := http.NewRequest(http.MethodPost, baseURL+"/query", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		if trace {
			// Asking the server to trace: the response echoes the span tree
			// under this id (on a coordinator, node subtrees grafted in).
			req.Header.Set(obs.TraceHeader, obs.NewTrace().ID())
		}
		t0 := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		var qr server.QueryResponse
		if resp.StatusCode != http.StatusOK {
			var e server.ErrorResponse
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			if json.Unmarshal(msg, &e) == nil && e.Error != "" {
				return fmt.Errorf("query %d: server: %s (%s)", i, e.Error, resp.Status)
			}
			return fmt.Errorf("query %d: server: %s", i, resp.Status)
		}
		err = json.NewDecoder(resp.Body).Decode(&qr)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("query %d: decoding response: %w", i, err)
		}
		rtt := time.Since(t0)
		serverTime += time.Duration(qr.TotalUs) * time.Microsecond
		rttTime += rtt
		if qr.Cached {
			hits++
		}
		if len(qr.Candidates) > 0 {
			fpSum += float64(len(qr.Candidates)-len(qr.Answers)) / float64(len(qr.Candidates))
		}
		if qr.Partial {
			partials++
			fmt.Printf("warning: query %d answered partially (shards %v unreachable)\n", i, qr.FailedShards)
		}
		if verbose {
			cached := ""
			if qr.Cached {
				cached = " (cached)"
			}
			via := ""
			if qr.Method != "" {
				via = " via " + qr.Method
			}
			fmt.Printf("query %3d (%d edges): %4d candidates, %4d answers, server %v, rtt %v%s%s\n",
				i, q.NumEdges(), len(qr.Candidates), len(qr.Answers),
				(time.Duration(qr.TotalUs) * time.Microsecond).Round(time.Microsecond),
				rtt.Round(time.Microsecond), via, cached)
		}
		if trace {
			if qr.Trace != nil {
				qr.Trace.Fprint(os.Stdout)
			} else {
				fmt.Printf("query %3d: server echoed no trace\n", i)
			}
		}
	}
	n := len(qds.Graphs)
	fmt.Printf("%d queries via %s: avg server time %v, avg rtt %v, %d cache hits, false positive ratio %.4f\n",
		n, baseURL, (serverTime / time.Duration(n)).Round(time.Microsecond),
		(rttTime / time.Duration(n)).Round(time.Microsecond), hits, fpSum/float64(n))
	if partials > 0 {
		fmt.Printf("warning: %d of %d answers were partial — a degraded cluster served them\n", partials, n)
	}
	return nil
}

// mutateRemote drives the server's mutation endpoints: DELETE per removal,
// then POST per graph of the add file.
func mutateRemote(client *server.RetryClient, baseURL, addPath string, removals []graph.ID, verbose bool) error {
	do := func(req *http.Request) (server.MutationResponse, error) {
		var mr server.MutationResponse
		resp, err := client.Do(req)
		if err != nil {
			return mr, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			var e server.ErrorResponse
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			if json.Unmarshal(msg, &e) == nil && e.Error != "" {
				return mr, fmt.Errorf("server: %s (%s)", e.Error, resp.Status)
			}
			return mr, fmt.Errorf("server: %s", resp.Status)
		}
		return mr, json.NewDecoder(resp.Body).Decode(&mr)
	}
	for _, id := range removals {
		req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/graphs/%d", baseURL, id), nil)
		if err != nil {
			return err
		}
		mr, err := do(req)
		if err != nil {
			return fmt.Errorf("removing graph %d: %w", id, err)
		}
		if verbose {
			fmt.Printf("removed graph %d (epoch %d, %d live graphs)\n", id, mr.Epoch, mr.Graphs)
		}
	}
	if addPath == "" {
		return nil
	}
	ads, err := graph.LoadDatasetFile(addPath)
	if err != nil {
		return fmt.Errorf("loading -add graphs: %w", err)
	}
	for i, g := range ads.Graphs {
		body, err := json.Marshal(server.GraphToJSON(g, &ads.Dict))
		if err != nil {
			return err
		}
		req, err := http.NewRequest(http.MethodPost, baseURL+"/graphs", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		mr, err := do(req)
		if err != nil {
			return fmt.Errorf("adding graph %d of %s: %w", i, addPath, err)
		}
		if verbose {
			fmt.Printf("added graph as id %d (epoch %d, %d live graphs)\n", mr.ID, mr.Epoch, mr.Graphs)
		}
	}
	return nil
}

// mutateLocal applies the -remove/-add mutations to an opened engine,
// maintaining the index online.
func mutateLocal(ctx context.Context, q engine.Querier, ds *graph.Dataset, addPath string, removals []graph.ID, verbose bool) error {
	for _, id := range removals {
		if err := q.RemoveGraph(ctx, id); err != nil {
			return err
		}
		if verbose {
			fmt.Printf("removed graph %d (epoch %d, %d live graphs)\n", id, q.Epoch(), ds.NumAlive())
		}
	}
	if addPath == "" {
		return nil
	}
	// Added graphs intern their labels into the dataset's dictionary, so a
	// new label grows the shared label universe.
	ads, err := graph.LoadDatasetFileWithDict(addPath, &ds.Dict)
	if err != nil {
		return fmt.Errorf("loading -add graphs: %w", err)
	}
	for _, g := range ads.Graphs {
		id, err := q.AddGraph(ctx, g.ShallowWithID(0))
		if err != nil {
			return err
		}
		if verbose {
			fmt.Printf("added graph as id %d (epoch %d, %d live graphs)\n", id, q.Epoch(), ds.NumAlive())
		}
	}
	return nil
}

func run(dataPath, queryPath, methodStr, indexPath, addPath string, removals []graph.ID, workers, shards int, timeout time.Duration, verbose, trace bool) error {
	mutating := addPath != "" || len(removals) > 0
	if dataPath == "" || (queryPath == "" && !mutating) {
		return fmt.Errorf("-data and -queries are required")
	}
	ds, err := graph.LoadDatasetFile(dataPath)
	if err != nil {
		return fmt.Errorf("loading dataset: %w", err)
	}
	// Queries share the dataset's label dictionary so label IDs agree
	// across the two files.
	var qds *graph.Dataset
	if queryPath != "" {
		if qds, err = graph.LoadDatasetFileWithDict(queryPath, &ds.Dict); err != nil {
			return fmt.Errorf("loading queries: %w", err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	opts := []engine.Option{engine.WithSpec(methodStr)}
	if indexPath != "" {
		opts = append(opts, engine.WithIndexPath(indexPath))
	}
	if workers > 0 {
		opts = append(opts, engine.WithVerifyWorkers(workers))
	}
	q, err := engine.OpenAny(ctx, ds, shards, opts...)
	if err != nil {
		return err
	}
	switch e := q.(type) {
	case *engine.Sharded:
		st := e.BuildStats()
		if e.Restored() {
			fmt.Printf("restored %s index for %d graphs from %d shards under %s (%.2f MB)\n",
				e.Name(), ds.Len(), shards, indexPath, float64(e.SizeBytes())/(1<<20))
		} else {
			fmt.Printf("indexed %d graphs with %s across %d shards in %v (%d restored, total size %.2f MB)\n",
				ds.Len(), e.Name(), shards, st.Elapsed.Round(time.Millisecond),
				e.RestoredShards(), float64(e.SizeBytes())/(1<<20))
		}
	case *engine.Engine:
		m := e.Method()
		if e.Restored() {
			fmt.Printf("restored %s index for %d graphs from %s (%.2f MB)\n",
				m.Name(), ds.Len(), indexPath, float64(m.SizeBytes())/(1<<20))
		} else {
			st := e.BuildStats()
			fmt.Printf("indexed %d graphs with %s in %v (index size %.2f MB)\n",
				ds.Len(), m.Name(), st.Elapsed.Round(time.Millisecond), float64(st.SizeBytes)/(1<<20))
		}
	case *router.Multi:
		st := e.BuildStats()
		if e.RestoredMethods() == len(e.Methods()) {
			fmt.Printf("restored router indexes over %s (%s policy) for %d graphs from %s (total size %.2f MB)\n",
				strings.Join(e.Methods(), "+"), e.Policy(), ds.Len(), indexPath,
				float64(st.SizeBytes)/(1<<20))
		} else {
			fmt.Printf("indexed %d graphs with router over %s (%s policy) in %v (%d restored, total size %.2f MB)\n",
				ds.Len(), strings.Join(e.Methods(), "+"), e.Policy(),
				st.Elapsed.Round(time.Millisecond), e.RestoredMethods(), float64(st.SizeBytes)/(1<<20))
		}
	}

	if mutating {
		if err := mutateLocal(ctx, q, ds, addPath, removals, verbose); err != nil {
			return err
		}
		if qds == nil {
			return nil // mutation-only invocation
		}
	}

	var cands, answers []graph.IDSet
	var totalTime time.Duration
	for i, qg := range qds.Graphs {
		qctx := ctx
		var tr *obs.Trace
		var root *obs.Span
		if trace {
			tr = obs.NewTrace()
			root = tr.StartSpan(nil, "query")
			qctx = obs.ContextWithSpan(ctx, root)
		}
		res, err := q.Query(qctx, qg)
		if err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		root.End()
		cands = append(cands, res.Candidates)
		answers = append(answers, res.Answers)
		totalTime += res.TotalTime()
		if verbose {
			fmt.Printf("query %3d (%d edges): %4d candidates, %4d answers, %v (filter %v, verify %v) via %s\n",
				i, qg.NumEdges(), len(res.Candidates), len(res.Answers),
				res.TotalTime().Round(time.Microsecond),
				res.FilterTime.Round(time.Microsecond), res.VerifyTime.Round(time.Microsecond),
				res.Method)
		}
		if trace {
			tr.Tree().Fprint(os.Stdout)
		}
	}
	n := len(qds.Graphs)
	if n == 0 {
		return fmt.Errorf("no queries in %s", queryPath)
	}
	fmt.Printf("%d queries: avg time %v, false positive ratio %.4f\n",
		n, (totalTime / time.Duration(n)).Round(time.Microsecond),
		workload.FalsePositiveRatio(cands, answers))
	if m, ok := q.(*router.Multi); ok {
		snap := m.Stats()
		fmt.Printf("routing (%s):", snap.Policy)
		for _, ms := range snap.Methods {
			fmt.Printf(" %s %.0f%%", ms.Method, 100*ms.WinRate)
		}
		fmt.Printf(" (raced %d, explored %d)\n", snap.Raced, snap.Explored)
	}
	return nil
}
