package cluster_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	_ "repro/internal/engine/std"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/testutil/leak"
	"repro/internal/workload"
)

// testDataset returns a fresh, deterministic copy of the test dataset.
// Every node gets its own copy, exactly as every sqnode process loads the
// same file.
func testDataset(t testing.TB) *graph.Dataset {
	t.Helper()
	return gen.Synthetic(gen.SynthConfig{
		NumGraphs: 25, MeanNodes: 14, MeanDensity: 0.2, NumLabels: 4, Seed: 41,
	})
}

func testQueries(t testing.TB, ds *graph.Dataset) []*graph.Graph {
	t.Helper()
	qs, err := workload.Generate(ds, workload.Config{NumQueries: 4, QueryEdges: 5, Seed: 42})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	return qs
}

// nodeHooks injects faults into one node's HTTP face.
type nodeHooks struct {
	queryDelayMs   atomic.Int64 // sleep before serving /node/query (ctx-aware)
	writeDelayMs   atomic.Int64 // sleep before each response write on /node/query
	failMutate     atomic.Bool  // 500 every POST /node/graphs
	mutateDelayMs  atomic.Int64 // sleep before serving POST /node/graphs (ctx-aware)
	metricsDelayMs atomic.Int64 // sleep before serving /metrics (ctx-aware)

	// wrote is signalled, without blocking, after each delayed write.
	wrote chan struct{}
}

// slowWriter delays each Write so a streamed response trickles out,
// keeping the connection killable mid-stream. Flush passes through (the
// node handler type-asserts http.Flusher) and Unwrap keeps
// http.NewResponseController working.
type slowWriter struct {
	http.ResponseWriter
	d     time.Duration
	ctx   context.Context
	wrote chan struct{}
}

func (sw *slowWriter) Write(p []byte) (int, error) {
	select {
	case <-time.After(sw.d):
	case <-sw.ctx.Done():
		return 0, sw.ctx.Err()
	}
	n, err := sw.ResponseWriter.Write(p)
	select {
	case sw.wrote <- struct{}{}:
	default:
	}
	return n, err
}

func (sw *slowWriter) Flush() {
	if fl, ok := sw.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

func (sw *slowWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

func (h *nodeHooks) wrap(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if d := h.metricsDelayMs.Load(); d > 0 && r.URL.Path == "/metrics" {
			select {
			case <-time.After(time.Duration(d) * time.Millisecond):
			case <-r.Context().Done():
				return
			}
		}
		if d := h.queryDelayMs.Load(); d > 0 && r.URL.Path == "/node/query" {
			// Read the body first, so a cancelled leg cancels the stall.
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			select {
			case <-time.After(time.Duration(d) * time.Millisecond):
			case <-r.Context().Done():
				return
			}
		}
		if d := h.mutateDelayMs.Load(); d > 0 && r.Method == http.MethodPost && r.URL.Path == "/node/graphs" {
			// Read the body first: only then does net/http watch the
			// connection, so a client that gives up cancels the stall.
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			select {
			case <-time.After(time.Duration(d) * time.Millisecond):
			case <-r.Context().Done():
				return
			}
		}
		if h.failMutate.Load() && r.Method == http.MethodPost && r.URL.Path == "/node/graphs" {
			http.Error(w, `{"error":"injected mutation failure"}`, http.StatusInternalServerError)
			return
		}
		if d := h.writeDelayMs.Load(); d > 0 && r.URL.Path == "/node/query" {
			w = &slowWriter{ResponseWriter: w, d: time.Duration(d) * time.Millisecond, ctx: r.Context(), wrote: h.wrote}
		}
		inner.ServeHTTP(w, r)
	})
}

// testCluster is an in-process cluster: N sqnode-equivalents behind
// httptest listeners plus a coordinator, faults injectable per node.
type testCluster struct {
	man         *cluster.Manifest
	coord       *cluster.Coordinator
	nodes       []*cluster.Node
	nodeServers []*cluster.NodeServer
	servers     []*httptest.Server
	hooks       []*nodeHooks
}

func startCluster(t testing.TB, spec string, nNodes, shards, replication int, cfg cluster.CoordConfig) *testCluster {
	t.Helper()
	return startClusterWith(t, func() *graph.Dataset { return testDataset(t) }, spec, nNodes, shards, replication, cfg)
}

// startClusterWith is startCluster over an arbitrary per-node dataset
// factory (each node loads its own copy, as each sqnode process would).
func startClusterWith(t testing.TB, mkDS func() *graph.Dataset, spec string, nNodes, shards, replication int, cfg cluster.CoordConfig) *testCluster {
	t.Helper()
	ctx := context.Background()
	tc := &testCluster{}

	// Placement is a pure function of the topology, so nodes derive their
	// shard lists before the manifest has real addresses.
	skeleton := &cluster.Manifest{Shards: shards, Replication: replication}
	for i := 0; i < nNodes; i++ {
		skeleton.Nodes = append(skeleton.Nodes, cluster.NodeInfo{Name: fmt.Sprintf("n%d", i), Addr: "pending"})
	}
	man := &cluster.Manifest{Shards: shards, Replication: replication}
	for i := 0; i < nNodes; i++ {
		node, err := cluster.NewNode(ctx, mkDS(), cluster.NodeConfig{
			Name:       fmt.Sprintf("n%d", i),
			Spec:       spec,
			ShardCount: shards,
			Shards:     skeleton.ShardsOf(i),
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		ns := cluster.NewNodeServer(node, cluster.NodeServerConfig{})
		hooks := &nodeHooks{wrote: make(chan struct{}, 1)}
		srv := httptest.NewServer(hooks.wrap(ns.Handler()))
		tc.nodes = append(tc.nodes, node)
		tc.nodeServers = append(tc.nodeServers, ns)
		tc.servers = append(tc.servers, srv)
		tc.hooks = append(tc.hooks, hooks)
		man.Nodes = append(man.Nodes, cluster.NodeInfo{Name: fmt.Sprintf("n%d", i), Addr: srv.URL})
	}
	tc.man = man

	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = -1 // tests drive ProbeOnce explicitly
	}
	if cfg.HedgeDelay == 0 {
		cfg.HedgeDelay = -1
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	coord, err := cluster.NewCoordinator(ctx, man, cfg)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	tc.coord = coord
	t.Cleanup(tc.close)
	return tc
}

func (tc *testCluster) close() {
	if tc.coord != nil {
		tc.coord.Close()
		tc.coord = nil
	}
	for _, s := range tc.servers {
		s.CloseClientConnections()
		s.Close()
	}
	tc.servers = nil
}

// kill severs a node abruptly: every open connection (streams included)
// dies mid-flight and new dials are refused.
func (tc *testCluster) kill(i int) {
	tc.servers[i].CloseClientConnections()
	tc.servers[i].Close()
}

func toWire(q *graph.Graph, ds *graph.Dataset) server.GraphJSON {
	return server.GraphToJSON(q, &ds.Dict)
}

// inCluster re-expresses g, labelled in ds's dictionary, in the
// coordinator's label space — what the serving layer's InternGraph does to
// a wire graph before handing it to the coordinator.
func (tc *testCluster) inCluster(t testing.TB, g *graph.Graph, ds *graph.Dataset) *graph.Graph {
	t.Helper()
	cg, err := server.InternGraph(toWire(g, ds), &tc.coord.Dataset().Dict)
	if err != nil {
		t.Fatalf("converting graph: %v", err)
	}
	return cg
}

// serve starts the coordinator's public face as sqserve -cluster does:
// server.Server over the coordinator, on its registry, cache off, behind
// Coordinator.Handler.
func (tc *testCluster) serve(t testing.TB, cfg server.Config) *httptest.Server {
	t.Helper()
	cfg.Spec, cfg.Registry, cfg.Cache = tc.coord.Name(), tc.coord.Registry(), server.CacheConfig{Disabled: true}
	ts := httptest.NewServer(tc.coord.Handler(server.New(tc.coord, cfg).Handler()))
	t.Cleanup(ts.Close)
	return ts
}

func idsEqual(a, b graph.IDSet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// clusterParitySpecs mirrors the engine parity suite: every registered
// indexing method, with the same tighter mining bounds the in-process
// sharded parity run uses on quarter-size shards.
var clusterParitySpecs = []string{
	"Grapes:maxPathLen=3,workers=2",
	"GraphGrepSX:maxPathLen=3",
	"ctindex:fingerprintBits=512,maxTreeSize=3",
	"gindex:maxPatterns=20000,supportRatio=0.2",
	"treedelta:maxFeatureSize=5,maxPatterns=20000,querySupportToAdd=0.5",
	"gcode:pathLen=1",
	"NoIndex",
}

// TestClusterParityEveryMethod is the acceptance gate: a coordinator over
// three nodes answers every query identically — candidates, answers, and
// the streamed sequence — to the single-process sharded engine with the
// same shard count, for every method.
func TestClusterParityEveryMethod(t *testing.T) {
	ds := testDataset(t)
	queries := testQueries(t, ds)
	ctx := context.Background()
	const shards = 4

	for _, spec := range clusterParitySpecs {
		t.Run(spec, func(t *testing.T) {
			ref, err := engine.OpenSharded(ctx, ds, shards, engine.WithSpec(spec))
			if err != nil {
				t.Fatalf("OpenSharded: %v", err)
			}
			tc := startCluster(t, spec, 3, shards, 2, cluster.CoordConfig{})

			for i, q := range queries {
				want, err := ref.Query(ctx, q)
				if err != nil {
					t.Fatalf("reference query %d: %v", i, err)
				}
				got, err := tc.coord.Query(ctx, tc.inCluster(t, q, ds))
				if err != nil {
					t.Fatalf("cluster query %d: %v", i, err)
				}
				if got.FailedShards != nil {
					t.Fatalf("query %d: partial answer from a healthy cluster", i)
				}
				if !idsEqual(got.Answers, want.Answers) {
					t.Errorf("query %d answers: cluster %v, sharded %v", i, got.Answers, want.Answers)
				}
				if !idsEqual(got.Candidates, want.Candidates) {
					t.Errorf("query %d candidates: cluster %v, sharded %v", i, got.Candidates, want.Candidates)
				}

				var wantStream []graph.ID
				for id, err := range ref.Stream(ctx, q) {
					if err != nil {
						t.Fatalf("reference stream %d: %v", i, err)
					}
					wantStream = append(wantStream, id)
				}
				var gotStream []graph.ID
				var st core.PipelineStats
				for id, err := range tc.coord.StreamStats(ctx, tc.inCluster(t, q, ds), &st) {
					if err != nil {
						t.Fatalf("cluster stream %d: %v", i, err)
					}
					gotStream = append(gotStream, id)
				}
				if st.FailedShards != nil {
					t.Fatalf("stream %d: partial from a healthy cluster", i)
				}
				if !idsEqual(gotStream, wantStream) {
					t.Errorf("query %d stream: cluster %v, sharded %v", i, gotStream, wantStream)
				}
			}
		})
	}
}

// TestClusterMutationParity routes removes and adds through the
// coordinator and checks the cluster keeps answering exactly like a
// single-process mutable engine that applied the same mutations: same
// assigned ids, same answers, epochs propagated to every replica.
func TestClusterMutationParity(t *testing.T) {
	ds := testDataset(t)
	queries := testQueries(t, ds)
	ctx := context.Background()
	const spec = "Grapes:maxPathLen=3"

	flat, err := engine.Open(ctx, ds, engine.WithSpec(spec))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	tc := startCluster(t, spec, 3, 4, 2, cluster.CoordConfig{})

	// Remove two graphs, then add two new ones (interned from another
	// deterministic dataset, as a wire client would submit them).
	for _, id := range []graph.ID{3, 17} {
		if err := flat.RemoveGraph(ctx, id); err != nil {
			t.Fatalf("flat remove %d: %v", id, err)
		}
		if err := tc.coord.RemoveGraph(ctx, id); err != nil {
			t.Fatalf("cluster remove %d: %v", id, err)
		}
	}
	extra := gen.Synthetic(gen.SynthConfig{NumGraphs: 2, MeanNodes: 10, MeanDensity: 0.25, NumLabels: 4, Seed: 77})
	var added []*graph.Graph
	for i, g := range extra.Graphs {
		ig, err := server.InternGraph(toWire(g, extra), &ds.Dict)
		if err != nil {
			t.Fatalf("intern add %d: %v", i, err)
		}
		wantID, err := flat.AddGraph(ctx, ig)
		if err != nil {
			t.Fatalf("flat add %d: %v", i, err)
		}
		gotID, err := tc.coord.AddGraph(ctx, tc.inCluster(t, ig, ds))
		if err != nil {
			t.Fatalf("cluster add %d: %v", i, err)
		}
		if gotID != wantID {
			t.Errorf("add %d: cluster assigned id %d, single-process %d", i, gotID, wantID)
		}
		added = append(added, ig)
	}

	for i, q := range append(append([]*graph.Graph{}, queries...), added...) {
		want, err := flat.Query(ctx, q)
		if err != nil {
			t.Fatalf("flat query %d: %v", i, err)
		}
		got, err := tc.coord.Query(ctx, tc.inCluster(t, q, ds))
		if err != nil {
			t.Fatalf("cluster query %d: %v", i, err)
		}
		if !idsEqual(got.Answers, want.Answers) {
			t.Errorf("query %d answers after mutations: cluster %v, flat %v", i, got.Answers, want.Answers)
		}
	}

	st := tc.coord.Stats()
	if st.Epoch != 4 {
		t.Errorf("cluster epoch %d after 4 mutations, want 4", st.Epoch)
	}
	for _, row := range st.Nodes {
		if len(row.Stale) != 0 {
			t.Errorf("node %s has stale shards %v after healthy mutations", row.Name, row.Stale)
		}
	}

	// Mutations are idempotent at the node protocol (redelivery on retry
	// must be safe): re-removing a tombstoned graph acks, while a genuinely
	// unknown id surfaces as an error.
	if err := tc.coord.RemoveGraph(ctx, 3); err != nil {
		t.Errorf("re-remove of tombstoned graph: %v, want idempotent ack", err)
	}
	if err := tc.coord.RemoveGraph(ctx, 9999); err == nil {
		t.Errorf("remove of unknown graph succeeded, want error")
	}
}

// TestClusterPartialOnNodeLoss: with no replication, killing a node must
// yield flagged partial results naming the lost shards — never a silently
// truncated answer — and queries keep serving the surviving shards.
func TestClusterPartialOnNodeLoss(t *testing.T) {
	ds := testDataset(t)
	queries := testQueries(t, ds)
	ctx := context.Background()
	const shards = 4
	tc := startCluster(t, "Grapes:maxPathLen=3", 3, shards, 1, cluster.CoordConfig{})

	ref, err := engine.OpenSharded(ctx, ds, shards, engine.WithSpec("Grapes:maxPathLen=3"))
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}

	const victim = 1
	lost := tc.man.ShardsOf(victim)
	tc.kill(victim)

	for i, q := range queries {
		got, err := tc.coord.Query(ctx, tc.inCluster(t, q, ds))
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if got.FailedShards == nil {
			t.Fatalf("query %d: node %d dead but answer not flagged partial", i, victim)
		}
		if fmt.Sprint(got.FailedShards) != fmt.Sprint(lost) {
			t.Errorf("query %d failed shards %v, want %v", i, got.FailedShards, lost)
		}
		// The surviving shards' answers must still be exact.
		want, err := ref.Query(ctx, q)
		if err != nil {
			t.Fatalf("reference query %d: %v", i, err)
		}
		lostSet := map[int]bool{}
		for _, s := range lost {
			lostSet[s] = true
		}
		var wantSurviving graph.IDSet
		for _, id := range want.Answers {
			if !lostSet[engine.ShardOf(id, shards)] {
				wantSurviving = append(wantSurviving, id)
			}
		}
		if !idsEqual(got.Answers, wantSurviving) {
			t.Errorf("query %d surviving answers %v, want %v", i, got.Answers, wantSurviving)
		}
	}
	if p := tc.coord.Stats().Fanout.Partials; p == 0 {
		t.Errorf("partials counter is 0 after partial answers")
	}
}

// bestStreamQuery picks the query with the most streamed answers (so a
// kill can land mid-stream) and returns the reference sequences for all.
func bestStreamQuery(t *testing.T, ctx context.Context, ref *engine.Sharded, queries []*graph.Graph) (int, [][]graph.ID) {
	t.Helper()
	best, bestLen := 0, -1
	want := make([][]graph.ID, len(queries))
	for i, q := range queries {
		for id, err := range ref.Stream(ctx, q) {
			if err != nil {
				t.Fatalf("reference stream: %v", err)
			}
			want[i] = append(want[i], id)
		}
		if len(want[i]) > bestLen {
			best, bestLen = i, len(want[i])
		}
	}
	if bestLen < 2 {
		t.Skip("no query streams enough answers to kill mid-stream")
	}
	return best, want
}

// TestClusterStreamFailover: killing a replica-backed node mid-stream loses
// nothing — the replacement legs resume each shard past its last emitted id
// and the merged sequence stays exactly the full answer set, in order.
func TestClusterStreamFailover(t *testing.T) {
	t.Cleanup(leak.Check(t)) // registered before startCluster: runs after tc.close
	ds := testDataset(t)
	queries := testQueries(t, ds)
	ctx := context.Background()
	const shards = 4
	tc := startCluster(t, "Grapes:maxPathLen=3", 3, shards, 2, cluster.CoordConfig{})

	ref, err := engine.OpenSharded(ctx, ds, shards, engine.WithSpec("Grapes:maxPathLen=3"))
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	best, want := bestStreamQuery(t, ctx, ref, queries)

	// Node 0 leads shards 0 and 3 in wave-0; trickle its stream lines so
	// its legs are provably still in flight when the first answer arrives.
	const victim = 0
	tc.hooks[victim].writeDelayMs.Store(40)

	killed := false
	var got []graph.ID
	var st core.PipelineStats
	for id, err := range tc.coord.StreamStats(ctx, tc.inCluster(t, queries[best], ds), &st) {
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		got = append(got, id)
		if !killed {
			killed = true
			tc.kill(victim)
		}
	}
	if st.FailedShards != nil {
		t.Fatalf("stream flagged partial (failed shards %v) despite replicas for every shard", st.FailedShards)
	}
	if !idsEqual(got, want[best]) {
		t.Errorf("failover stream %v, want %v", got, want[best])
	}
	if f := tc.coord.Stats().Fanout.Failovers; f == 0 {
		t.Errorf("failover counter is 0 after mid-stream node loss")
	}
}

// TestClusterQueryFailoverKeepsCandidates: a node killed while a one-shot
// query drains its leg is failed over to the replica, which restarts the
// shards from the beginning, so the candidates as well as the answers equal
// the sharded engine's and nothing is flagged partial.
func TestClusterQueryFailoverKeepsCandidates(t *testing.T) {
	t.Cleanup(leak.Check(t)) // registered before startCluster: runs after tc.close
	ds := testDataset(t)
	ctx := context.Background()
	const shards = 4
	const spec = "Grapes:maxPathLen=3"
	tc := startCluster(t, spec, 3, shards, 2, cluster.CoordConfig{})
	ref, err := engine.OpenSharded(ctx, ds, shards, engine.WithSpec(spec))
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}

	// The victim must owe a line after its first: pick a query with an
	// answer in a shard it leads in wave 0, so its first line is an id and
	// its done line is still to come when it dies.
	const victim = 0
	var q *graph.Graph
	var want *core.QueryResult
	for _, cand := range testQueries(t, ds) {
		res, err := ref.Query(ctx, cand)
		if err != nil {
			t.Fatalf("reference query: %v", err)
		}
		for _, id := range res.Answers {
			if tc.man.Owners(engine.ShardOf(id, shards))[0] == victim {
				q, want = cand, res
			}
		}
	}
	if q == nil {
		t.Skip("no query has an answer on the victim's shards")
	}
	tc.hooks[victim].writeDelayMs.Store(100)

	type result struct {
		res *core.QueryResult
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := tc.coord.Query(ctx, tc.inCluster(t, q, ds))
		done <- result{res, err}
	}()
	<-tc.hooks[victim].wrote
	tc.kill(victim)
	got := <-done
	if got.err != nil {
		t.Fatalf("query: %v", got.err)
	}
	if got.res.FailedShards != nil {
		t.Fatalf("query flagged partial (failed shards %v) despite replicas for every shard", got.res.FailedShards)
	}
	if !idsEqual(got.res.Answers, want.Answers) {
		t.Errorf("answers %v, want %v", got.res.Answers, want.Answers)
	}
	if !idsEqual(got.res.Candidates, want.Candidates) {
		t.Errorf("candidates %v, want %v", got.res.Candidates, want.Candidates)
	}
	if f := tc.coord.Stats().Fanout.Failovers; f == 0 {
		t.Errorf("failover counter is 0 after a node died mid-leg")
	}
}

// TestClusterStreamPartialOnUnreplicatedLoss: without replicas, a node
// dying mid-stream ends the stream with the partial flag and the lost
// shards reported — the emitted prefix stays correct, the truncation loud.
func TestClusterStreamPartialOnUnreplicatedLoss(t *testing.T) {
	t.Cleanup(leak.Check(t)) // registered before startCluster: runs after tc.close
	ds := testDataset(t)
	queries := testQueries(t, ds)
	ctx := context.Background()
	const shards = 4
	tc := startCluster(t, "Grapes:maxPathLen=3", 3, shards, 1, cluster.CoordConfig{})

	ref, err := engine.OpenSharded(ctx, ds, shards, engine.WithSpec("Grapes:maxPathLen=3"))
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	best, want := bestStreamQuery(t, ctx, ref, queries)

	// The victim must still owe answers when the first id is emitted, or
	// its leg completes before the kill: take the sole owner of the shard
	// holding the query's last answer.
	lastID := want[best][len(want[best])-1]
	victim := tc.man.Owners(engine.ShardOf(lastID, shards))[0]
	tc.hooks[victim].writeDelayMs.Store(40)

	killed := false
	var got []graph.ID
	var st core.PipelineStats
	for id, err := range tc.coord.StreamStats(ctx, tc.inCluster(t, queries[best], ds), &st) {
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		got = append(got, id)
		if !killed {
			killed = true
			tc.kill(victim)
		}
	}
	if st.FailedShards == nil {
		t.Fatalf("unreplicated node died mid-stream but the stream was not flagged partial")
	}
	if len(st.FailedShards) == 0 {
		t.Fatalf("partial stream names no failed shards")
	}
	// Everything emitted must be a true answer, strictly ascending.
	wantSet := map[graph.ID]bool{}
	for _, id := range want[best] {
		wantSet[id] = true
	}
	for i, id := range got {
		if !wantSet[id] {
			t.Errorf("emitted %d is not an answer", id)
		}
		if i > 0 && got[i-1] >= id {
			t.Errorf("stream not strictly ascending at %d: %v", i, got)
		}
	}
}

// TestHedgedQueryCancelsLoser: a slow primary is hedged to its replica
// after HedgeDelay; the replica's result wins, the answer stays exact, and
// the losing leg is canceled — no goroutine outlives the teardown (the
// suite runs under -race, which would also flag an unsynchronized loser).
func TestHedgedQueryCancelsLoser(t *testing.T) {
	t.Cleanup(leak.Check(t)) // registered before startCluster: runs after tc.close
	ds := testDataset(t)
	queries := testQueries(t, ds)
	ctx := context.Background()
	const shards = 4

	tc := startCluster(t, "Grapes:maxPathLen=3", 3, shards, 2, cluster.CoordConfig{
		HedgeDelay: 25 * time.Millisecond,
	})
	ref, err := engine.OpenSharded(ctx, ds, shards, engine.WithSpec("Grapes:maxPathLen=3"))
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	// Every leg through node 0 stalls well past the hedge delay.
	tc.hooks[0].queryDelayMs.Store(2000)

	for i, q := range queries {
		t0 := time.Now()
		got, err := tc.coord.Query(ctx, tc.inCluster(t, q, ds))
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if got.FailedShards != nil {
			t.Fatalf("query %d partial under hedging", i)
		}
		want, err := ref.Query(ctx, q)
		if err != nil {
			t.Fatalf("reference query %d: %v", i, err)
		}
		if !idsEqual(got.Answers, want.Answers) {
			t.Errorf("query %d hedged answers %v, want %v", i, got.Answers, want.Answers)
		}
		if e := time.Since(t0); e > time.Second {
			t.Errorf("query %d took %v: hedge did not shortcut the slow primary", i, e)
		}
	}
	fo := tc.coord.Stats().Fanout
	if fo.HedgesFired == 0 || fo.HedgesWon == 0 {
		t.Errorf("hedges fired=%d won=%d, want both > 0", fo.HedgesFired, fo.HedgesWon)
	}
	// The losers were canceled when their shards resolved; the leak check
	// registered above verifies nothing lingers after teardown.
}

// TestClusterStreamHedges: a stream hedges like a one-shot query. With the
// primary of two shards stalled far past HedgeDelay, its shards resolve
// through a duplicate leg on their replica: the stream finishes promptly,
// equals the sharded engine's sequence, and the stalled leg is cancelled
// — no goroutine outlives the teardown.
func TestClusterStreamHedges(t *testing.T) {
	t.Cleanup(leak.Check(t)) // registered before startCluster: runs after tc.close
	ds := testDataset(t)
	queries := testQueries(t, ds)
	ctx := context.Background()
	const shards = 4
	tc := startCluster(t, "Grapes:maxPathLen=3", 3, shards, 2, cluster.CoordConfig{
		HedgeDelay: 25 * time.Millisecond,
	})
	ref, err := engine.OpenSharded(ctx, ds, shards, engine.WithSpec("Grapes:maxPathLen=3"))
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	tc.hooks[0].queryDelayMs.Store(2000)

	for i, q := range queries {
		var want []graph.ID
		for id, err := range ref.Stream(ctx, q) {
			if err != nil {
				t.Fatalf("reference stream %d: %v", i, err)
			}
			want = append(want, id)
		}
		t0 := time.Now()
		var got []graph.ID
		var st core.PipelineStats
		for id, err := range tc.coord.StreamStats(ctx, tc.inCluster(t, q, ds), &st) {
			if err != nil {
				t.Fatalf("stream %d: %v", i, err)
			}
			got = append(got, id)
		}
		if e := time.Since(t0); e > time.Second {
			t.Errorf("stream %d took %v: no hedge shortcut the stalled primary", i, e)
		}
		if st.FailedShards != nil {
			t.Fatalf("stream %d partial under hedging (failed shards %v)", i, st.FailedShards)
		}
		if !idsEqual(got, want) {
			t.Errorf("stream %d: hedged %v, want %v", i, got, want)
		}
	}
	if fo := tc.coord.Stats().Fanout; fo.HedgesWon == 0 {
		t.Errorf("hedges fired=%d won=%d, want won > 0", fo.HedgesFired, fo.HedgesWon)
	}
}

// TestClusterLegFirstLineTimeout: NodeTimeout bounds a query leg's wait for
// its first line. With an unreplicated node stalled past it, a one-shot
// query returns promptly, flagged partial with that node's shards.
func TestClusterLegFirstLineTimeout(t *testing.T) {
	t.Cleanup(leak.Check(t)) // registered before startCluster: runs after tc.close
	ds := testDataset(t)
	const victim = 1
	tc := startCluster(t, "Grapes:maxPathLen=3", 3, 4, 1, cluster.CoordConfig{
		NodeTimeout: 200 * time.Millisecond,
	})
	tc.hooks[victim].queryDelayMs.Store(5000)
	t0 := time.Now()
	got, err := tc.coord.Query(context.Background(), tc.inCluster(t, testQueries(t, ds)[0], ds))
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if e := time.Since(t0); e > 2*time.Second {
		t.Errorf("query took %v with NodeTimeout 200ms", e)
	}
	if want := fmt.Sprint(tc.man.ShardsOf(victim)); fmt.Sprint(got.FailedShards) != want {
		t.Errorf("failed shards %v, want %s", got.FailedShards, want)
	}
}

// TestClusterRereplication: when a node dies, the prober re-replicates its
// shards onto surviving nodes (from a fresh owner's dump for mutated
// shards, a local rebuild otherwise) and the cluster serves complete,
// mutation-current answers again.
func TestClusterRereplication(t *testing.T) {
	ds := testDataset(t)
	queries := testQueries(t, ds)
	ctx := context.Background()
	const shards = 4
	tc := startCluster(t, "Grapes:maxPathLen=3", 3, shards, 2, cluster.CoordConfig{})

	flat, err := engine.Open(ctx, ds, engine.WithSpec("Grapes:maxPathLen=3"))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Mutate before the crash so re-replication must carry epochs, not
	// just rebuild from the dataset file.
	if err := flat.RemoveGraph(ctx, 5); err != nil {
		t.Fatalf("flat remove: %v", err)
	}
	if err := tc.coord.RemoveGraph(ctx, 5); err != nil {
		t.Fatalf("cluster remove: %v", err)
	}

	tc.kill(0)
	tc.coord.ProbeOnce(ctx)

	st := tc.coord.Stats()
	if st.Fanout.Rereplicated == 0 {
		t.Fatalf("no shards re-replicated after node loss (fanout %+v)", st.Fanout)
	}
	for i, q := range queries {
		got, err := tc.coord.Query(ctx, tc.inCluster(t, q, ds))
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if got.FailedShards != nil {
			t.Fatalf("query %d partial after re-replication (failed %v)", i, got.FailedShards)
		}
		want, err := flat.Query(ctx, q)
		if err != nil {
			t.Fatalf("flat query %d: %v", i, err)
		}
		if !idsEqual(got.Answers, want.Answers) {
			t.Errorf("query %d answers %v, want %v", i, got.Answers, want.Answers)
		}
	}
}

// TestClusterStaleReplicaRecovery: a replica that misses a mutation is
// marked stale and excluded from fan-out, then refreshed from a fresh
// owner by the prober.
func TestClusterStaleReplicaRecovery(t *testing.T) {
	ds := testDataset(t)
	ctx := context.Background()
	const shards = 4
	tc := startCluster(t, "Grapes:maxPathLen=3", 3, shards, 2, cluster.CoordConfig{})

	// The coordinator allocates the next id above the dataset maximum, so
	// the first add's shard — and its replica — are known up front.
	id := graph.ID(len(ds.Graphs))
	s := engine.ShardOf(id, shards)
	replica := tc.man.Owners(s)[1]

	// The replica rejects the routed add: it misses the mutation.
	tc.hooks[replica].failMutate.Store(true)
	add := gen.Synthetic(gen.SynthConfig{NumGraphs: 1, MeanNodes: 8, MeanDensity: 0.3, NumLabels: 4, Seed: 99})
	addG := tc.inCluster(t, add.Graphs[0], add)
	gotID, err := tc.coord.AddGraph(ctx, addG)
	if err != nil {
		t.Fatalf("add: %v", err)
	}
	if gotID != id {
		t.Fatalf("add assigned id %d, want %d", gotID, id)
	}

	stale := func() []int {
		for _, row := range tc.coord.Stats().Nodes {
			if row.Name == tc.man.Nodes[replica].Name {
				return row.Stale
			}
		}
		return nil
	}
	if got := stale(); len(got) != 1 || got[0] != s {
		t.Fatalf("replica %d missed the mutation on shard %d but its stale set is %v", replica, s, got)
	}

	// Heal the replica and let the prober repair it from the fresh owner.
	tc.hooks[replica].failMutate.Store(false)
	tc.coord.ProbeOnce(ctx)
	if got := stale(); len(got) != 0 {
		t.Fatalf("replica still stale after repair: %v", got)
	}
	if tc.coord.Stats().Fanout.Rereplicated == 0 {
		t.Errorf("rereplicated counter is 0 after stale repair")
	}

	// The repaired replica now answers the added graph: queries stay full
	// even with the shard's other owner gone.
	tc.kill(tc.man.Owners(s)[0])
	got, err := tc.coord.Query(ctx, addG)
	if err != nil {
		t.Fatalf("query after repair: %v", err)
	}
	if got.FailedShards != nil {
		t.Fatalf("query partial after repair (failed %v)", got.FailedShards)
	}
	found := false
	for _, a := range got.Answers {
		if a == id {
			found = true
		}
	}
	if !found {
		t.Errorf("added graph %d missing from answers %v served by the repaired replica", id, got.Answers)
	}
}

// TestClusterStreamRejectsStaleOwner: an owner reloaded from its dataset
// file — what a restarted sqnode does — serves a mutated shard at epoch 0,
// without the mutation. A stream never takes that owner's answers: the node
// refuses the leg below the epoch the shard requires, and the coordinator
// counts the rejection, marks the owner stale and fails the shard over, the
// one staleness rule of every leg.
func TestClusterStreamRejectsStaleOwner(t *testing.T) {
	t.Cleanup(leak.Check(t)) // registered before startCluster: runs after tc.close
	ds := testDataset(t)
	ctx := context.Background()
	const shards = 4
	tc := startCluster(t, "Grapes:maxPathLen=3", 3, shards, 2, cluster.CoordConfig{})

	// The first add's id, hence its shard and that shard's primary, are
	// known up front; both owners ack the add.
	id := graph.ID(len(ds.Graphs))
	s := engine.ShardOf(id, shards)
	primary := tc.man.Owners(s)[0]
	add := gen.Synthetic(gen.SynthConfig{NumGraphs: 1, MeanNodes: 8, MeanDensity: 0.3, NumLabels: 4, Seed: 99})
	addG := tc.inCluster(t, add.Graphs[0], add)
	if gotID, err := tc.coord.AddGraph(ctx, addG); err != nil || gotID != id {
		t.Fatalf("add: id %d, err %v; want id %d", gotID, err, id)
	}
	if err := tc.nodes[primary].LoadLocal(ctx, s); err != nil {
		t.Fatal(err)
	}

	var got graph.IDSet
	for gid, err := range tc.coord.Stream(ctx, addG) {
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		got = append(got, gid)
	}
	if !got.Contains(id) {
		t.Fatalf("stream %v omits graph %d: the stale owner's leg was taken", got, id)
	}
	st := tc.coord.Stats()
	if st.Fanout.StaleRejected != 1 {
		t.Errorf("stale_rejected %d after one stale leg, want 1", st.Fanout.StaleRejected)
	}
	if stale := st.Nodes[primary].Stale; len(stale) != 1 || stale[0] != s {
		t.Errorf("primary's stale shards %v, want [%d]", stale, s)
	}
	want, err := tc.coord.Query(ctx, addG)
	if err != nil {
		t.Fatal(err)
	}
	if !idsEqual(got, want.Answers) {
		t.Errorf("stream %v, one-shot answers %v", got, want.Answers)
	}
}

// TestNodeDumpInstallRoundTrip: a shard moved by dump/install answers
// identically on the receiving node, epoch and id-allocation state intact.
func TestNodeDumpInstallRoundTrip(t *testing.T) {
	ctx := context.Background()
	const shards = 4
	src, err := cluster.NewNode(ctx, testDataset(t), cluster.NodeConfig{
		Name: "src", Spec: "Grapes:maxPathLen=3", ShardCount: shards, Shards: []int{1},
	})
	if err != nil {
		t.Fatalf("src node: %v", err)
	}
	dst, err := cluster.NewNode(ctx, testDataset(t), cluster.NodeConfig{
		Name: "dst", Spec: "Grapes:maxPathLen=3", ShardCount: shards, Shards: nil,
	})
	if err != nil {
		t.Fatalf("dst node: %v", err)
	}
	graphs, epoch, maxID, err := src.Dump(1)
	if err != nil {
		t.Fatalf("dump: %v", err)
	}
	if err := dst.Install(ctx, 1, epoch, maxID, graphs); err != nil {
		t.Fatalf("install: %v", err)
	}
	ds := testDataset(t)
	for i, q := range testQueries(t, ds) {
		want, got := cluster.NodeAnswers(t, src, 1, q), cluster.NodeAnswers(t, dst, 1, q)
		if !idsEqual(got, want) {
			t.Errorf("query %d: installed shard answers %v, want %v", i, got, want)
		}
	}
	info := dst.Info()
	if len(info.Shards) != 1 || info.Shards[0].Shard != 1 {
		t.Fatalf("dst serves %+v, want shard 1", info.Shards)
	}
	if info.MaxGlobalID != maxID {
		t.Errorf("dst max id %d, want %d", info.MaxGlobalID, maxID)
	}
}
