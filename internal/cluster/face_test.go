package cluster_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/testutil/leak"
)

// TestMutationLegHonoursNodeTimeout: each mutation leg runs under its own
// NodeTimeout. With the shard's first owner stalled far past it, the add
// returns promptly, acked by the replica, and the stalled owner is marked
// stale — instead of holding the mutation lock for the whole request and
// then failing every later owner on the expired context.
func TestMutationLegHonoursNodeTimeout(t *testing.T) {
	t.Cleanup(leak.Check(t)) // registered before startCluster: runs after tc.close
	ds := testDataset(t)
	ctx := context.Background()
	const shards = 4
	tc := startCluster(t, "Grapes:maxPathLen=3", 3, shards, 2, cluster.CoordConfig{
		NodeTimeout: 200 * time.Millisecond,
	})
	id := graph.ID(len(ds.Graphs))
	s := engine.ShardOf(id, shards)
	stalled := tc.man.Owners(s)[0]
	tc.hooks[stalled].mutateDelayMs.Store(5000)

	add := gen.Synthetic(gen.SynthConfig{NumGraphs: 1, MeanNodes: 8, MeanDensity: 0.3, NumLabels: 4, Seed: 99})
	t0 := time.Now()
	got, err := tc.coord.AddGraph(ctx, tc.inCluster(t, add.Graphs[0], add))
	if err != nil {
		t.Fatalf("add with a stalled owner: %v (the replica should have acked)", err)
	}
	if elapsed := time.Since(t0); elapsed > 2*time.Second {
		t.Errorf("add took %v with NodeTimeout 200ms", elapsed)
	}
	if got != id {
		t.Errorf("add assigned id %d, want %d", got, id)
	}
	for _, row := range tc.coord.Stats().Nodes {
		if row.Name == tc.man.Nodes[stalled].Name && fmt.Sprint(row.Stale) != fmt.Sprint([]int{s}) {
			t.Errorf("stalled owner %s stale shards %v, want [%d]", row.Name, row.Stale, s)
		}
	}
}

// TestNodeErrorsCounted: every failed node request counts in
// sq_node_requests_total{kind="errors"} — a bad ?after= and a repeated
// shard on a stream and a malformed add body included.
func TestNodeErrorsCounted(t *testing.T) {
	node, err := cluster.NewNode(context.Background(), testDataset(t), cluster.NodeConfig{
		Name: "n", Spec: "noindex", ShardCount: 2, Shards: []int{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ns := cluster.NewNodeServer(node, cluster.NodeServerConfig{})
	ts := httptest.NewServer(ns.Handler())
	defer ts.Close()
	errs := ns.Registry().Family("sq_node_requests_total").Counter("errors")
	before := errs.Value()

	ds := testDataset(t)
	// A repeated shard would stream as two legs, each answer twice. The
	// long list of distinct ids is refused at its first id out of range,
	// before any repeat check could grow with the list.
	long := make([]string, 100000)
	for i := range long {
		long[i] = strconv.Itoa(i)
	}
	for _, params := range []string{"shards=0&after=xyz", "shards=0,0", "shards=2", "shards=" + strings.Join(long, ",")} {
		resp := clusterPostJSON(t, ts.URL+"/node/query?"+params, toWire(testQueries(t, ds)[0], ds))
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", params, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/node/graphs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad add body: status %d, want 400", resp.StatusCode)
	}
	if d := errs.Value() - before; d != 5 {
		t.Errorf("errors counter moved by %d, want 5", d)
	}
}

// TestNodeStreamObserved: a node accounts a streamed leg like any query —
// a coordinator stream moves each involved node's per-method latency
// histogram.
func TestNodeStreamObserved(t *testing.T) {
	ds := testDataset(t)
	tc := startCluster(t, "Grapes:maxPathLen=3", 3, 4, 2, cluster.CoordConfig{})
	count := func(i int) int64 {
		return tc.nodeServers[i].Registry().Family("sq_query_duration_seconds").Histogram(tc.coord.Name()).Count()
	}
	before := make([]int64, len(tc.nodes))
	for i := range before {
		before[i] = count(i)
	}
	for _, err := range tc.coord.Stream(context.Background(), tc.inCluster(t, testQueries(t, ds)[0], ds)) {
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
	}
	// Replication 2 over 3 nodes: every node leads a shard in wave 0.
	for i := range before {
		if got := count(i); got <= before[i] {
			t.Errorf("node %d: sq_query_duration_seconds count %d after a stream, was %d", i, got, before[i])
		}
	}
}

// TestCoordinatorFaceCountsAgree: on the coordinator's serving face, the
// graph count in /stats, in a mutation's response, and in /cluster are one
// number, after an add and after a remove.
func TestCoordinatorFaceCountsAgree(t *testing.T) {
	ds := testDataset(t)
	tc := startCluster(t, "Grapes:maxPathLen=3", 3, 4, 2, cluster.CoordConfig{})
	ts := tc.serve(t, server.Config{})
	agree := func(step string, mr server.MutationResponse) {
		t.Helper()
		st := clusterDecode[server.StatsResponse](t, mustGetOK(t, ts.URL+"/stats"))
		cl := clusterDecode[cluster.ClusterStats](t, mustGetOK(t, ts.URL+"/cluster"))
		if st.Graphs != mr.Graphs || cl.Graphs != mr.Graphs || st.Epoch != mr.Epoch {
			t.Errorf("%s: /stats graphs %d epoch %d, mutation graphs %d epoch %d, /cluster graphs %d",
				step, st.Graphs, st.Epoch, mr.Graphs, mr.Epoch, cl.Graphs)
		}
	}
	add := clusterPostJSON(t, ts.URL+"/graphs", toWire(ds.Graphs[0], ds))
	if add.StatusCode != http.StatusOK {
		t.Fatalf("POST /graphs: %s", add.Status)
	}
	mr := clusterDecode[server.MutationResponse](t, add)
	if mr.Graphs != ds.Len()+1 {
		t.Errorf("graphs after one add = %d, want %d", mr.Graphs, ds.Len()+1)
	}
	agree("add", mr)

	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/graphs/%d", ts.URL, 3), nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if del.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /graphs/3: %s", del.Status)
	}
	mr = clusterDecode[server.MutationResponse](t, del)
	if mr.Graphs != ds.Len() {
		t.Errorf("graphs after an add and a remove = %d, want %d", mr.Graphs, ds.Len())
	}
	agree("remove", mr)
}

func mustGetOK(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	return resp
}

// TestNewCoordinatorRefusesOwnerlessShard: a coordinator started while
// every owner of some shard is down would not know that shard's labels, so
// it refuses to start, naming the shards.
func TestNewCoordinatorRefusesOwnerlessShard(t *testing.T) {
	tc := startCluster(t, "Grapes:maxPathLen=3", 3, 4, 1, cluster.CoordConfig{})
	const victim = 1
	tc.kill(victim)
	c, err := cluster.NewCoordinator(context.Background(), tc.man, cluster.CoordConfig{
		ProbeInterval: -1, HedgeDelay: -1, NodeTimeout: time.Second, Logf: t.Logf,
	})
	if err == nil {
		c.Close()
		t.Fatal("NewCoordinator started with every owner of a shard down")
	}
	if want := fmt.Sprint(tc.man.ShardsOf(victim)); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the ownerless shards %s", err, want)
	}
}

// TestUnknownLabelNoFanout: a query naming a label no node knows is
// answered 200 and empty by the serving layer's short-circuit, without a
// fan-out.
func TestUnknownLabelNoFanout(t *testing.T) {
	tc := startCluster(t, "Grapes:maxPathLen=3", 3, 4, 2, cluster.CoordConfig{})
	ts := tc.serve(t, server.Config{})
	before := tc.coord.Stats().Requests.Query
	resp := clusterPostJSON(t, ts.URL+"/query", server.GraphJSON{Vertices: []string{"no-such-label"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unknown label: %s, want 200", resp.Status)
	}
	qr := clusterDecode[server.QueryResponse](t, resp)
	if len(qr.Answers) != 0 || len(qr.Candidates) != 0 || qr.Partial {
		t.Errorf("unknown label answered %+v, want empty and complete", qr)
	}
	if after := tc.coord.Stats().Requests.Query; after != before {
		t.Errorf("sq_cluster_requests_total{kind=\"query\"} moved %d -> %d: the query fanned out", before, after)
	}
}

// TestPartialThroughTheFace: with an unreplicated node down, the serving
// face renders the coordinator's FailedShards — "partial" and the lost
// shards on a one-shot answer, a limit=N answer, and the stream's done
// line — never a silently truncated answer.
func TestPartialThroughTheFace(t *testing.T) {
	ds := testDataset(t)
	tc := startCluster(t, "Grapes:maxPathLen=3", 3, 4, 1, cluster.CoordConfig{})
	ts := tc.serve(t, server.Config{})
	const victim = 1
	lost := fmt.Sprint(tc.man.ShardsOf(victim))
	tc.kill(victim)
	gj := toWire(testQueries(t, ds)[0], ds)

	for _, path := range []string{"/query", "/query?limit=1"} {
		qr := clusterDecode[server.QueryResponse](t, clusterPostJSON(t, ts.URL+path, gj))
		if !qr.Partial || fmt.Sprint(qr.FailedShards) != lost {
			t.Errorf("%s with node %d down: partial=%v failed shards %v, want true %s", path, victim, qr.Partial, qr.FailedShards, lost)
		}
	}
	resp := clusterPostJSON(t, ts.URL+"/query?stream=1", gj)
	defer resp.Body.Close()
	var last server.StreamLine
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		last = server.StreamLine{}
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
	}
	if !last.Done || !last.Partial || fmt.Sprint(last.FailedShards) != lost {
		t.Errorf("stream done line %+v, want done and partial with failed shards %s", last, lost)
	}
}
