package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	_ "repro/internal/engine/std"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/testutil/leak"
)

// traceQuery POSTs one query through the coordinator's serving face with
// an X-Sq-Trace header and returns the decoded response.
func traceQuery(t *testing.T, srv *httptest.Server, gj server.GraphJSON, traceID string) server.QueryResponse {
	t.Helper()
	body, err := json.Marshal(gj)
	if err != nil {
		t.Fatalf("marshal query: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("build request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	var qr server.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return qr
}

// TestClusterTracePropagation: a trace id supplied to the coordinator's
// public face round-trips to every node and back — the echoed tree is one
// cross-process span tree: the serving layer's "query" root holds the
// coordinator's "cluster-query" span, which holds one leg span per fan-out
// leg, each grafted with the node's own subtree (identified by the node
// name it stamps), all under the same trace id.
func TestClusterTracePropagation(t *testing.T) {
	t.Cleanup(leak.Check(t)) // registered before startCluster: runs after tc.close
	ds := testDataset(t)
	queries := testQueries(t, ds)
	const shards = 4
	tc := startCluster(t, "Grapes:maxPathLen=3", 3, shards, 1, cluster.CoordConfig{})
	srv := tc.serve(t, server.Config{})

	const traceID = "0123abcd"
	qr := traceQuery(t, srv, toWire(queries[0], ds), traceID)
	if qr.Trace == nil {
		t.Fatalf("response carries no trace despite %s header", obs.TraceHeader)
	}
	if qr.Trace.TraceID != traceID {
		t.Errorf("echoed trace id %q, want %q", qr.Trace.TraceID, traceID)
	}
	if qr.Trace.Name != "query" {
		t.Errorf("root span %q, want query", qr.Trace.Name)
	}
	child := false
	for _, c := range qr.Trace.Children {
		child = child || c.Name == "cluster-query"
	}
	if !child {
		t.Errorf("root span has no cluster-query child: %+v", qr.Trace.Children)
	}

	// With replication 1 on 3 nodes, wave-0 fans out to every node: the
	// tree must link one leg span per node, each carrying the node's own
	// grafted subtree stamped with its name.
	legs := 0
	nodeSubtrees := map[string]bool{}
	qr.Trace.Walk(func(st *obs.SpanTree) {
		if strings.HasPrefix(st.Name, "node:") {
			legs++
		}
		if st.Node != "" && st.Name == "node-query" {
			nodeSubtrees[st.Node] = true
		}
	})
	if legs != 3 {
		t.Errorf("trace has %d leg spans, want 3", legs)
	}
	if len(nodeSubtrees) != 3 {
		t.Errorf("trace links %d node subtrees (%v), want 3", len(nodeSubtrees), nodeSubtrees)
	}
}

// TestClusterTraceHedgedLoserCancelled: under hedging, the losing leg's
// span survives in the tree marked cancelled — the trace shows the hedge
// happened rather than silently dropping the abandoned leg. The leak check
// proves the loser's goroutine ended before teardown.
func TestClusterTraceHedgedLoserCancelled(t *testing.T) {
	t.Cleanup(leak.Check(t)) // registered before startCluster: runs after tc.close
	ds := testDataset(t)
	queries := testQueries(t, ds)
	const shards = 4
	tc := startCluster(t, "Grapes:maxPathLen=3", 3, shards, 2, cluster.CoordConfig{
		HedgeDelay: 25 * time.Millisecond,
	})
	srv := tc.serve(t, server.Config{})

	// Every leg through node 0 stalls well past the hedge delay, so its
	// shards resolve through hedged replicas and the stalled legs are
	// cancelled when the fan-out completes.
	tc.hooks[0].queryDelayMs.Store(2000)

	qr := traceQuery(t, srv, toWire(queries[0], ds), "feedbeef")
	if qr.Trace == nil {
		t.Fatalf("response carries no trace")
	}
	cancelled, completed := 0, 0
	qr.Trace.Walk(func(st *obs.SpanTree) {
		if !strings.HasPrefix(st.Name, "node:") {
			return
		}
		if st.Cancelled {
			cancelled++
		} else {
			completed++
		}
	})
	if cancelled == 0 {
		t.Errorf("no leg span marked cancelled despite a stalled, hedged-over primary")
	}
	if completed == 0 {
		t.Errorf("no leg span completed")
	}
	if fo := tc.coord.Stats().Fanout; fo.HedgesWon == 0 {
		t.Errorf("hedges won = 0: the stall did not force a hedge, test proves nothing")
	}
}

// TestClusterQueryReportsPipelineWork: the merged (non-streaming) cluster
// response reports the summed per-shard Produced/Verified pipeline
// counters, like a single-process response does.
func TestClusterQueryReportsPipelineWork(t *testing.T) {
	ds := testDataset(t)
	queries := testQueries(t, ds)
	ctx := context.Background()
	const shards = 4
	tc := startCluster(t, "Grapes:maxPathLen=3", 3, shards, 2, cluster.CoordConfig{})

	ref, err := engine.OpenSharded(ctx, ds, shards, engine.WithSpec("Grapes:maxPathLen=3"))
	if err != nil {
		t.Fatalf("OpenSharded: %v", err)
	}
	reported := false
	for i, q := range queries {
		got, err := tc.coord.Query(ctx, tc.inCluster(t, q, ds))
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		want, err := ref.Query(ctx, q)
		if err != nil {
			t.Fatalf("reference query %d: %v", i, err)
		}
		if len(want.Answers) > 0 && got.Verified == 0 {
			t.Errorf("query %d: %d answers but Verified=0 — pipeline counters dropped on the merge path", i, len(want.Answers))
		}
		if got.Produced < got.Verified {
			t.Errorf("query %d: Produced=%d < Verified=%d", i, got.Produced, got.Verified)
		}
		if got.Produced > 0 {
			reported = true
		}
	}
	if !reported {
		t.Errorf("no query reported any pipeline work")
	}
}
