package cluster_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/testutil/leak"
	"repro/internal/workload"
)

func clusterPostJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func clusterDecode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

// TestClusterLimitEarlyTermination is the cluster leg of the limit
// matrix: on a 2000-graph dataset spread over 3 nodes × 4 shards, the
// coordinator's ?limit=N one-shot and streaming paths must return exactly
// the first N global answers, and the per-node lazy pipeline must verify
// a small fraction of its candidates before the first answer is proven —
// asserted directly against Node.StreamStats counters, since a cancelled
// HTTP leg never reports its tail.
func TestClusterLimitEarlyTermination(t *testing.T) {
	t.Cleanup(leak.Check(t)) // registered before startClusterWith: runs after tc.close
	mkDS := func() *graph.Dataset {
		return gen.Synthetic(gen.SynthConfig{
			NumGraphs: 2000, MeanNodes: 8, MeanDensity: 0.2, NumLabels: 4, Seed: 21,
		})
	}
	ds := mkDS()
	qs, err := workload.Generate(ds, workload.Config{NumQueries: 1, QueryEdges: 2, Seed: 22})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	q := qs[0]
	ctx := context.Background()
	const shards = 4
	tc := startClusterWith(t, mkDS, "noindex", 3, shards, 2, cluster.CoordConfig{})
	ts := tc.serve(t, server.Config{})
	gj := toWire(q, ds)

	full := clusterDecode[server.QueryResponse](t, clusterPostJSON(t, ts.URL+"/query", gj))
	if full.Partial {
		t.Fatalf("full query partial: %v", full.FailedShards)
	}
	if len(full.Answers) < 3 {
		t.Fatalf("fixture too narrow: %d answers", len(full.Answers))
	}

	// One-shot limit=1 returns exactly the first global answer.
	lim := clusterDecode[server.QueryResponse](t, clusterPostJSON(t, ts.URL+"/query?limit=1", gj))
	if lim.Limit != 1 || len(lim.Answers) != 1 || lim.Answers[0] != full.Answers[0] {
		t.Fatalf("limit=1 response limit=%d answers=%v, want [%d]", lim.Limit, lim.Answers, full.Answers[0])
	}

	// Streaming limit=3 yields exactly the first three, then the done line.
	resp := clusterPostJSON(t, ts.URL+"/query?stream=1&limit=3", gj)
	defer resp.Body.Close()
	var ids graph.IDSet
	sawDone := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line server.StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Error != "":
			t.Fatalf("stream error: %s", line.Error)
		case line.Done:
			sawDone = true
		case line.ID != nil:
			ids = append(ids, *line.ID)
		}
	}
	if !sawDone {
		t.Fatal("limited stream ended without a done line")
	}
	if !idsEqual(ids, full.Answers[:3]) {
		t.Errorf("stream limit=3 ids %v, want %v", ids, full.Answers[:3])
	}

	// The per-node pipeline is lazy: verifications until the first answer
	// must be a small fraction of a full drain of the same shards.
	owned := tc.man.ShardsOf(0)
	var fullStats core.PipelineStats
	for _, err := range tc.nodes[0].StreamStats(ctx, owned, nil, q, -1, &fullStats) {
		if err != nil {
			t.Fatalf("node full stream: %v", err)
		}
	}
	var firstStats core.PipelineStats
	for _, err := range tc.nodes[0].StreamStats(ctx, owned, nil, q, -1, &firstStats) {
		if err != nil {
			t.Fatalf("node first-answer stream: %v", err)
		}
		break
	}
	firstV, fullV := firstStats.Verified.Load(), fullStats.Verified.Load()
	if fullV < 100 {
		t.Fatalf("node full stream verified only %d candidates; fixture not broad enough", fullV)
	}
	if firstV < 1 || 20*firstV >= fullV {
		t.Errorf("first answer verified %d of %d candidates (>= 5%%): node pipeline is not lazy", firstV, fullV)
	}
}
