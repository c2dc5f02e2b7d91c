package cluster_test

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/testutil/leak"
)

func labelVal(labels []obs.PromLabel, name string) string {
	for _, l := range labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// sumByNode folds a family's samples into per-node-label totals (the ""
// key collects unlabeled rows, i.e. the _agg families).
func sumByNode(f *obs.PromFamily) map[string]float64 {
	out := map[string]float64{}
	if f == nil {
		return out
	}
	for _, s := range f.Samples {
		out[labelVal(s.Labels, "node")] += s.Value
	}
	return out
}

// TestFederateThreeNodesOneTimeout is the federation acceptance test: a
// coordinator over three live nodes, one of which answers /metrics slower
// than the scrape timeout. The combined snapshot must carry the two
// responsive nodes' families under their node labels, the coordinator's
// own families under node="coordinator", a sq_federate_node_up 0 row for
// the slow node, a failed count of one — and _agg families whose values
// equal the sum of the per-node rows that did arrive. The slow node must
// cost its own series only, never the scrape.
func TestFederateThreeNodesOneTimeout(t *testing.T) {
	t.Cleanup(leak.Check(t))
	ds := testDataset(t)
	queries := testQueries(t, ds)
	ctx := context.Background()
	tc := startCluster(t, "Grapes:maxPathLen=3", 3, 4, 2, cluster.CoordConfig{})

	for _, q := range queries {
		if _, err := tc.coord.Query(ctx, tc.inCluster(t, q, ds)); err != nil {
			t.Fatalf("query: %v", err)
		}
	}

	const slow = 2
	tc.hooks[slow].metricsDelayMs.Store(5000)

	start := time.Now()
	snap, failed := tc.coord.Federate(ctx, 300*time.Millisecond)
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("federation took %v despite a 300ms per-leg timeout", elapsed)
	}
	if failed != 1 {
		t.Fatalf("failed = %d, want 1 (only the slow node)", failed)
	}

	reqs := snap.Family("sq_node_requests_total")
	if reqs == nil {
		t.Fatalf("combined snapshot has no sq_node_requests_total family")
	}
	perNode := sumByNode(reqs)
	var liveSum float64
	for i, srv := range tc.servers {
		if i == slow {
			if _, ok := perNode[srv.URL]; ok {
				t.Errorf("slow node %s contributed sq_node_requests_total rows despite timing out", srv.URL)
			}
			continue
		}
		v, ok := perNode[srv.URL]
		if !ok || v <= 0 {
			t.Errorf("no sq_node_requests_total rows labeled node=%q (got %v)", srv.URL, perNode)
		}
		liveSum += v
	}

	// The _agg family is the sum of exactly the per-node rows that arrived.
	agg := sumByNode(snap.Family("sq_node_requests_total_agg"))[""]
	if agg != liveSum {
		t.Errorf("sq_node_requests_total_agg = %v, want the per-node sum %v", agg, liveSum)
	}

	// Coordinator-local families ride along under node="coordinator".
	coordReqs := sumByNode(snap.Family("sq_cluster_requests_total"))
	if coordReqs["coordinator"] <= 0 {
		t.Errorf("no sq_cluster_requests_total rows labeled node=\"coordinator\": %v", coordReqs)
	}

	// Scrape outcome rows: 1 for each responsive node, 0 for the slow one.
	up := snap.Family("sq_federate_node_up")
	if up == nil {
		t.Fatalf("combined snapshot has no sq_federate_node_up family")
	}
	seen := map[string]float64{}
	for _, s := range up.Samples {
		seen[labelVal(s.Labels, "node")] = s.Value
	}
	for i, srv := range tc.servers {
		want := 1.0
		if i == slow {
			want = 0
		}
		if got, ok := seen[srv.URL]; !ok || got != want {
			t.Errorf("sq_federate_node_up{node=%q} = %v (present=%v), want %v", srv.URL, got, ok, want)
		}
	}
	if fc := sumByNode(snap.Family("sq_federate_failed_nodes"))["coordinator"]; fc != 1 {
		t.Errorf("sq_federate_failed_nodes = %v in the scrape's own output, want 1", fc)
	}

	// Same-bound histograms merge bucket-wise: the _agg count equals the
	// total of every instance's count (coordinator + the two live nodes).
	durAgg := snap.Family("sq_query_duration_seconds_agg")
	if durAgg == nil {
		t.Fatalf("no sq_query_duration_seconds_agg family")
	}
	var aggCount, instCount int64
	for _, h := range durAgg.Hists {
		aggCount += h.Count
	}
	for _, h := range snap.Family("sq_query_duration_seconds").Hists {
		instCount += h.Count
	}
	if aggCount == 0 || aggCount != instCount {
		t.Errorf("query-duration _agg count %d, want the per-instance total %d (nonzero)", aggCount, instCount)
	}

	// The combined exposition must itself parse and re-serve cleanly.
	var b strings.Builder
	if err := snap.Write(&b); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if _, err := obs.ParsePromText(strings.NewReader(b.String())); err != nil {
		t.Fatalf("combined exposition does not re-parse: %v", err)
	}
}

// TestHealthScoreFlipsOnNodeKill drives GET /health/score through the
// coordinator's serving face (server.Server running the coordinator's
// registered membership checks): ok with every member up, then — after a node
// dies and a probe notices — degraded with a membership reason naming the
// lost node, while /metrics/cluster keeps answering 200.
func TestHealthScoreFlipsOnNodeKill(t *testing.T) {
	t.Cleanup(leak.Check(t))
	ds := testDataset(t)
	queries := testQueries(t, ds)
	ctx := context.Background()
	tc := startCluster(t, "Grapes:maxPathLen=3", 3, 4, 2, cluster.CoordConfig{
		ScrapeTimeout: 300 * time.Millisecond,
	})
	srv := tc.serve(t, server.Config{SLO: 10 * time.Second})

	for _, q := range queries {
		if _, err := tc.coord.Query(ctx, tc.inCluster(t, q, ds)); err != nil {
			t.Fatalf("query: %v", err)
		}
	}

	score := func() *obs.HealthReport {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/health/score")
		if err != nil {
			t.Fatalf("GET /health/score: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET /health/score: %s", resp.Status)
		}
		var rep obs.HealthReport
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatalf("decode health report: %v", err)
		}
		return &rep
	}

	if rep := score(); rep.Status != obs.HealthOK {
		t.Fatalf("healthy cluster scored %q, want %q (%+v)", rep.Status, obs.HealthOK, rep.Checks)
	}

	const victim = 1
	tc.kill(victim)
	tc.coord.ProbeOnce(ctx)

	rep := score()
	if rep.Status == obs.HealthOK {
		t.Fatalf("node %d dead but health still %q (%+v)", victim, rep.Status, rep.Checks)
	}
	named := false
	for _, c := range rep.Checks {
		if c.Name == "membership" {
			if c.Status == obs.HealthOK {
				t.Errorf("membership check still ok after node kill: %+v", c)
			}
			if !strings.Contains(c.Reason, "n1") {
				t.Errorf("membership reason %q does not name the dead node n1", c.Reason)
			}
			named = true
		}
	}
	if !named {
		t.Errorf("health report has no membership check: %+v", rep.Checks)
	}

	// The federation scrape must survive the dead member: 200, with a
	// node_up 0 row for it rather than an error.
	resp, err := srv.Client().Get(srv.URL + "/metrics/cluster")
	if err != nil {
		t.Fatalf("GET /metrics/cluster after node kill: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics/cluster after node kill: %s", resp.Status)
	}
	snap, err := obs.ParsePromText(resp.Body)
	if err != nil {
		t.Fatalf("parse federated scrape: %v", err)
	}
	dead := tc.servers[victim].URL
	for _, s := range snap.Family("sq_federate_node_up").Samples {
		if labelVal(s.Labels, "node") == dead && s.Value != 0 {
			t.Errorf("sq_federate_node_up{node=%q} = %v after kill, want 0", dead, s.Value)
		}
	}
}
