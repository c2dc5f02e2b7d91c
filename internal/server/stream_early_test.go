package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/workload"
)

// bigDataset is the early-termination fixture: ten thousand small graphs,
// so a low-selectivity query has a huge candidate set and the gap between
// "verified the first answer" and "verified everything" is four orders of
// magnitude.
func bigDataset(t *testing.T) *graph.Dataset {
	t.Helper()
	return gen.Synthetic(gen.SynthConfig{
		NumGraphs: 10000, MeanNodes: 8, MeanDensity: 0.2, NumLabels: 4, Seed: 11,
	})
}

// broadQuery extracts a two-edge query: on the 10k-graph fixture nearly
// every graph is a candidate, which is exactly the workload where lazy
// early termination pays.
func broadQuery(t *testing.T, ds *graph.Dataset) *graph.Graph {
	t.Helper()
	qs, err := workload.Generate(ds, workload.Config{NumQueries: 1, QueryEdges: 2, Seed: 12})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	return qs[0]
}

// serveQuerier wraps an already-open querier in a Server + httptest server.
func serveQuerier(t *testing.T, q engine.Querier, cfg Config) *httptest.Server {
	t.Helper()
	srv := New(q, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// streamCollect POSTs the query with ?stream=1 (and limit when > 0) and
// returns the id lines and the terminal done line.
func streamCollect(t *testing.T, url string, body any) (graph.IDSet, StreamLine) {
	t.Helper()
	resp := postJSON(t, url, body)
	defer resp.Body.Close()
	var ids graph.IDSet
	var done StreamLine
	sawDone := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Error != "":
			t.Fatalf("stream error: %s", line.Error)
		case line.Done:
			done, sawDone = line, true
		case line.ID != nil:
			ids = append(ids, *line.ID)
		}
	}
	if !sawDone {
		t.Fatal("stream ended without a done line")
	}
	return ids, done
}

// TestStreamFirstAnswerEarly is the headline early-termination assertion:
// on a 10k-graph dataset, ?stream=1&limit=1 must verify under 5% of the
// candidates the one-shot query verifies — the lazy pipeline stops at the
// first proven answer instead of materializing and verifying the whole
// candidate set. Checked for three methods, flat and sharded.
func TestStreamFirstAnswerEarly(t *testing.T) {
	ds := bigDataset(t)
	q := broadQuery(t, ds)
	specs := []string{"noindex", "ctindex:maxTreeSize=4,maxCycleSize=4", "gcode"}
	ctx := context.Background()

	for _, spec := range specs {
		for _, shards := range []int{0, 4} {
			name := fmt.Sprintf("%s/shards=%d", spec, shards)
			t.Run(name, func(t *testing.T) {
				var (
					eng engine.Querier
					err error
				)
				if shards == 0 {
					eng, err = engine.Open(ctx, ds, engine.WithSpec(spec))
				} else {
					eng, err = engine.OpenSharded(ctx, ds, shards, engine.WithSpec(spec))
				}
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				ts := serveQuerier(t, eng, Config{Spec: spec, Shards: shards})
				gj := GraphToJSON(q, &ds.Dict)

				full := decodeBody[QueryResponse](t, postJSON(t, ts.URL+"/query", gj))
				if full.Verified < 100 {
					t.Fatalf("one-shot verified only %d candidates; fixture not broad enough", full.Verified)
				}
				if len(full.Answers) == 0 {
					t.Fatal("workload query has no answers")
				}

				ids, done := streamCollect(t, ts.URL+"/query?stream=1&limit=1", gj)
				if len(ids) != 1 {
					t.Fatalf("limit=1 stream yielded %d ids, want 1", len(ids))
				}
				if ids[0] != full.Answers[0] {
					t.Errorf("first streamed answer %d, want %d", ids[0], full.Answers[0])
				}
				if done.Verified < 1 {
					t.Fatalf("done line reports %d verified", done.Verified)
				}
				if 20*done.Verified >= int64(full.Verified) {
					t.Errorf("limit=1 verified %d of %d candidates (>= 5%%): stream is not lazy",
						done.Verified, full.Verified)
				}
			})
		}
	}
}

// TestLimitEarlyTerminationRouter is the routed leg of the limit matrix:
// the adaptive router's one-shot ?limit=N path must go through the lazy
// stream of whichever sub-engine it picks, verifying far fewer candidates
// than the full query, and still return the true first answers.
func TestLimitEarlyTerminationRouter(t *testing.T) {
	ds := gen.Synthetic(gen.SynthConfig{
		NumGraphs: 2000, MeanNodes: 8, MeanDensity: 0.2, NumLabels: 4, Seed: 13,
	})
	q := broadQuery(t, ds)
	ctx := context.Background()
	eng, err := engine.OpenAny(ctx, ds, 0, engine.WithSpec("router:methods=noindex+gcode"))
	if err != nil {
		t.Fatalf("open router: %v", err)
	}
	ts := serveQuerier(t, eng, Config{Spec: "router"})
	gj := GraphToJSON(q, &ds.Dict)

	// Limited first: as a cache miss it runs the lazy stream-collect path
	// (a hit would legitimately verify zero candidates).
	lim := decodeBody[QueryResponse](t, postJSON(t, ts.URL+"/query?limit=2", gj))
	full := decodeBody[QueryResponse](t, postJSON(t, ts.URL+"/query", gj))
	if full.Verified < 100 || len(full.Answers) < 2 {
		t.Fatalf("fixture too narrow: verified %d, answers %d", full.Verified, len(full.Answers))
	}
	if full.Cached {
		t.Fatal("unlimited query served from cache: the limited miss was stored")
	}
	if lim.Limit != 2 || len(lim.Answers) != 2 {
		t.Fatalf("limit=2 response: limit %d, %d answers", lim.Limit, len(lim.Answers))
	}
	for i := range lim.Answers {
		if lim.Answers[i] != full.Answers[i] {
			t.Fatalf("limited answers %v are not a prefix of %v", lim.Answers, full.Answers)
		}
	}
	if lim.Verified < 1 || 10*lim.Verified >= full.Verified {
		t.Errorf("routed limit=2 verified %d of %d candidates: limit did not terminate early",
			lim.Verified, full.Verified)
	}
}

// TestLimitDoesNotPoisonCache: the limited path must compose with the
// result cache in both directions — a limited miss must NOT install its
// truncated result (the later unlimited query would silently lose
// answers), while a limited query after an unlimited one must be served
// from the cached full result, truncated on the way out. Limited lookups
// count as hits and misses like unlimited ones.
func TestLimitDoesNotPoisonCache(t *testing.T) {
	ds, srv, ts := newTestService(t, Config{})
	var q *graph.Graph
	// Brute force picks a query with answers without touching the cache.
	for _, cand := range testQueries(t, ds) {
		if truth, err := core.BruteForceAnswers(context.Background(), ds, cand); err == nil && len(truth) > 0 {
			q = cand
			break
		}
	}
	if q == nil {
		t.Skip("no workload query with answers")
	}
	gj := GraphToJSON(q, &ds.Dict)
	// Every step below is exactly one cache lookup, counted as a hit or a
	// miss whether the query is limited or not.
	wantCounts := func(step string, hits, misses int64) {
		t.Helper()
		if st := srv.Engine().CacheStats(); st.Hits != hits || st.Misses != misses {
			t.Errorf("after %s: hits=%d misses=%d, want %d/%d", step, st.Hits, st.Misses, hits, misses)
		}
	}

	first := decodeBody[QueryResponse](t, postJSON(t, ts.URL+"/query?limit=1", gj))
	if first.Cached || len(first.Answers) != 1 {
		t.Fatalf("first limited query: cached=%v answers=%v, want one computed answer", first.Cached, first.Answers)
	}
	wantCounts("limited miss", 0, 1)

	// The limited query was a cache miss. The unlimited query must now
	// still see the full answer set, uncached — the truncated result must
	// not have been stored.
	full := decodeBody[QueryResponse](t, postJSON(t, ts.URL+"/query", gj))
	if full.Cached {
		t.Fatal("unlimited query after a limited one was served from cache: the limited result was stored")
	}
	if len(full.Answers) < 1 {
		t.Fatal("unlimited query returned no answers")
	}
	wantCounts("unlimited miss", 0, 2)

	// The unlimited result IS cached; a limited query now hits it and
	// truncates on the way out.
	lim := decodeBody[QueryResponse](t, postJSON(t, ts.URL+"/query?limit=1", gj))
	if !lim.Cached {
		t.Error("limited query after an unlimited one missed the cache")
	}
	if len(lim.Answers) != 1 || lim.Answers[0] != full.Answers[0] {
		t.Errorf("cached limited answers %v, want [%d]", lim.Answers, full.Answers[0])
	}
	if lim.Limit != 1 {
		t.Errorf("cached limited response echoes limit %d, want 1", lim.Limit)
	}
	wantCounts("limited hit", 1, 2)

	// And the cache still serves the full set afterwards.
	again := decodeBody[QueryResponse](t, postJSON(t, ts.URL+"/query", gj))
	if !again.Cached || len(again.Answers) != len(full.Answers) {
		t.Errorf("unlimited after limited hit: cached=%v answers=%v, want cached full %v",
			again.Cached, again.Answers, full.Answers)
	}
	wantCounts("unlimited hit", 2, 2)
}
