package server

import (
	"context"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/engine"
	_ "repro/internal/engine/std"
)

// TestCacheStalenessAcrossMutation is the cache-staleness regression: a
// result cached before a mutation must never replay afterwards. Before
// epoch stamping, the canonical key ignored dataset version entirely, so
// the cache would happily serve a removed graph as an answer.
func TestCacheStalenessAcrossMutation(t *testing.T) {
	ctx := context.Background()
	ds := testDataset(t)
	eng, err := engine.Open(ctx, ds, engine.WithSpec("ggsx"))
	if err != nil {
		t.Fatal(err)
	}
	cached := NewCached(eng, CacheConfig{})
	q := testQueries(t, ds)[0]

	res, err := cached.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("walk query must have an answer")
	}
	victim := res.Answers[0]
	victimGraph := ds.Graph(victim).Clone()

	// Warm the cache.
	if res, err = cached.Query(ctx, q); err != nil || !res.Cached {
		t.Fatalf("expected a warm hit (err %v, cached %v)", err, res.Cached)
	}

	if err := cached.RemoveGraph(ctx, victim); err != nil {
		t.Fatal(err)
	}
	res, err = cached.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Error("post-mutation query replayed a stale cache entry")
	}
	if res.Answers.Contains(victim) {
		t.Errorf("removed graph %d replayed from cache: %v", victim, res.Answers)
	}
	st := cached.CacheStats()
	if st.Invalidations == 0 {
		t.Error("epoch mismatch should count an invalidation")
	}

	// Re-add: the identical graph reappears under a new id, and again no
	// stale entry (which would miss it) survives.
	newID, err := cached.AddGraph(ctx, victimGraph)
	if err != nil {
		t.Fatal(err)
	}
	// Warm at the new epoch, then verify the hit carries the new answer.
	if _, err = cached.Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	res, err = cached.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Error("expected a warm hit at the new epoch")
	}
	if !res.Answers.Contains(newID) {
		t.Errorf("re-added graph %d absent from cached answers %v", newID, res.Answers)
	}
	if res.Answers.Contains(victim) {
		t.Errorf("tombstoned id %d resurfaced: %v", victim, res.Answers)
	}
}

// TestMutationEndpoints drives POST /graphs and DELETE /graphs/{id} end to
// end: mutations move the epoch, queries observe them immediately, new
// labels intern, and error paths return the right statuses.
func TestMutationEndpoints(t *testing.T) {
	ds, srv, ts := newTestService(t, Config{})
	q := testQueries(t, ds)[0]
	qj := GraphToJSON(q, &ds.Dict)

	resp := postJSON(t, ts.URL+"/query", qj)
	first := decodeBody[QueryResponse](t, resp)
	if len(first.Answers) == 0 {
		t.Fatal("walk query must have an answer")
	}
	victim := first.Answers[0]
	victimJSON := GraphToJSON(ds.Graph(victim), &ds.Dict)

	// Remove the known answer.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/graphs/%d", ts.URL, victim), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	mr := decodeBody[MutationResponse](t, resp)
	if mr.ID != victim || mr.Epoch == 0 {
		t.Errorf("mutation response = %+v", mr)
	}

	resp = postJSON(t, ts.URL+"/query", qj)
	after := decodeBody[QueryResponse](t, resp)
	for _, id := range after.Answers {
		if id == victim {
			t.Errorf("removed graph %d still answered", victim)
		}
	}
	if after.Cached {
		t.Error("post-mutation answer served from a stale cache entry")
	}

	// Double delete: 404.
	req, _ = http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/graphs/%d", ts.URL, victim), nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("double delete status = %d, want 404", resp.StatusCode)
	}

	// Re-add the graph: it reappears under a fresh id.
	resp = postJSON(t, ts.URL+"/graphs", victimJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /graphs status = %d", resp.StatusCode)
	}
	added := decodeBody[MutationResponse](t, resp)
	if added.ID == victim {
		t.Errorf("re-add reused id %d", victim)
	}
	resp = postJSON(t, ts.URL+"/query", qj)
	again := decodeBody[QueryResponse](t, resp)
	found := false
	for _, id := range again.Answers {
		if id == added.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("re-added graph %d absent from answers %v", added.ID, again.Answers)
	}

	// A graph with a brand-new label interns and is immediately queryable.
	novel := GraphJSON{Vertices: []string{"novel-label", "novel-label"}, Edges: [][2]int32{{0, 1}}}
	resp = postJSON(t, ts.URL+"/graphs", novel)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /graphs with new label status = %d", resp.StatusCode)
	}
	nr := decodeBody[MutationResponse](t, resp)
	resp = postJSON(t, ts.URL+"/query", novel)
	nq := decodeBody[QueryResponse](t, resp)
	if len(nq.Answers) != 1 || nq.Answers[0] != nr.ID {
		t.Errorf("fresh-label query answers = %v, want [%d]", nq.Answers, nr.ID)
	}

	// Stats reflect the mutations.
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := decodeBody[StatsResponse](t, resp)
	if st.Epoch == 0 || st.Removed != 1 || st.Requests.Mutate != 4 {
		t.Errorf("stats epoch=%d removed=%d mutate=%d, want >0, 1, 4", st.Epoch, st.Removed, st.Requests.Mutate)
	}
	if st.Graphs != srv.Engine().Dataset().NumAlive() {
		t.Errorf("stats graphs=%d, want live count %d", st.Graphs, srv.Engine().Dataset().NumAlive())
	}

	// Malformed bodies and ids: 400.
	resp = postJSON(t, ts.URL+"/graphs", GraphJSON{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty graph add status = %d, want 400", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/graphs/not-a-number", nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id delete status = %d, want 400", resp.StatusCode)
	}
}
