package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/workload"
)

func clique(n int, l graph.Label) *graph.Graph {
	g := graph.New(0)
	for i := 0; i < n; i++ {
		g.AddVertex(l)
	}
	for u := int32(0); int(u) < n; u++ {
		for v := u + 1; int(v) < n; v++ {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

// TestQueryKeyAllocs: keying a connected 8-edge query allocates the key
// and little else.
func TestQueryKeyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	ds := gen.Synthetic(gen.SynthConfig{NumGraphs: 50, MeanNodes: 40, MeanDensity: 0.06, NumLabels: 4, Seed: 1})
	qs, err := workload.Generate(ds, workload.Config{NumQueries: 20, QueryEdges: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if got := testing.AllocsPerRun(20, func() { QueryKey(q) }); got > 2 {
			t.Fatalf("QueryKey of an 8-edge query: %.1f allocations, want <= 2", got)
		}
	}
}

// TestSymmetricQueryServedUncached: the canonical search of a one-label
// K10 would run for minutes and takes no context; its step budget ends it,
// and the query runs through the engine under the request timeout instead
// of through the cache. The request runs in a goroutine so an unbounded
// key search fails the test by timeout rather than hanging it.
func TestSymmetricQueryServedUncached(t *testing.T) {
	ds := graph.NewDataset("cliques")
	a := ds.Dict.Intern("a")
	ds.Dict.Intern("b")
	for _, n := range []int{11, 9, 4} {
		ds.Add(clique(n, a))
	}
	ring := graph.New(0)
	for i := 0; i < 12; i++ {
		ring.AddVertex(graph.Label(i % 2))
	}
	for i := int32(0); i < 12; i++ {
		ring.MustAddEdge(i, (i+1)%12)
	}
	ds.Add(ring)
	eng, err := engine.Open(context.Background(), ds, engine.WithSpec("ggsx"))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Config{Spec: "ggsx", RequestTimeout: 500 * time.Millisecond})
	q := clique(10, a)
	want, err := core.BruteForceAnswers(context.Background(), ds, q)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(GraphToJSON(q, &ds.Dict))
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("POST /query of a one-label K10 gave no answer within 5s")
		}
		switch rec.Code {
		case http.StatusGatewayTimeout:
			continue
		case http.StatusOK:
		default:
			t.Fatalf("pass %d: status %d: %s", pass, rec.Code, rec.Body)
		}
		var qr QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
			t.Fatal(err)
		}
		if qr.Cached || !graph.IDSet(qr.Answers).Equal(want) {
			t.Fatalf("pass %d: cached=%v answers %v, brute force %v", pass, qr.Cached, qr.Answers, want)
		}
	}
	if st := srv.eng.CacheStats(); st.Entries != 0 {
		t.Errorf("the cache holds %d entries, want none", st.Entries)
	}
}
