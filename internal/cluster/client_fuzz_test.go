package cluster_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/server"
)

// roundTrip is an http.RoundTripper from a function.
type roundTrip func(*http.Request) (*http.Response, error)

func (f roundTrip) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// FuzzNodeStream drives NodeClient.Stream, the coordinator's only decoder
// of node NDJSON, against a node answering 200 with arbitrary bytes. The
// leg must either fail, or yield ids strictly ascending after its resume
// point and return a done line whose candidates ascend strictly (the
// coordinator merges them with IDSet.Union) — and never panic.
func FuzzNodeStream(f *testing.F) {
	for _, seed := range []struct {
		after int32
		body  string
	}{
		{-1, `{"id":3}` + "\n" + `{"id":7}` + "\n" + `{"done":true,"matches":2,"candidates":[1,3,7]}` + "\n"},
		{3, `{"id":7}` + "\n" + `{"done":true,"candidates":[7,9]}` + "\n"},
		{-1, `{"id":7}` + "\n" + `{"id":3}` + "\n" + `{"done":true}` + "\n"},
		{-1, `{"id":3}` + "\n" + `{"id":3}` + "\n" + `{"done":true}` + "\n"},
		{5, `{"id":5}` + "\n" + `{"done":true}` + "\n"},
		{-1, `{"done":true,"candidates":[3,1]}` + "\n"},
		{-1, `{"done":true,"candidates":[2,2]}` + "\n"},
		{-1, `{"id":1}` + "\n" + `{"error":"boom"}` + "\n"},
		{-1, `{"id":1}` + "\n"},
		{-1, `{"id":`},
		{-1, ""},
	} {
		f.Add(seed.after, []byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, after int32, b []byte) {
		// The node is served in memory through a recorder: a TCP
		// connection per input would exhaust ephemeral ports.
		node := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.Write(b) })
		c := &cluster.NodeClient{Addr: "http://node", HTTP: &http.Client{Transport: roundTrip(func(r *http.Request) (*http.Response, error) {
			rec := httptest.NewRecorder()
			node.ServeHTTP(rec, r)
			return rec.Result(), nil
		})}}
		prev := graph.ID(after)
		done, err := c.Stream(context.Background(), []int{0}, []uint64{0}, server.GraphJSON{}, graph.ID(after), func(id graph.ID) bool {
			if id <= prev {
				t.Fatalf("leg yielded %d after %d", id, prev)
			}
			prev = id
			return true
		})
		if err != nil {
			return
		}
		for i := 1; i < len(done.Candidates); i++ {
			if done.Candidates[i] <= done.Candidates[i-1] {
				t.Fatalf("done line candidates %v not strictly ascending", done.Candidates)
			}
		}
	})
}
