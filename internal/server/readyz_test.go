package server

import (
	"context"
	"iter"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// readyFake is a Querier with a switchable readiness signal, standing in
// for an engine whose lazily-opened (storage=mmap) index is still warming.
type readyFake struct {
	immutable
	ds    *graph.Dataset
	ready atomic.Bool
}

func (f *readyFake) Ready() bool             { return f.ready.Load() }
func (f *readyFake) Dataset() *graph.Dataset { return f.ds }
func (f *readyFake) Query(ctx context.Context, q *graph.Graph) (*core.QueryResult, error) {
	return &core.QueryResult{}, nil
}
func (f *readyFake) Stream(ctx context.Context, q *graph.Graph) iter.Seq2[graph.ID, error] {
	return f.StreamStats(ctx, q, nil)
}
func (f *readyFake) StreamStats(context.Context, *graph.Graph, *core.PipelineStats) iter.Seq2[graph.ID, error] {
	return func(yield func(graph.ID, error) bool) {}
}

// TestReadyzWarming: /readyz reports 503 "warming" while the engine's
// index is still materializing, and flips to 200 once it is ready.
func TestReadyzWarming(t *testing.T) {
	ds := testDataset(t)
	f := &readyFake{ds: ds}
	srv := New(f, Config{Spec: "fake"})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("warming /readyz = %d, want 503", resp.StatusCode)
	}
	if body := decodeBody[map[string]string](t, resp); body["status"] != "warming" {
		t.Fatalf("warming /readyz status = %q, want warming", body["status"])
	}

	f.ready.Store(true)
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ready /readyz = %d, want 200", resp.StatusCode)
	}
	if body := decodeBody[map[string]string](t, resp); body["status"] != "ready" {
		t.Fatalf("ready /readyz status = %q, want ready", body["status"])
	}
}
