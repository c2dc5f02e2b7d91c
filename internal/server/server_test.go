package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"iter"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	_ "repro/internal/engine/std"
	"repro/internal/graph"
	"repro/internal/testutil/leak"
	"repro/internal/workload"
)

// newTestService opens a GGSX engine over the shared tiny dataset and
// serves it from an httptest server.
func newTestService(t *testing.T, cfg Config) (*graph.Dataset, *Server, *httptest.Server) {
	t.Helper()
	ds := testDataset(t)
	eng, err := engine.Open(context.Background(), ds, engine.WithSpec("ggsx"))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if cfg.Spec == "" {
		cfg.Spec = "ggsx"
	}
	srv := New(eng, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ds, srv, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
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

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

// TestServeQueryEndToEnd: /query answers match the engine, an isomorphic
// repeat hits the cache, and /stats reflects it.
func TestServeQueryEndToEnd(t *testing.T) {
	ds, srv, ts := newTestService(t, Config{})
	q := testQueries(t, ds)[0]
	direct, err := srv.Engine().Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, ts.URL+"/query", GraphToJSON(q, &ds.Dict))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	qr := decodeBody[QueryResponse](t, resp)
	if !graph.IDSet(qr.Answers).Equal(direct.Answers) {
		t.Errorf("answers %v != engine's %v", qr.Answers, direct.Answers)
	}

	resp = postJSON(t, ts.URL+"/query", GraphToJSON(workload.Permute(q, 99), &ds.Dict))
	qr2 := decodeBody[QueryResponse](t, resp)
	if !qr2.Cached {
		t.Error("isomorphic repeat should be served from cache")
	}
	if !graph.IDSet(qr2.Answers).Equal(direct.Answers) {
		t.Errorf("cached answers %v != engine's %v", qr2.Answers, direct.Answers)
	}

	stats := decodeBody[StatsResponse](t, mustGet(t, ts.URL+"/stats"))
	if stats.Cache.Hits < 1 {
		t.Errorf("stats cache hits = %d, want >= 1", stats.Cache.Hits)
	}
	if stats.Requests.Query < 2 {
		t.Errorf("stats query count = %d, want >= 2", stats.Requests.Query)
	}
	if stats.Method != "ggsx" || stats.Graphs != ds.Len() {
		t.Errorf("stats identity: method=%q graphs=%d", stats.Method, stats.Graphs)
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp
}

// TestServeQueryStream: ?stream=1 yields one NDJSON line per answer plus a
// terminal done line whose count matches the non-streaming answer set.
func TestServeQueryStream(t *testing.T) {
	ds, srv, ts := newTestService(t, Config{})
	q := testQueries(t, ds)[0]
	direct, err := srv.Engine().Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, ts.URL+"/query?stream=1", GraphToJSON(q, &ds.Dict))
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var ids graph.IDSet
	done := false
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
			done = true
			if line.Matches != len(ids) {
				t.Errorf("done reports %d matches, saw %d", line.Matches, len(ids))
			}
		case line.ID != nil:
			ids = append(ids, *line.ID)
		}
	}
	if !done {
		t.Fatal("stream ended without a done line")
	}
	if !ids.Equal(direct.Answers) {
		t.Errorf("streamed answers %v != engine's %v", ids, direct.Answers)
	}
}

// slowStreamer is a Querier whose Stream trickles ids until its context
// ends, recording whether cancellation reached it — the mid-stream
// cancellation contract.
type slowStreamer struct {
	immutable
	ds       *graph.Dataset
	canceled chan struct{}
}

func (s *slowStreamer) Dataset() *graph.Dataset { return s.ds }
func (s *slowStreamer) Ready() bool             { return true }
func (s *slowStreamer) Query(ctx context.Context, q *graph.Graph) (*core.QueryResult, error) {
	return &core.QueryResult{}, nil
}
func (s *slowStreamer) Stream(ctx context.Context, q *graph.Graph) iter.Seq2[graph.ID, error] {
	return s.StreamStats(ctx, q, nil)
}
func (s *slowStreamer) StreamStats(ctx context.Context, q *graph.Graph, _ *core.PipelineStats) iter.Seq2[graph.ID, error] {
	return func(yield func(graph.ID, error) bool) {
		for id := graph.ID(0); ; id++ {
			select {
			case <-ctx.Done():
				close(s.canceled)
				yield(0, ctx.Err())
				return
			case <-time.After(2 * time.Millisecond):
			}
			if !yield(id, nil) {
				return
			}
		}
	}
}

// TestServeStreamMidStreamCancellation: closing the client connection
// cancels the in-flight stream on the server.
func TestServeStreamMidStreamCancellation(t *testing.T) {
	defer leak.Check(t)()
	ds := testDataset(t)
	fake := &slowStreamer{ds: ds, canceled: make(chan struct{})}
	srv := New(fake, Config{Spec: "fake"})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	q := testQueries(t, ds)[0]
	body, _ := json.Marshal(GraphToJSON(q, &ds.Dict))
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query?stream=1", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Read a couple of lines mid-stream, then drop the connection.
	sc := bufio.NewScanner(resp.Body)
	for i := 0; i < 3 && sc.Scan(); i++ {
	}
	cancel()
	select {
	case <-fake.canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("server stream never observed the client's cancellation")
	}
}

// TestServeBatch: valid items answer, malformed items fail individually,
// unknown-label items are empty — one request, per-item outcomes.
func TestServeBatch(t *testing.T) {
	ds, srv, ts := newTestService(t, Config{})
	qs := testQueries(t, ds)
	direct0, err := srv.Engine().Query(context.Background(), qs[0])
	if err != nil {
		t.Fatal(err)
	}
	req := BatchRequest{Queries: []GraphJSON{
		GraphToJSON(qs[0], &ds.Dict),
		{Vertices: []string{"A"}, Edges: [][2]int32{{0, 5}}}, // bad edge
		{Vertices: []string{"no-such-label"}},                // unknown label
	}}
	resp := postJSON(t, ts.URL+"/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	br := decodeBody[BatchResponse](t, resp)
	if len(br.Results) != 3 {
		t.Fatalf("%d results, want 3", len(br.Results))
	}
	if br.Results[0].Error != "" || !graph.IDSet(br.Results[0].Answers).Equal(direct0.Answers) {
		t.Errorf("item 0: err=%q answers=%v, want engine's %v",
			br.Results[0].Error, br.Results[0].Answers, direct0.Answers)
	}
	if br.Results[1].Error == "" {
		t.Error("item 1 (out-of-range edge) should fail individually")
	}
	if br.Results[2].Error != "" || len(br.Results[2].Answers) != 0 {
		t.Errorf("item 2 (unknown label) should answer empty, got err=%q answers=%v",
			br.Results[2].Error, br.Results[2].Answers)
	}
}

// blockingServerQuerier parks queries on a gate so admission-control tests
// can fill the worker pool deterministically.
type blockingServerQuerier struct {
	immutable
	ds      *graph.Dataset
	entered chan struct{}
	gate    chan struct{}
}

func (b *blockingServerQuerier) Dataset() *graph.Dataset { return b.ds }
func (b *blockingServerQuerier) Ready() bool             { return true }
func (b *blockingServerQuerier) Query(ctx context.Context, q *graph.Graph) (*core.QueryResult, error) {
	b.entered <- struct{}{}
	select {
	case <-b.gate:
		return &core.QueryResult{}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
func (b *blockingServerQuerier) Stream(ctx context.Context, q *graph.Graph) iter.Seq2[graph.ID, error] {
	return b.StreamStats(ctx, q, nil)
}
func (b *blockingServerQuerier) StreamStats(context.Context, *graph.Graph, *core.PipelineStats) iter.Seq2[graph.ID, error] {
	return func(yield func(graph.ID, error) bool) {}
}

// TestServeAdmissionControl: with one worker and a one-deep queue, the
// third concurrent request is rejected with 429 and counted; the admitted
// ones finish once the pool unblocks.
func TestServeAdmissionControl(t *testing.T) {
	ds := testDataset(t)
	fake := &blockingServerQuerier{ds: ds, entered: make(chan struct{}, 8), gate: make(chan struct{})}
	srv := New(fake, Config{Spec: "fake", Workers: 1, MaxQueue: 1, RequestTimeout: time.Minute, Cache: CacheConfig{Disabled: true}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Distinct (non-isomorphic) queries so single-flight cannot merge them.
	qs := testQueries(t, ds)
	if len(qs) < 2 {
		t.Fatal("need two distinct queries")
	}
	body := func(i int) []byte {
		b, _ := json.Marshal(GraphToJSON(qs[i%len(qs)], &ds.Dict))
		return b
	}
	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body(i)))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	<-fake.entered // one request is executing; the other is queued or about to be
	// Wait until the system holds both (1 executing + 1 queued), then
	// overflow the queue.
	deadline := time.Now().Add(5 * time.Second)
	for srv.gAdmitted.Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body(0)))
	if err != nil {
		t.Fatal(err)
	}
	er := decodeBody[ErrorResponse](t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %s (%s), want 429", resp.Status, er.Error)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 should carry Retry-After")
	}
	close(fake.gate)
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("admitted request %d: status %d, want 200", i, code)
		}
	}
	stats := decodeBody[StatsResponse](t, mustGet(t, ts.URL+"/stats"))
	if stats.Admission.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", stats.Admission.Rejected)
	}
}

// TestServeMethodsHealthzDrain: /methods lists the registry; /healthz is
// pure liveness (200 even while draining), /readyz flips to 503 on Drain,
// and query work is refused while in-flight requests still complete
// (exercised implicitly by Shutdown elsewhere).
func TestServeMethodsHealthzDrain(t *testing.T) {
	ds, srv, ts := newTestService(t, Config{})
	methods := decodeBody[[]MethodJSON](t, mustGet(t, ts.URL+"/methods"))
	if len(methods) != len(engine.Descriptors()) {
		t.Errorf("/methods lists %d methods, registry has %d", len(methods), len(engine.Descriptors()))
	}
	for _, ep := range []string{"/healthz", "/readyz"} {
		if resp := mustGet(t, ts.URL+ep); resp.StatusCode != http.StatusOK {
			t.Errorf("%s: %s", ep, resp.Status)
		} else {
			resp.Body.Close()
		}
	}

	srv.Drain()
	if resp := mustGet(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("draining healthz: %s, want 200 (liveness is not readiness)", resp.Status)
	} else {
		resp.Body.Close()
	}
	if resp := mustGet(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining readyz: %s, want 503", resp.Status)
	} else {
		resp.Body.Close()
	}
	resp := postJSON(t, ts.URL+"/query", GraphToJSON(testQueries(t, ds)[0], &ds.Dict))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining query: %s, want 503", resp.Status)
	}
	resp.Body.Close()
}

// TestServeBadRequests: malformed body, empty graph, and oversized batch
// are 400s, not engine work.
func TestServeBadRequests(t *testing.T) {
	ds, _, ts := newTestService(t, Config{MaxBatch: 2})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: %s, want 400", resp.Status)
	}
	resp = postJSON(t, ts.URL+"/query", GraphJSON{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty graph: %s, want 400", resp.Status)
	}
	three := make([]GraphJSON, 3)
	for i := range three {
		three[i] = GraphToJSON(testQueries(t, ds)[0], &ds.Dict)
	}
	resp = postJSON(t, ts.URL+"/batch", BatchRequest{Queries: three})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: %s, want 400", resp.Status)
	}
	// An unknown label answers empty with 200 — not an error.
	resp = postJSON(t, ts.URL+"/query", GraphJSON{Vertices: []string{"no-such-label"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unknown label: %s, want 200", resp.Status)
	}
	qr := decodeBody[QueryResponse](t, resp)
	if len(qr.Answers) != 0 || len(qr.Candidates) != 0 {
		t.Errorf("unknown label answered %v/%v, want empty", qr.Candidates, qr.Answers)
	}
}

// TestServeTrailingDataRejected: every body is one JSON value. Data after
// it is a 400 on /query, /batch and /graphs, where it used to be ignored,
// while the newline json.Encoder ends a value with stays accepted.
func TestServeTrailingDataRejected(t *testing.T) {
	ds, _, ts := newTestService(t, Config{})
	gj := GraphToJSON(testQueries(t, ds)[0], &ds.Dict)
	for _, c := range []struct {
		path string
		body any
	}{
		{"/query", gj},
		{"/batch", BatchRequest{Queries: []GraphJSON{gj}}},
		{"/graphs", gj},
	} {
		b, err := json.Marshal(c.body)
		if err != nil {
			t.Fatal(err)
		}
		for _, tail := range []string{"\n", " \t\r\n", "garbage", "{}", "\n0"} {
			resp, err := http.Post(ts.URL+c.path, "application/json", bytes.NewReader(append(b, tail...)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			want := http.StatusOK
			if strings.TrimSpace(tail) != "" {
				want = http.StatusBadRequest
			}
			if resp.StatusCode != want {
				t.Errorf("POST %s with %q after the body: %s, want %d", c.path, tail, resp.Status, want)
			}
		}
	}
}
