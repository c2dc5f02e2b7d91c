package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/testutil/leak"
	"repro/internal/testutil/promise"
	"repro/internal/workload"
)

// stallWriter is an in-memory ResponseWriter whose first Write — the
// stream's first id line — records the line, then blocks until release is
// closed, holding the handler inside the stream's yield.
type stallWriter struct {
	header  http.Header
	mu      sync.Mutex
	buf     bytes.Buffer
	stalled chan struct{} // closed when the first line has been written
	release chan struct{}
}

func (w *stallWriter) Header() http.Header { return w.header }
func (w *stallWriter) WriteHeader(int)     {}
func (w *stallWriter) Flush()              {}

func (w *stallWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	first := w.buf.Len() == 0
	w.buf.Write(p)
	w.mu.Unlock()
	if first {
		close(w.stalled)
		<-w.release
	}
	return len(p), nil
}

// TestServerMutationCompletesWhileStreamStalled: a mutation landing under
// a stalled public stream completes promptly, and the resumed stream ends
// with its done line, not an error line, having yielded every answer the
// mutation left alone, strictly ascending.
func TestServerMutationCompletesWhileStreamStalled(t *testing.T) {
	defer leak.Check(t)()
	ctx := context.Background()
	ds := testDataset(t)
	eng, err := engine.OpenSharded(ctx, ds, 2, engine.WithSpec("noindex"))
	if err != nil {
		t.Fatal(err)
	}
	var q *graph.Graph
	var truth graph.IDSet
	for _, cand := range testQueries(t, ds) {
		res, err := eng.Query(ctx, cand)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Answers) >= 2 {
			q, truth = cand, res.Answers
			break
		}
	}
	if q == nil {
		t.Fatal("no test query with >= 2 answers")
	}
	srv := New(eng, Config{Cache: CacheConfig{Disabled: true}})
	body, _ := json.Marshal(GraphToJSON(q, &ds.Dict))
	w := &stallWriter{header: http.Header{}, stalled: make(chan struct{}), release: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query?stream=1", bytes.NewReader(body)))
	}()
	<-w.stalled

	pool := gen.Synthetic(gen.SynthConfig{NumGraphs: 1, MeanNodes: 8, MeanDensity: 0.3, NumLabels: 4, Seed: 79})
	var addedID graph.ID
	added := make(chan error, 1)
	go func() {
		var err error
		addedID, err = srv.Engine().AddGraph(ctx, pool.Graphs[0].ShallowWithID(0))
		added <- err
	}()
	select {
	case err := <-added:
		if err != nil {
			t.Fatalf("AddGraph: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("AddGraph blocked behind a stalled public stream")
	}
	close(w.release)
	<-done

	var got graph.IDSet
	var last StreamLine
	sc := bufio.NewScanner(&w.buf)
	for sc.Scan() {
		last = StreamLine{}
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if last.ID != nil {
			got = append(got, *last.ID)
		}
	}
	if !last.Done || last.Error != "" {
		t.Fatalf("last stream line = %+v, want the done line", last)
	}
	// The added graph may or may not be an answer; every original one is.
	promise.Check(t, got, truth, append(slices.Clone(truth), addedID))
}

// TestServerStreamsSurviveWrites: while a writer posts /graphs in a loop,
// every limited one-shot query and every streamed query answers — no 5xx,
// no error line — and each answer set holds every answer of the original
// dataset (graphs are only added).
func TestServerStreamsSurviveWrites(t *testing.T) {
	ctx := context.Background()
	ds := gen.Synthetic(gen.SynthConfig{NumGraphs: 300, MeanNodes: 14, MeanDensity: 0.2, NumLabels: 4, Seed: 41})
	eng, err := engine.Open(ctx, ds, engine.WithSpec("noindex"))
	if err != nil {
		t.Fatal(err)
	}
	// A one-edge query matches most graphs, so each stream spans many
	// chunked-locking rounds for writes to land between.
	qs, err := workload.Generate(ds, workload.Config{NumQueries: 1, QueryEdges: 1, Seed: 43})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	truth, err := core.BruteForceAnswers(ctx, ds, qs[0])
	if err != nil {
		t.Fatal(err)
	}
	qj := GraphToJSON(qs[0], &ds.Dict)
	adds := make([]GraphJSON, 16)
	for i := range adds {
		adds[i] = GraphToJSON(ds.Graph(graph.ID(i)), &ds.Dict)
	}
	ts := httptest.NewServer(New(eng, Config{Cache: CacheConfig{Disabled: true}}).Handler())
	defer ts.Close()

	stop, written := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(written)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			b, _ := json.Marshal(adds[i%len(adds)])
			resp, err := http.Post(ts.URL+"/graphs", "application/json", bytes.NewReader(b))
			if err != nil {
				t.Errorf("POST /graphs: %v", err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("POST /graphs: status %d", resp.StatusCode)
				return
			}
		}
	}()
	defer func() { close(stop); <-written }()

	const rounds = 40
	var oneShot5xx, streamErrors int
	for range rounds {
		resp := postJSON(t, ts.URL+"/query?limit=100000", qj)
		if resp.StatusCode/100 == 5 {
			oneShot5xx++
			resp.Body.Close()
		} else if qr := decodeBody[QueryResponse](t, resp); !truth.Intersect(qr.Answers).Equal(truth) {
			t.Fatalf("limited one-shot answers miss original answers: %d of %d", len(truth.Intersect(qr.Answers)), len(truth))
		}

		resp = postJSON(t, ts.URL+"/query?stream=1", qj)
		var got graph.IDSet
		var last StreamLine
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			last = StreamLine{}
			if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			if last.ID != nil {
				got = append(got, *last.ID)
			}
		}
		resp.Body.Close()
		if last.Error != "" {
			streamErrors++
		} else if !truth.Intersect(got).Equal(truth) {
			t.Fatalf("stream answers miss original answers: %d of %d", len(truth.Intersect(got)), len(truth))
		}
	}
	if oneShot5xx != 0 || streamErrors != 0 {
		t.Fatalf("under a write loop: %d of %d limited one-shots returned 5xx, %d of %d streams ended in an error line",
			oneShot5xx, rounds, streamErrors, rounds)
	}
}
