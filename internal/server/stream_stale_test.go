package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/testutil/leak"
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

// TestStreamErrorLineMarksStale: a mutation landing under a public stream
// aborts it with engine.ErrStreamStale, and the error line says so
// ("stale": true) — the retryable case StreamLine.Stale documents — rather
// than looking like an engine failure.
func TestStreamErrorLineMarksStale(t *testing.T) {
	defer leak.Check(t)()
	ctx := context.Background()
	ds := testDataset(t)
	eng, err := engine.OpenSharded(ctx, ds, 2, engine.WithSpec("noindex"))
	if err != nil {
		t.Fatal(err)
	}
	var q *graph.Graph
	for _, cand := range testQueries(t, ds) {
		res, err := eng.Query(ctx, cand)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Answers) >= 2 {
			q = cand
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
	added := make(chan error, 1)
	go func() {
		_, err := srv.Engine().AddGraph(ctx, pool.Graphs[0].ShallowWithID(0))
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

	var last StreamLine
	sc := bufio.NewScanner(&w.buf)
	for sc.Scan() {
		last = StreamLine{}
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
	}
	if last.Error == "" || !last.Stale {
		t.Fatalf("last stream line = %+v, want an error line with stale:true", last)
	}
}
