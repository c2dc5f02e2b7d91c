package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/router"
)

// MaxBodyBytes bounds every request body either serving face accepts (this
// server, over a local engine or the cluster coordinator, and the node),
// and every line of a streamed shard dump; a query graph is tiny, a batch
// of a few thousand is comfortably under this.
const MaxBodyBytes = 32 << 20

// Config configures a Server around an opened engine.
type Config struct {
	// Spec is the canonical method spec being served, shown in /stats.
	Spec string
	// Shards is the engine's shard count (0 = unsharded), shown in /stats.
	Shards int
	// Cache bounds the result cache; the zero value takes the defaults.
	Cache CacheConfig
	// Workers caps concurrently executing requests (admission control's
	// worker pool; default GOMAXPROCS).
	Workers int
	// MaxQueue caps requests waiting for a worker slot beyond the
	// executing ones; arrivals past Workers+MaxQueue are rejected with
	// 429 (default 4×Workers).
	MaxQueue int
	// RequestTimeout bounds each request's query execution, admission
	// wait included (default 30s; negative = unlimited).
	RequestTimeout time.Duration
	// MaxBatch caps the queries accepted in one /batch request
	// (default 1024).
	MaxBatch int
	// Registry hosts the server's metrics families, served at
	// GET /metrics. Pass a shared registry (the router's, a test's) to
	// pool series; nil creates a private one. /stats reads the same cells,
	// so the two views can never disagree.
	Registry *obs.Registry
	// SlowQuery emits one JSON line (span tree, pipeline counters) to
	// SlowQueryWriter for every query at or over this duration; 0
	// disables the log.
	SlowQuery time.Duration
	// SlowQueryWriter receives slow-query lines (default stderr).
	SlowQueryWriter io.Writer
	// EnablePprof registers the /debug/pprof/* handlers on the server mux.
	EnablePprof bool
	// SLO is the p99 latency target GET /health/score compares against;
	// non-positive disables the latency check.
	SLO time.Duration
}

// Server is the HTTP/JSON front end over a cached engine: /query (one-shot
// or NDJSON streaming), /batch, /methods, /stats, and /healthz, with a
// bounded worker pool admitting query work and a drain mode for graceful
// shutdown.
type Server struct {
	eng     *CachedEngine
	cfg     Config
	mux     *http.ServeMux
	slots   chan struct{}
	started time.Time
	// routing is the wrapped engine when it is the adaptive router, so
	// /stats can expose win rates and the learned cost model.
	routing *router.Multi

	// Counters and gauges live on the registry (reg) so /stats and
	// /metrics read the same cells; the named fields below are the cells,
	// fetched once at construction. The label dictionary and the graph
	// counts guard themselves, so no server lock sits in front of them.
	gAdmitted *obs.Gauge // in the system: waiting for a slot or executing
	gInflight *obs.Gauge // executing
	cRejected *obs.Counter
	cTimedOut *obs.Counter
	draining  atomic.Bool

	cQuery, cBatch, cStream, cMutate, cErrors *obs.Counter
	queryDur                                  *obs.Family // sq_query_duration_seconds{method}

	// Sliding windows behind GET /health/score (see health.go).
	reqWin, errWin *obs.RateWindow
	latWin         *obs.HistWindow

	reg  *obs.Registry
	slow *obs.SlowQueryLog
}

// New wraps an opened engine — *engine.Engine, *engine.Sharded, the
// cluster coordinator, or any other Querier — in the serving layer.
func New(q engine.Querier, cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.Workers
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1024
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		eng:     NewCached(q, cfg.Cache),
		cfg:     cfg,
		slots:   make(chan struct{}, cfg.Workers),
		started: time.Now(),
		reg:     reg,
		slow:    obs.NewSlowQueryLog(cfg.SlowQuery, cfg.SlowQueryWriter),
	}
	req := reg.Counter("sq_requests_total",
		"Requests by kind; errors counts failed requests across kinds.", "kind")
	s.cQuery = req.Counter("query")
	s.cBatch = req.Counter("batch")
	s.cStream = req.Counter("stream")
	s.cMutate = req.Counter("mutate")
	s.cErrors = req.Counter("errors")
	adm := reg.Gauge("sq_admission",
		"Admission control state: admitted = waiting + executing, inflight = executing.", "state")
	s.gAdmitted = adm.Gauge("admitted")
	s.gInflight = adm.Gauge("inflight")
	s.cRejected = reg.Counter("sq_admission_rejected_total",
		"Requests rejected because the admission queue was full.").Counter()
	s.cTimedOut = reg.Counter("sq_admission_timeouts_total",
		"Requests whose admission wait outlived their budget.").Counter()
	graphs := reg.Gauge("sq_graphs", "Dataset graph counts by state.", "state")
	reg.OnCollect(func() {
		live, removed := q.Counts()
		graphs.Gauge("live").Set(int64(live))
		graphs.Gauge("removed").Set(int64(removed))
	})
	s.queryDur = reg.Histogram("sq_query_duration_seconds",
		"End-to-end query latency by served method.", nil, "method")
	s.eng.instrument(reg)
	if m, ok := q.(*router.Multi); ok {
		s.routing = m
		m.Instrument(reg)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /batch", s.handleBatch)
	mux.HandleFunc("POST /graphs", s.handleAddGraph)
	mux.HandleFunc("DELETE /graphs/{id}", s.handleRemoveGraph)
	mux.HandleFunc("GET /methods", s.handleMethods)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.Handle("GET /metrics", reg.Handler())
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /health/score", s.handleHealthScore)
	if cfg.EnablePprof {
		RegisterPprof(mux)
	}
	s.slow.SetDropped(reg.Counter("sq_slowlog_dropped_total",
		"Slow-query log lines dropped by the byte budget.").Counter())
	obs.RegisterRuntimeMetrics(reg)
	obs.RegisterIndexMetrics(reg)
	s.reqWin = obs.NewRateWindow(time.Minute)
	s.errWin = obs.NewRateWindow(time.Minute)
	s.latWin = obs.NewHistWindow(time.Minute)
	s.mux = mux
	return s
}

// RegisterPprof registers the net/http/pprof handlers on mux — shared by
// both serving faces (this server and the node) behind their respective
// -pprof flags.
func RegisterPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// Registry returns the server's metrics registry (the one /metrics serves).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Engine returns the serving layer's cached engine, for in-process use and
// tests.
func (s *Server) Engine() *CachedEngine { return s.eng }

// Drain puts the server into drain mode: /readyz flips to 503 so load
// balancers stop routing here and new query work is rejected, while
// requests already admitted run to completion. Call it before
// http.Server.Shutdown, which then waits for the in-flight handlers.
func (s *Server) Drain() { s.draining.Store(true) }

// Admission control errors.
var (
	errQueueFull = errors.New("admission queue full")
	errDraining  = errors.New("server draining")
)

// acquire claims a worker slot, queueing up to the configured depth: at
// most Workers requests execute and at most MaxQueue more wait; an arrival
// beyond Workers+MaxQueue in the system is rejected.
func (s *Server) acquire(ctx context.Context) error {
	if s.draining.Load() {
		return errDraining
	}
	if s.gAdmitted.AddGet(1) > int64(s.cfg.Workers+s.cfg.MaxQueue) {
		s.gAdmitted.Add(-1)
		s.cRejected.Inc()
		return errQueueFull
	}
	select {
	case s.slots <- struct{}{}:
		s.gInflight.Add(1)
		return nil
	case <-ctx.Done():
		s.gAdmitted.Add(-1)
		s.cTimedOut.Inc()
		return ctx.Err()
	}
}

func (s *Server) release() {
	s.gInflight.Add(-1)
	s.gAdmitted.Add(-1)
	<-s.slots
}

// tryAcquireExtra opportunistically claims up to n additional worker slots
// without waiting, returning how many it got. A batch widens its internal
// pool only with idle capacity, so the Workers bound holds across
// concurrent requests and partial acquisition can never deadlock.
func (s *Server) tryAcquireExtra(n int) int {
	for got := 0; ; got++ {
		if got == n {
			return got
		}
		select {
		case s.slots <- struct{}{}:
		default:
			return got
		}
	}
}

func (s *Server) releaseExtra(n int) {
	for i := 0; i < n; i++ {
		<-s.slots
	}
}

// admit applies admission control and the per-request budget: it derives
// the bounded context and claims a worker slot, writing the rejection
// response itself on failure. The returned release func is non-nil iff ok;
// it frees the slot and cancels the context.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (ctx context.Context, release func(), ok bool) {
	ctx = r.Context()
	cancel := context.CancelFunc(func() {})
	if s.cfg.RequestTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
	}
	if err := s.acquire(ctx); err != nil {
		cancel()
		switch {
		case errors.Is(err, errQueueFull):
			w.Header().Set("Retry-After", "1")
			s.fail(w, http.StatusTooManyRequests, err)
		case errors.Is(err, errDraining):
			s.fail(w, http.StatusServiceUnavailable, err)
		default: // admission wait outlived the request budget or the client
			s.fail(w, http.StatusServiceUnavailable, err)
		}
		return nil, nil, false
	}
	return ctx, func() { s.release(); cancel() }, true
}

// fail writes a JSON error body and counts it.
func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	s.cErrors.Inc()
	w.Header()["Content-Type"] = ContentJSON
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(ErrorResponse{Error: err.Error()})
}

// ContentJSON and ContentNDJSON are Content-Type header values, shared so
// setting one allocates nothing (Header.Set makes a slice per call). The
// header map holds them read-only.
var (
	ContentJSON   = []string{"application/json"}
	ContentNDJSON = []string{"application/x-ndjson"}
)

func writeJSON(w http.ResponseWriter, v any) {
	w.Header()["Content-Type"] = ContentJSON
	json.NewEncoder(w).Encode(v)
}

// queryStatusCode maps an engine error to an HTTP status: context ends are
// the request budget's doing, everything else is the server's.
func queryStatusCode(err error) int {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// handleQuery serves POST /query: body is one GraphJSON; `?stream=1`
// switches the response to NDJSON answer ids backed by the engine's lazy
// Stream iterator (uncached), cancelled mid-stream when the client
// disconnects or the request budget ends. `?limit=N` caps the answer
// count in both modes, honored end to end: the streaming pipeline stops
// after N answers and the unexecuted tail of the query is never computed.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	var params url.Values // parsing an empty query string still makes a map
	if r.URL.RawQuery != "" {
		params = r.URL.Query()
	}
	stream := params.Get("stream") != ""
	if stream {
		s.cStream.Inc()
	} else {
		s.cQuery.Inc()
	}
	limit := 0
	if ls := params.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 1 {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("bad limit %q: want a positive integer", ls))
			return
		}
		limit = n
	}
	// A trace exists when the client asked for one (the header) or the
	// slow-query log might need it; otherwise every span call below is a
	// nil no-op.
	var tr *obs.Trace
	echo := false
	if id := obs.TraceIDFromHeader(r.Header.Get(obs.TraceHeader)); id != "" {
		tr = obs.NewTraceWithID(id)
		echo = true
	} else if s.slow.Enabled() {
		tr = obs.NewTrace()
	}
	root := tr.StartSpan(nil, "query")
	if root != nil {
		r = r.WithContext(obs.ContextWithSpan(r.Context(), root))
	}
	psp := tr.StartSpan(root, "parse")
	q, unknown, err := ReadQuery(r, &s.eng.Dataset().Dict)
	psp.End()
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if unknown {
		// A label absent from the dataset dictionary is in no dataset
		// graph: the answer is empty, no engine work needed.
		if stream {
			w.Header()["Content-Type"] = ContentNDJSON
			json.NewEncoder(w).Encode(StreamLine{Done: true})
			return
		}
		writeJSON(w, queryResponse(&core.QueryResult{}))
		return
	}
	ctx, release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	if stream {
		s.streamQuery(ctx, w, q, limit, tr, root, t0)
		return
	}
	var res *core.QueryResult
	if limit > 0 {
		res, err = s.eng.QueryLimited(ctx, q, limit)
	} else {
		res, err = s.eng.Query(ctx, q)
	}
	if err != nil {
		root.Cancel()
		s.fail(w, queryStatusCode(err), err)
		return
	}
	wall := time.Since(t0)
	method := res.Method
	if method == "" {
		method = s.cfg.Spec
	}
	s.queryDur.Histogram(method).Observe(wall.Seconds())
	root.Attr("method", method)
	if res.Cached {
		root.Attr("cached", true)
	}
	root.End()
	resp := queryResponse(res)
	resp.Limit = limit
	if echo {
		resp.Trace = tr.Tree()
	}
	writeJSON(w, resp)
	s.slow.Record(wall, obs.SlowQueryRecord{
		Kind: "query", Trace: tr.ID(), Method: method,
		Candidates: len(res.Candidates), Produced: res.Produced, Verified: res.Verified,
		Answers:  len(res.Answers),
		FilterUs: res.FilterTime.Microseconds(), VerifyUs: res.VerifyTime.Microseconds(),
		Partial: resp.Partial, Spans: tr.Tree(),
	})
}

// streamQuery writes NDJSON answer lines as verification confirms them,
// flushing per line so clients observe answers before the query finishes —
// the first line lands after a single verification, not after the full
// candidate scan. With limit > 0 the stream stops after that many answers
// and the pipeline's tail is never executed; the done line reports the
// produced/verified counters that prove it. The engine streams under
// chunked locking (no lock held across writes), so a client that stops
// reading never blocks mutations, and a mutation landing mid-stream
// re-plans the stream after its frontier instead of ending it; the write
// deadline still bounds how long such a client pins a worker slot and
// connection.
func (s *Server) streamQuery(ctx context.Context, w http.ResponseWriter, q *graph.Graph, limit int,
	tr *obs.Trace, root *obs.Span, t0 time.Time) {
	if s.cfg.RequestTimeout > 0 {
		rc := http.NewResponseController(w)
		_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.RequestTimeout))
		// Clear it when the stream ends: the deadline belongs to the
		// connection, not the request, and would otherwise poison the next
		// request on a keep-alive connection (http.Server only re-arms
		// write deadlines itself when Server.WriteTimeout is set).
		defer rc.SetWriteDeadline(time.Time{})
	}
	w.Header()["Content-Type"] = ContentNDJSON
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var stats core.PipelineStats
	n := 0
	for id, err := range s.eng.StreamStats(ctx, q, &stats) {
		if err != nil {
			s.cErrors.Inc()
			root.Cancel()
			enc.Encode(StreamLine{Error: err.Error()})
			if fl != nil {
				fl.Flush()
			}
			return
		}
		id := id
		if enc.Encode(StreamLine{ID: &id}) != nil {
			return // client gone; ctx cancellation stops the iterator next round
		}
		if fl != nil {
			fl.Flush()
		}
		n++
		if limit > 0 && n >= limit {
			break // stops the lazy pipeline; the tail is never verified
		}
	}
	partial := stats.FailedShards != nil
	enc.Encode(StreamLine{
		Done: true, Matches: n, Partial: partial, FailedShards: stats.FailedShards,
		Produced: stats.Produced.Load(), Verified: stats.Verified.Load(),
	})
	if fl != nil {
		fl.Flush()
	}
	wall := time.Since(t0)
	s.queryDur.Histogram(s.cfg.Spec).Observe(wall.Seconds())
	root.Attr("matches", n)
	root.End()
	s.slow.Record(wall, obs.SlowQueryRecord{
		Kind: "stream", Trace: tr.ID(), Method: s.cfg.Spec,
		Produced: int(stats.Produced.Load()), Verified: int(stats.Verified.Load()),
		Answers: n, Partial: partial, Spans: tr.Tree(),
	})
}

// handleBatch serves POST /batch: each query runs through the cache on the
// shared batch pool; malformed items fail individually without sinking the
// batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.cBatch.Inc()
	var req BatchRequest
	if err := DecodeJSON(r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Queries) == 0 {
		s.fail(w, http.StatusBadRequest, errors.New("empty batch"))
		return
	}
	if len(req.Queries) > s.cfg.MaxBatch {
		s.fail(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d exceeds limit %d", len(req.Queries), s.cfg.MaxBatch))
		return
	}
	items := make([]BatchItem, len(req.Queries))
	var valid []*graph.Graph
	var validIdx []int
	for i, gj := range req.Queries {
		q, unknown, err := ToGraph(gj, &s.eng.Dataset().Dict)
		switch {
		case err != nil:
			items[i] = BatchItem{Error: err.Error()}
		case unknown:
			items[i] = BatchItem{QueryResponse: queryResponse(&core.QueryResult{})}
		default:
			valid = append(valid, q)
			validIdx = append(validIdx, i)
		}
	}
	ctx, release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	// The batch runs on its own admission slot plus whatever slots are
	// idle right now: its internal parallelism never takes the total
	// executing concurrency past the Workers bound, so batch traffic
	// cannot tunnel around admission control.
	want := req.Workers
	if want <= 0 || want > s.cfg.Workers {
		want = s.cfg.Workers
	}
	extra := s.tryAcquireExtra(want - 1)
	defer s.releaseExtra(extra)
	// The per-item errors land in the results; the batch-level first error
	// is deliberately not a request failure.
	// Items run through the cache, so repeated or isomorphic queries inside
	// one batch hit (or single-flight) like they do across requests.
	results, _ := core.QueryBatchFunc(ctx, valid, core.BatchOptions{Workers: 1 + extra}, s.eng.Query)
	for j, br := range results {
		i := validIdx[j]
		if br.Err != nil {
			items[i] = BatchItem{Error: br.Err.Error()}
			continue
		}
		items[i] = BatchItem{QueryResponse: queryResponse(br.Result)}
	}
	writeJSON(w, BatchResponse{Results: items})
}

// mutationStatusCode maps a mutation error to an HTTP status: a remove of
// an unknown or already-removed graph is 404, a cluster shard without a
// reachable owner 503 (retryable: nothing was applied), context ends 504,
// anything else 500.
func mutationStatusCode(err error) int {
	switch {
	case errors.Is(err, engine.ErrNoSuchGraph):
		return http.StatusNotFound
	case errors.Is(err, engine.ErrUnavailable):
		return http.StatusServiceUnavailable
	default:
		return queryStatusCode(err)
	}
}

// handleAddGraph serves POST /graphs: the body graph joins the live
// dataset under a fresh id and every index is maintained before the
// response returns, so a subsequent query observes it. New vertex labels
// are interned — an added graph may grow the label universe. Mutations
// pass through admission control like queries: index maintenance is real
// engine work.
func (s *Server) handleAddGraph(w http.ResponseWriter, r *http.Request) {
	s.cMutate.Inc()
	wg, err := readWire(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	defer wg.release()
	ctx, release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	g, err := wg.intern(&s.eng.Dataset().Dict)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	id, err := s.eng.AddGraph(ctx, g)
	if err != nil {
		s.fail(w, mutationStatusCode(err), err)
		return
	}
	s.writeMutation(w, id)
}

// writeMutation answers a successful mutation with the epoch and live count
// read after it (a concurrent mutation may already be folded in).
func (s *Server) writeMutation(w http.ResponseWriter, id graph.ID) {
	live, _ := s.eng.Counts()
	writeJSON(w, MutationResponse{ID: id, Epoch: s.eng.Epoch(), Graphs: live})
}

// handleRemoveGraph serves DELETE /graphs/{id}: the graph is tombstoned —
// it can never again appear in any candidate or answer set — and the
// index drops it. The id is never reused.
func (s *Server) handleRemoveGraph(w http.ResponseWriter, r *http.Request) {
	s.cMutate.Inc()
	idStr := r.PathValue("id")
	id64, err := strconv.ParseInt(idStr, 10, 32)
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad graph id %q", idStr))
		return
	}
	ctx, release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	// A failed remove may still have committed its tombstone (its journal
	// append failed): the error surfaces, and Counts tracks the dataset.
	if err := s.eng.RemoveGraph(ctx, graph.ID(id64)); err != nil {
		s.fail(w, mutationStatusCode(err), err)
		return
	}
	s.writeMutation(w, graph.ID(id64))
}

// handleMethods serves GET /methods: the live registry listing.
func (s *Server) handleMethods(w http.ResponseWriter, _ *http.Request) {
	var out []MethodJSON
	for _, d := range engine.Descriptors() {
		m := MethodJSON{Name: d.Name, Display: d.Display, Help: d.Help}
		for _, f := range d.Fields {
			m.Params = append(m.Params, ParamJSON{
				Name: f.Name, Kind: f.Kind.String(), Default: f.Default, Help: f.Help,
			})
		}
		out = append(out, m)
	}
	writeJSON(w, out)
}

// handleStats serves GET /stats.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	ds := s.eng.Dataset()
	var routing *router.Snapshot
	if s.routing != nil {
		snap := s.routing.Stats()
		routing = &snap
	}
	graphs, removed := s.eng.Counts()
	epoch := s.eng.Epoch()
	writeJSON(w, StatsResponse{
		Routing:       routing,
		UptimeSeconds: time.Since(s.started).Seconds(),
		Dataset:       ds.Name,
		Graphs:        graphs,
		Removed:       removed,
		Epoch:         epoch,
		Method:        s.cfg.Spec,
		Shards:        s.cfg.Shards,
		Draining:      s.draining.Load(),
		Cache:         s.eng.CacheStats(),
		Admission: AdmissionStats{
			Workers:    s.cfg.Workers,
			QueueLimit: s.cfg.MaxQueue,
			InFlight:   s.gInflight.Value(),
			Waiting:    max(s.gAdmitted.Value()-s.gInflight.Value(), 0),
			Rejected:   s.cRejected.Value(),
			TimedOut:   s.cTimedOut.Value(),
		},
		Requests: RequestStats{
			Query:  s.cQuery.Value(),
			Batch:  s.cBatch.Value(),
			Stream: s.cStream.Value(),
			Mutate: s.cMutate.Value(),
			Errors: s.cErrors.Value(),
		},
	})
}

// handleHealthz serves GET /healthz: pure liveness. It answers 200 as long
// as the process runs — draining included, so an orchestrator does not kill
// a process that is still finishing in-flight work. Routability is /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}

// handleReadyz serves GET /readyz: readiness to take traffic. 503 while
// draining (and, via the bootstrap handler the commands install before the
// index build finishes, during startup), and 503 while a lazily-opened
// (storage=mmap) index is still materializing its first-touch sections;
// load balancers route on this, not on liveness.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.Header()["Content-Type"] = ContentJSON
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"status": "draining"})
		return
	}
	if !s.eng.Ready() {
		w.Header()["Content-Type"] = ContentJSON
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"status": "warming"})
		return
	}
	writeJSON(w, map[string]string{"status": "ready"})
}
