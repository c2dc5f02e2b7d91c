package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"io"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/server"
)

// CoordServerConfig configures the coordinator's public HTTP face.
type CoordServerConfig struct {
	// RequestTimeout bounds each public request (default 30s; negative =
	// unlimited).
	RequestTimeout time.Duration
	// SlowQuery > 0 logs any /query slower than it as one structured JSON
	// line (span tree included) on SlowQueryWriter (default stderr).
	SlowQuery       time.Duration
	SlowQueryWriter io.Writer
	// EnablePprof mounts net/http/pprof under GET /debug/pprof/.
	EnablePprof bool
	// ScrapeTimeout bounds each per-node leg of a GET /metrics/cluster
	// federation scrape (default 3s).
	ScrapeTimeout time.Duration
	// SLO is the p99 latency target GET /health/score compares against;
	// non-positive disables the latency check.
	SLO time.Duration
}

// CoordServer serves the coordinator over the same public protocol as the
// single-process sqserve — POST /query (streaming included), /batch,
// /graphs, DELETE /graphs/{id}, /stats — so gquery -remote talks to a
// cluster without knowing it is one. /cluster adds the topology view.
type CoordServer struct {
	coord    *Coordinator
	cfg      CoordServerConfig
	mux      *http.ServeMux
	draining atomic.Bool

	queryDur *obs.Family
	slow     *obs.SlowQueryLog

	// Sliding windows behind GET /health/score: each request samples the
	// lifetime counters and reads rates over whatever the window holds.
	reqWin, errWin *obs.RateWindow
	latWin         *obs.HistWindow
}

// NewCoordServer wraps a coordinator.
func NewCoordServer(c *Coordinator, cfg CoordServerConfig) *CoordServer {
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	s := &CoordServer{
		coord:  c,
		cfg:    cfg,
		reqWin: obs.NewRateWindow(time.Minute),
		errWin: obs.NewRateWindow(time.Minute),
		latWin: obs.NewHistWindow(time.Minute),
	}
	// The histogram lives on the coordinator's registry, next to the
	// fan-out counters, so one /metrics scrape covers both.
	s.queryDur = c.Registry().Histogram("sq_query_duration_seconds",
		"Query latency by method.", obs.DefBuckets, "method")
	s.slow = obs.NewSlowQueryLog(cfg.SlowQuery, cfg.SlowQueryWriter)
	s.slow.SetDropped(c.Registry().Counter("sq_slowlog_dropped_total",
		"Slow-query log lines dropped by the byte budget.").Counter())
	obs.RegisterRuntimeMetrics(c.Registry())
	obs.RegisterIndexMetrics(c.Registry())
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /cluster", s.handleStats)
	mux.HandleFunc("GET /health/score", s.handleHealthScore)
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /batch", s.handleBatch)
	mux.HandleFunc("POST /graphs", s.handleAdd)
	mux.HandleFunc("DELETE /graphs/{id}", s.handleRemove)
	mux.Handle("GET /metrics", c.Registry().Handler())
	mux.HandleFunc("GET /metrics/cluster", s.handleFederate)
	if cfg.EnablePprof {
		server.RegisterPprof(mux)
	}
	s.mux = mux
	return s
}

// Handler returns the coordinator's public HTTP handler.
func (s *CoordServer) Handler() http.Handler { return s.mux }

// Drain flips readiness off for graceful shutdown.
func (s *CoordServer) Drain() { s.draining.Store(true) }

func (s *CoordServer) fail(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(server.ErrorResponse{Error: err.Error()})
}

func (s *CoordServer) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (s *CoordServer) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, map[string]string{"status": "ok"})
}

func (s *CoordServer) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		s.fail(w, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	s.writeJSON(w, map[string]string{"status": "ready"})
}

func (s *CoordServer) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, s.coord.Stats())
}

func (s *CoordServer) handleFederate(w http.ResponseWriter, r *http.Request) {
	snap, _ := s.coord.Federate(r.Context(), s.cfg.ScrapeTimeout)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap.Write(w)
}

func (s *CoordServer) handleHealthScore(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, s.healthReport(time.Now()))
}

// healthReport scores the coordinator: windowed error rate, windowed p99
// against the configured SLO, and cluster membership — down nodes (named
// in the reason), stale shards, and ownerless shards. The lifetime ratios
// stand in until the windows hold two samples.
func (s *CoordServer) healthReport(now time.Time) *obs.HealthReport {
	req := float64(s.coord.reqQuery.Value() + s.coord.reqStream.Value() +
		s.coord.reqBatch.Value() + s.coord.reqMutate.Value())
	errs := float64(s.coord.reqErrors.Value())
	s.reqWin.Observe(now, req)
	s.errWin.Observe(now, errs)
	errRate := 0.0
	if d := s.reqWin.Delta(); d > 0 {
		errRate = s.errWin.Delta() / d
	} else if req > 0 {
		errRate = errs / req
	}
	rep := obs.NewHealthReport()
	rep.Add(obs.CheckErrorRate(errRate))

	bounds, cum, total := obs.MergedHistogram(s.queryDur)
	s.latWin.Observe(now, cum, total)
	p99, ok := s.latWin.Quantile(bounds, 0.99)
	if !ok {
		p99 = obs.QuantileFromCells(bounds, cum, total, 0.99)
	}
	rep.Add(obs.CheckLatency(p99, s.cfg.SLO.Seconds()))

	h := s.coord.Health()
	member := obs.HealthCheck{Name: "membership", Status: obs.HealthOK,
		Value:  float64(len(h.Down)),
		Reason: fmt.Sprintf("all %d nodes up", h.Nodes)}
	if len(h.Down) > 0 {
		member.Status = obs.HealthDegraded
		member.Reason = fmt.Sprintf("%d of %d nodes down: %s",
			len(h.Down), h.Nodes, strings.Join(h.Down, ", "))
	}
	rep.Add(member)

	stale := obs.HealthCheck{Name: "stale_shards", Status: obs.HealthOK,
		Value: float64(len(h.StaleShards)), Reason: "no stale shards"}
	if len(h.StaleShards) > 0 {
		stale.Status = obs.HealthDegraded
		stale.Reason = fmt.Sprintf("%d shards serving old epochs: %v",
			len(h.StaleShards), h.StaleShards)
	}
	rep.Add(stale)

	owner := obs.HealthCheck{Name: "ownerless_shards", Status: obs.HealthOK,
		Value: float64(len(h.Ownerless)), Reason: "every shard has a reachable owner"}
	if len(h.Ownerless) > 0 {
		owner.Status = obs.HealthCritical
		owner.Reason = fmt.Sprintf("%d shards with no reachable fresh owner: %v",
			len(h.Ownerless), h.Ownerless)
	}
	rep.Add(owner)
	return rep
}

func (s *CoordServer) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	}
	return r.Context(), func() {}
}

func coordStatus(err error) int {
	switch {
	case errors.Is(err, ErrNoOwner):
		return http.StatusServiceUnavailable
	case errors.Is(err, engine.ErrNoSuchGraph):
		return http.StatusNotFound
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func (s *CoordServer) toResponse(res *QueryResult, wall time.Duration) server.QueryResponse {
	return server.QueryResponse{
		Candidates:   res.Candidates,
		Answers:      res.Answers,
		Method:       s.coord.Spec(),
		FilterUs:     res.FilterUs,
		VerifyUs:     res.VerifyUs,
		TotalUs:      wall.Microseconds(),
		Produced:     res.Produced,
		Verified:     res.Verified,
		Partial:      res.Partial,
		FailedShards: res.FailedShards,
	}
}

func (s *CoordServer) handleQuery(w http.ResponseWriter, r *http.Request) {
	var gj server.GraphJSON
	if err := server.DecodeJSON(r, w, &gj); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	limit := 0
	if ls := r.URL.Query().Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 1 {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("bad limit %q: want a positive integer", ls))
			return
		}
		limit = n
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	// A client-supplied trace id makes this request the root of a
	// cross-process tree: leg spans carry the id to the nodes, whose echoed
	// subtrees graft back under them. The slow log creates one on its own
	// when no header asked.
	var tr *obs.Trace
	echo := false
	if id := obs.TraceIDFromHeader(r.Header.Get(obs.TraceHeader)); id != "" {
		tr = obs.NewTraceWithID(id)
		echo = true
	} else if s.slow.Enabled() {
		tr = obs.NewTrace()
	}
	root := tr.StartSpan(nil, "cluster-query")
	ctx = obs.ContextWithSpan(ctx, root)
	if r.URL.Query().Get("stream") != "" {
		s.streamQuery(ctx, w, gj, limit)
		root.End()
		return
	}
	t0 := time.Now()
	if limit > 0 {
		// The limited one-shot runs through the streaming merge and stops
		// after limit answers: node legs are cancelled, so the cluster does
		// only (roughly — legs read ahead) the work it returns, exactly
		// like the single-process server's limited path.
		answers := make(graph.IDSet, 0, limit)
		st, err := s.coord.Stream(ctx, gj, func(id graph.ID) bool {
			answers = append(answers, id)
			return len(answers) < limit
		})
		if err != nil {
			root.Cancel()
			s.fail(w, coordStatus(err), err)
			return
		}
		wall := time.Since(t0)
		s.queryDur.Histogram(s.coord.Spec()).Observe(wall.Seconds())
		root.Attr("limit", limit)
		root.Attr("answers", len(answers))
		root.End()
		resp := server.QueryResponse{
			Candidates:   graph.IDSet{},
			Answers:      answers,
			Method:       s.coord.Spec(),
			TotalUs:      wall.Microseconds(),
			Partial:      st.Partial,
			FailedShards: st.FailedShards,
			Limit:        limit,
			Produced:     int(st.Produced),
			Verified:     int(st.Verified),
		}
		if echo {
			resp.Trace = tr.Tree()
		}
		s.slow.Record(wall, obs.SlowQueryRecord{
			Kind: "cluster-query", Trace: tr.ID(), Method: s.coord.Spec(),
			Produced: int(st.Produced), Verified: int(st.Verified),
			Answers: len(answers), Partial: st.Partial,
			Extra: map[string]any{"limit": limit}, Spans: tr.Tree(),
		})
		s.writeJSON(w, resp)
		return
	}
	res, err := s.coord.Query(ctx, gj)
	if err != nil {
		root.Cancel()
		s.fail(w, coordStatus(err), err)
		return
	}
	wall := time.Since(t0)
	s.queryDur.Histogram(s.coord.Spec()).Observe(wall.Seconds())
	root.Attr("answers", len(res.Answers))
	if res.Partial {
		root.Attr("partial", true)
	}
	root.End()
	resp := s.toResponse(res, wall)
	if echo {
		resp.Trace = tr.Tree()
	}
	s.slow.Record(wall, obs.SlowQueryRecord{
		Kind: "cluster-query", Trace: tr.ID(), Method: s.coord.Spec(),
		Candidates: len(res.Candidates), Produced: res.Produced,
		Verified: res.Verified, Answers: len(res.Answers),
		FilterUs: res.FilterUs, VerifyUs: res.VerifyUs, Partial: res.Partial,
		Spans: tr.Tree(),
	})
	s.writeJSON(w, resp)
}

// streamQuery relays the cluster merge as NDJSON, stopping after limit
// answers when limit > 0 (the unconsumed node legs are cancelled). The
// done line carries the partial flags: a consumer that saw every id line
// still must check it — a shard lost mid-stream silently truncates that
// shard's tail otherwise.
func (s *CoordServer) streamQuery(ctx context.Context, w http.ResponseWriter, gj server.GraphJSON, limit int) {
	if s.cfg.RequestTimeout > 0 {
		rc := http.NewResponseController(w)
		_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.RequestTimeout))
		defer rc.SetWriteDeadline(time.Time{})
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	broken := false
	n := 0
	st, err := s.coord.Stream(ctx, gj, func(id graph.ID) bool {
		line := server.StreamLine{ID: &id}
		if enc.Encode(line) != nil {
			broken = true
			return false
		}
		if fl != nil {
			fl.Flush()
		}
		n++
		return limit <= 0 || n < limit
	})
	if broken {
		return
	}
	if err != nil {
		enc.Encode(server.StreamLine{Error: err.Error()})
		if fl != nil {
			fl.Flush()
		}
		return
	}
	enc.Encode(server.StreamLine{
		Done: true, Matches: st.Matches, Partial: st.Partial, FailedShards: st.FailedShards,
		Produced: st.Produced, Verified: st.Verified,
	})
	if fl != nil {
		fl.Flush()
	}
}

func (s *CoordServer) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req server.BatchRequest
	if err := server.DecodeJSON(r, w, &req); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Queries) == 0 {
		s.fail(w, http.StatusBadRequest, errors.New("batch has no queries"))
		return
	}
	s.coord.reqBatch.Add(1)
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	items := make([]server.BatchItem, len(req.Queries))
	workers := req.Workers
	if workers <= 0 || workers > len(req.Queries) {
		workers = min(4, len(req.Queries))
	}
	engine.ForEachBounded(ctx, len(req.Queries), workers, func(qctx context.Context, i int) error {
		t0 := time.Now()
		res, err := s.coord.Query(qctx, req.Queries[i])
		if err != nil {
			items[i] = server.BatchItem{Error: err.Error()}
			return nil
		}
		items[i] = server.BatchItem{QueryResponse: s.toResponse(res, time.Since(t0))}
		return nil
	})
	s.writeJSON(w, server.BatchResponse{Results: items})
}

func (s *CoordServer) handleAdd(w http.ResponseWriter, r *http.Request) {
	var gj server.GraphJSON
	if err := server.DecodeJSON(r, w, &gj); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if len(gj.Vertices) == 0 {
		s.fail(w, http.StatusBadRequest, errors.New("graph has no vertices"))
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	resp, err := s.coord.Add(ctx, gj)
	if err != nil {
		s.fail(w, coordStatus(err), err)
		return
	}
	s.writeJSON(w, resp)
}

func (s *CoordServer) handleRemove(w http.ResponseWriter, r *http.Request) {
	id64, err := strconv.ParseInt(r.PathValue("id"), 10, 32)
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad graph id %q", r.PathValue("id")))
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	resp, err := s.coord.Remove(ctx, graph.ID(id64))
	if err != nil {
		s.fail(w, coordStatus(err), err)
		return
	}
	s.writeJSON(w, resp)
}
