package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"io"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/server"
)

// NodeServerConfig configures the HTTP layer over a Node.
type NodeServerConfig struct {
	// RequestTimeout bounds each request's engine work (default 30s;
	// negative = unlimited).
	RequestTimeout time.Duration
	// Client performs outbound dump fetches for /node/load (default: a
	// plain client with no overall timeout — the request context bounds it).
	Client *http.Client
	// Registry hosts the node's metrics, served at GET /metrics. Nil
	// creates a private registry.
	Registry *obs.Registry
	// SlowQuery > 0 logs any /node/query slower than it as one structured
	// JSON line (span tree included) on SlowQueryWriter (default stderr).
	SlowQuery       time.Duration
	SlowQueryWriter io.Writer
	// EnablePprof mounts net/http/pprof under GET /debug/pprof/.
	EnablePprof bool
}

// NodeServer is the HTTP face of a shard node: the node protocol
// (/node/query, /node/info, mutations, dump/load) plus the
// liveness/readiness pair cluster membership probes.
type NodeServer struct {
	node     *Node
	cfg      NodeServerConfig
	mux      *http.ServeMux
	draining atomic.Bool

	reqQuery, reqMutate, reqErrors *obs.Counter
	queryDur                       *obs.Family
	slow                           *obs.SlowQueryLog
}

// NewNodeServer wraps a built node.
func NewNodeServer(n *Node, cfg NodeServerConfig) *NodeServer {
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	s := &NodeServer{node: n, cfg: cfg}
	req := cfg.Registry.Counter("sq_node_requests_total", "Node protocol requests by kind.", "kind")
	s.reqQuery = req.Counter("query")
	s.reqMutate = req.Counter("mutate")
	s.reqErrors = req.Counter("errors")
	s.queryDur = cfg.Registry.Histogram("sq_query_duration_seconds",
		"Query latency by method.", obs.DefBuckets, "method")
	s.slow = obs.NewSlowQueryLog(cfg.SlowQuery, cfg.SlowQueryWriter)
	s.slow.SetDropped(cfg.Registry.Counter("sq_slowlog_dropped_total",
		"Slow-query log lines dropped by the byte budget.").Counter())
	obs.RegisterRuntimeMetrics(cfg.Registry)
	obs.RegisterIndexMetrics(cfg.Registry)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /node/info", s.handleInfo)
	mux.HandleFunc("POST /node/query", s.handleQuery)
	mux.HandleFunc("POST /node/graphs", s.handleAdd)
	mux.HandleFunc("DELETE /node/graphs/{id}", s.handleRemove)
	mux.HandleFunc("GET /node/dump", s.handleDump)
	mux.HandleFunc("GET /node/indexfile", s.handleIndexFile)
	mux.HandleFunc("POST /node/load", s.handleLoad)
	mux.Handle("GET /metrics", cfg.Registry.Handler())
	if cfg.EnablePprof {
		server.RegisterPprof(mux)
	}
	s.mux = mux
	return s
}

// Registry returns the node server's metrics registry.
func (s *NodeServer) Registry() *obs.Registry { return s.cfg.Registry }

// Handler returns the node's HTTP handler.
func (s *NodeServer) Handler() http.Handler { return s.mux }

// Drain flips readiness off so the coordinator routes away, while requests
// in flight complete.
func (s *NodeServer) Drain() { s.draining.Store(true) }

// fail writes a JSON error body and counts it in
// sq_node_requests_total{kind="errors"}: every non-2xx node answer is one.
func (s *NodeServer) fail(w http.ResponseWriter, code int, err error) {
	s.reqErrors.Inc()
	w.Header()["Content-Type"] = server.ContentJSON
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(server.ErrorResponse{Error: err.Error()})
}

func (s *NodeServer) writeJSON(w http.ResponseWriter, v any) {
	w.Header()["Content-Type"] = server.ContentJSON
	json.NewEncoder(w).Encode(v)
}

// statusFor maps node errors onto the statuses the coordinator's failover
// logic distinguishes: a shard this node does not serve is 404 (stale
// routing — fail over), engine.ErrNoSuchGraph 404, context ends 504.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrNotOwned), errors.Is(err, engine.ErrNoSuchGraph):
		return http.StatusNotFound
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// handleHealthz is pure liveness: the process is up.
func (s *NodeServer) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 200 only when the node serves traffic. The
// node is constructed before the server, so readiness here means "not
// draining and not warming" — sqnode answers 503 from a bootstrap handler
// while shards are still building, and a node whose shards restored with
// storage=mmap answers 503 here until their first-touch sections have
// materialized.
func (s *NodeServer) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	status := "ready"
	switch {
	case s.draining.Load():
		status = "draining"
	case !s.node.Ready():
		status = "warming"
	}
	w.Header().Set("Content-Type", "application/json")
	if status != "ready" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(map[string]string{"status": status})
}

func (s *NodeServer) handleInfo(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, s.node.Info())
}

// parseShards parses the ?shards=1,2,5 selector over shard ids [0, count).
// A repeated shard would be streamed as two legs, each answer twice, so it
// is refused; the range check first bounds the repeat check's bitmap.
func parseShards(v string, count int) ([]int, error) {
	if v == "" {
		return nil, errors.New("missing shards parameter")
	}
	shards, err := parseList(v, "shard", strconv.Atoi)
	if err != nil {
		return nil, err
	}
	seen := make([]bool, count)
	for _, k := range shards {
		switch {
		case k < 0 || k >= count:
			return nil, fmt.Errorf("shard %d outside [0, %d)", k, count)
		case seen[k]:
			return nil, fmt.Errorf("repeated shard %d", k)
		}
		seen[k] = true
	}
	return shards, nil
}

// parseList parses a comma-separated list of name values.
func parseList[T any](v, name string, parse func(string) (T, error)) ([]T, error) {
	parts := strings.Split(v, ",")
	out := make([]T, 0, len(parts))
	for _, p := range parts {
		x, err := parse(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad %s %q", name, p)
		}
		out = append(out, x)
	}
	return out, nil
}

// handleQuery serves POST /node/query?shards=...: body is one GraphJSON,
// answered as NDJSON LegLines — global answer ids merged ascending across
// the requested shards, flushed per line, then the done line. ?after=N
// resumes strictly after a failed-over leg's frontier, and ?epochs=... (one
// per shard) are the epochs the leg needs; a repeated shard is a 400. The
// node streams under chunked locking (no lock held across writes), so a
// client that stops reading never blocks mutations, and a mutation landing
// mid-stream re-plans the leg after its frontier; the write deadline still
// bounds how long such a client pins the connection. A leg refused
// for a stale shard (always the stream's first element) is answered 409
// instead, with the StaleShardError as the body. The done line carries the
// leg's candidates and pipeline counters, and is where the query is
// accounted: the latency histogram, the slow log and the trace root.
func (s *NodeServer) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.reqQuery.Inc()
	t0 := time.Now()
	params := r.URL.Query()
	shards, err := parseShards(params.Get("shards"), s.node.cfg.ShardCount)
	after, need := graph.ID(-1), []uint64(nil)
	if a := params.Get("after"); a != "" && err == nil {
		v, perr := strconv.ParseInt(a, 10, 32)
		if perr != nil {
			err = fmt.Errorf("bad after %q", a)
		}
		after = graph.ID(v)
	}
	if e := params.Get("epochs"); e != "" && err == nil {
		need, err = parseList(e, "epoch", func(p string) (uint64, error) { return strconv.ParseUint(p, 10, 64) })
		if err == nil && len(need) != len(shards) {
			err = fmt.Errorf("%d epochs for %d shards", len(need), len(shards))
		}
	}
	var q *graph.Graph
	var unknown bool
	if err == nil {
		q, unknown, err = server.ReadQuery(r, &s.node.src.Dict)
	}
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
		rc := http.NewResponseController(w)
		_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.RequestTimeout))
		defer rc.SetWriteDeadline(time.Time{})
	}
	// A trace id on the request links this node's spans into the
	// coordinator's tree: the node runs its own trace under the same id and
	// echoes the subtree on the done line. Without a header, a trace is
	// still run when the slow log needs one.
	var tr *obs.Trace
	traceID := obs.TraceIDFromHeader(r.Header.Get(obs.TraceHeader))
	if traceID != "" {
		tr = obs.NewTraceWithID(traceID)
	} else if s.slow.Enabled() {
		tr = obs.NewTrace()
	}
	root := tr.StartSpan(nil, "node-query")
	root.Attr("node", s.node.Name())
	root.Attr("shards", shards)
	ctx = obs.ContextWithSpan(ctx, root)
	if unknown {
		root.Attr("unknown_label", true)
	}

	// The status goes out with the first line: a refusal can still be a 409.
	w.Header()["Content-Type"] = server.ContentNDJSON
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	flush := func() {
		if fl != nil {
			fl.Flush()
		}
	}
	cands := graph.IDSet{}
	stats := core.PipelineStats{Candidates: &cands}
	n := 0
	for id, err := range s.node.StreamStats(ctx, shards, need, q, after, &stats) {
		var refused *StaleShardError
		if errors.As(err, &refused) {
			root.Cancel()
			s.reqErrors.Inc()
			w.Header()["Content-Type"] = server.ContentJSON
			w.WriteHeader(http.StatusConflict)
			enc.Encode(refused)
			return
		}
		if err != nil {
			root.Cancel()
			enc.Encode(server.StreamLine{Error: err.Error()})
			flush()
			return
		}
		if enc.Encode(server.StreamLine{ID: &id}) != nil {
			root.Cancel()
			return
		}
		flush()
		n++
	}

	wall := time.Since(t0)
	s.queryDur.Histogram(s.node.Spec()).Observe(wall.Seconds())
	root.Attr("answers", n)
	root.End()
	done := LegLine{
		StreamLine: server.StreamLine{Done: true, Matches: n, Produced: stats.Produced.Load(), Verified: stats.Verified.Load()},
		Candidates: cands,
	}
	if traceID != "" {
		if done.Trace = tr.Tree(); done.Trace != nil {
			done.Trace.Node = s.node.Name()
		}
	}
	s.slow.Record(wall, obs.SlowQueryRecord{
		Kind: "node-query", Trace: tr.ID(), Method: s.node.Spec(),
		Candidates: len(cands), Produced: int(done.Produced), Verified: int(done.Verified),
		Answers: n, Extra: map[string]any{"shards": shards}, Spans: tr.Tree(),
	})
	enc.Encode(done)
	flush()
}

// handleAdd serves POST /node/graphs: a coordinator-routed add.
func (s *NodeServer) handleAdd(w http.ResponseWriter, r *http.Request) {
	s.reqMutate.Inc()
	var req AddRequest
	if err := server.DecodeJSON(r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	g, err := server.InternGraph(req.Graph, &s.node.src.Dict)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	ack, err := s.node.Add(r.Context(), req.ID, req.Epoch, g)
	if err != nil {
		s.fail(w, statusFor(err), err)
		return
	}
	s.writeJSON(w, ack)
}

// handleRemove serves DELETE /node/graphs/{id}?epoch=E.
func (s *NodeServer) handleRemove(w http.ResponseWriter, r *http.Request) {
	s.reqMutate.Inc()
	id64, err := strconv.ParseInt(r.PathValue("id"), 10, 32)
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad graph id %q", r.PathValue("id")))
		return
	}
	epoch, err := strconv.ParseUint(r.URL.Query().Get("epoch"), 10, 64)
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad epoch %q", r.URL.Query().Get("epoch")))
		return
	}
	ack, err := s.node.Remove(r.Context(), graph.ID(id64), epoch)
	if err != nil {
		s.fail(w, statusFor(err), err)
		return
	}
	s.writeJSON(w, ack)
}

// handleDump serves GET /node/dump?shard=k: the shard's live graphs as
// NDJSON DumpLines in ascending global-id order, terminated by a Done line
// carrying the shard epoch and max homed id.
func (s *NodeServer) handleDump(w http.ResponseWriter, r *http.Request) {
	k, err := strconv.Atoi(r.URL.Query().Get("shard"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad shard %q", r.URL.Query().Get("shard")))
		return
	}
	graphs, epoch, maxID, err := s.node.Dump(k)
	if err != nil {
		s.fail(w, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, dg := range graphs {
		gj := server.GraphToJSON(dg.Graph, &s.node.src.Dict)
		if enc.Encode(DumpLine{ID: dg.ID, Graph: &gj}) != nil {
			return
		}
	}
	enc.Encode(DumpLine{Done: true, Epoch: epoch, MaxID: maxID})
}

// handleIndexFile serves GET /node/indexfile?shard=k: the shard's persisted
// index file, byte for byte, whatever the method, compacted first so that
// it carries every acked mutation rather than lagging the journal beside
// it. A peer installing the shard fetches it alongside the dump so its
// engine restores the index instead of rebuilding; the container's
// checksums and epoch+tag stamp make the transfer self-validating — a
// receiver whose reassembled sub-dataset mismatches falls back to a
// rebuild. 404 when the node does not persist, does not serve the shard, or
// the file is absent.
func (s *NodeServer) handleIndexFile(w http.ResponseWriter, r *http.Request) {
	k, err := strconv.Atoi(r.URL.Query().Get("shard"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad shard %q", r.URL.Query().Get("shard")))
		return
	}
	s.node.mu.RLock()
	sh, owned := s.node.shards[k]
	s.node.mu.RUnlock()
	if !owned {
		s.fail(w, http.StatusNotFound, fmt.Errorf("%w: shard %d on node %s", ErrNotOwned, k, s.node.Name()))
		return
	}
	if s.node.cfg.IndexPath == "" {
		s.fail(w, http.StatusNotFound, fmt.Errorf("node %s does not persist indexes", s.node.Name()))
		return
	}
	if err := sh.Engine().Save(s.node.shardIndexPath(k)); err != nil {
		s.fail(w, http.StatusInternalServerError, fmt.Errorf("compacting shard %d: %w", k, err))
		return
	}
	f, err := os.Open(s.node.shardIndexPath(k))
	if err != nil {
		s.fail(w, http.StatusNotFound, fmt.Errorf("no index file for shard %d", k))
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	io.Copy(w, f)
}

// fetchIndexFile best-effort copies the dump owner's persisted shard index
// file to this node's own shard index path, so the engine open inside the
// following Install restores it instead of rebuilding, and removes the
// journal of the file it replaced. Reports whether the full file landed;
// the atomic rename means any failure leaves no partial file behind and
// the install just rebuilds as before.
func (s *NodeServer) fetchIndexFile(ctx context.Context, from string, k int) bool {
	if s.node.cfg.IndexPath == "" {
		return false
	}
	url := fmt.Sprintf("%s/node/indexfile?shard=%d", strings.TrimSuffix(from, "/"), k)
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false
	}
	resp, err := s.cfg.Client.Do(httpReq)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	path := s.node.shardIndexPath(k)
	if engine.AtomicWriteFile(path, func(w io.Writer) error {
		_, err := io.Copy(w, resp.Body)
		return err
	}) != nil {
		return false
	}
	os.Remove(engine.JournalPath(path))
	return true
}

// handleLoad serves POST /node/load: install a shard, either rebuilt from
// the node's local dataset copy (From empty, epoch-0 shards only) or
// streamed from the owner at From.
func (s *NodeServer) handleLoad(w http.ResponseWriter, r *http.Request) {
	var req LoadRequest
	if err := server.DecodeJSON(r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if req.From == "" {
		if req.Epoch != 0 {
			s.fail(w, http.StatusBadRequest,
				fmt.Errorf("shard %d is at epoch %d; a local rebuild would miss its mutations", req.Shard, req.Epoch))
			return
		}
		if err := s.node.LoadLocal(r.Context(), req.Shard); err != nil {
			s.fail(w, statusFor(err), err)
			return
		}
	} else if err := s.loadFrom(r, req); err != nil {
		s.fail(w, statusFor(err), err)
		return
	}
	info := s.node.Info()
	for _, si := range info.Shards {
		if si.Shard == req.Shard {
			s.writeJSON(w, MutateAck{Node: s.node.Name(), Shard: si.Shard, Epoch: si.Epoch, Graphs: si.Graphs})
			return
		}
	}
	s.fail(w, http.StatusInternalServerError, fmt.Errorf("shard %d missing after load", req.Shard))
}

// loadFrom fetches a shard dump from a peer and installs it.
func (s *NodeServer) loadFrom(r *http.Request, req LoadRequest) error {
	url := fmt.Sprintf("%s/node/dump?shard=%d", strings.TrimSuffix(req.From, "/"), req.Shard)
	httpReq, err := http.NewRequestWithContext(r.Context(), http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := s.cfg.Client.Do(httpReq)
	if err != nil {
		return fmt.Errorf("fetching dump from %s: %w", req.From, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("dump from %s: %s", req.From, resp.Status)
	}
	var graphs []DumpGraph
	var epoch uint64
	maxID := int64(-1)
	done := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), server.MaxBodyBytes)
	for sc.Scan() {
		var line DumpLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return fmt.Errorf("decoding dump line: %w", err)
		}
		if line.Done {
			epoch, maxID, done = line.Epoch, line.MaxID, true
			break
		}
		if line.Graph == nil {
			return errors.New("dump line missing graph")
		}
		g, err := server.InternGraph(*line.Graph, &s.node.src.Dict)
		if err != nil {
			return err
		}
		graphs = append(graphs, DumpGraph{ID: line.ID, Graph: g})
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading dump: %w", err)
	}
	if !done {
		return errors.New("dump ended without done marker — source died mid-dump")
	}
	// Ship the owner's index file alongside the dump: the install's
	// engine open restores it byte-for-byte when its epoch+tag stamp
	// matches the reassembled sub-dataset (always for unmutated and
	// add-only shard histories; removals leave tombstones the reassembly
	// does not reproduce, so those validate stale and rebuild — which is
	// exactly what would have happened without the fetch).
	s.fetchIndexFile(r.Context(), req.From, req.Shard)
	return s.node.Install(r.Context(), req.Shard, epoch, maxID, graphs)
}
