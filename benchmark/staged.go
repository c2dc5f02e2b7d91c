package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/subiso"
)

// The staged pass performs each op stage by stage through the public
// functions of the layers and records a span around every call. The spans
// are the benchmark's own; the program is not instrumented.
const (
	existsSampleEvery = 16   // one candidate in 16 is re-verified under a subiso.Exists span
	sectionQueries    = 256  // query-section sample on workloads whose own ops are not flat queries
	loopQueries       = 128  // queries in a probe loop that is repeated for its best time
	sectionRequests   = 1024 // serve-section requests on workloads that do not serve
	sectionCache      = 128  // cache entries of that serve section: an eighth of its requests
	sectionPairs      = 16   // mutate-section add+remove pairs
	enginePairs       = 8    // add+remove pairs of the persisting-engine probe
	probeGraphs       = 250  // size of the probe dataset the method and engine probes build over
	probeQueries      = 256
)

// stager records staged ops into one recorder.
type stager struct {
	ctx    context.Context
	rec    *recorder
	nextOp int32
	cands  int // candidates seen, for the 1-in-16 sample
}

// stagedQuery is the in-process op: engine.Query, then the same query
// replayed through core.NewPlan, plan.Candidates and core.VerifyCandidates,
// then subiso.Exists on a sample of its candidates.
func (s *stager) stagedQuery(parent int32, eng *engine.Engine, q *graph.Graph) error {
	rec := s.rec
	s.nextOp++
	o := rec.begin(parent, s.nextOp, "op.query")
	defer rec.end(o)

	sp := rec.begin(o, s.nextOp, "engine.Query")
	_, err := eng.Query(s.ctx, q)
	rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.begin(o, s.nextOp, "core.NewPlan")
	plan, err := core.NewPlan(s.ctx, eng.Method(), eng.Dataset(), q)
	rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.begin(o, s.nextOp, "plan.Candidates")
	cands := eng.Dataset().FilterLive(plan.Candidates())
	rec.end(sp)
	sp = rec.begin(o, s.nextOp, "core.VerifyCandidates")
	_, err = core.VerifyCandidates(s.ctx, plan, cands, 1)
	rec.end(sp)
	if err != nil {
		return err
	}
	for _, id := range cands {
		if s.cands++; s.cands%existsSampleEvery != 0 {
			continue
		}
		g := eng.Dataset().Graph(id)
		sp = rec.begin(o, s.nextOp, "subiso.Exists")
		existsSink = subiso.Exists(q, g)
		rec.end(sp)
	}
	return nil
}

var existsSink bool

// stagedServe is the serving op: the handler's stages called one by one.
func (s *stager) stagedServe(parent int32, ce *server.CachedEngine, body []byte) error {
	rec := s.rec
	s.nextOp++
	o := rec.begin(parent, s.nextOp, "op.serve")
	defer rec.end(o)

	sp := rec.begin(o, s.nextOp, "server.ToGraph")
	var gj server.GraphJSON
	err := json.Unmarshal(body, &gj)
	var q *graph.Graph
	if err == nil {
		q, _, err = server.ToGraph(gj, &ce.Dataset().Dict)
	}
	rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.begin(o, s.nextOp, "server.QueryKey")
	server.QueryKey(q)
	rec.end(sp)
	sp = rec.begin(o, s.nextOp, "server.CachedEngine.Query.miss")
	res, err := ce.Query(s.ctx, q)
	rec.end(sp)
	if err != nil {
		return err
	}
	if res.Cached {
		rec.spans[sp-1].Name = "server.CachedEngine.Query.hit"
	}
	sp = rec.begin(o, s.nextOp, "json.Marshal")
	_, err = json.Marshal(server.QueryResponse{
		Candidates: res.Candidates, Answers: res.Answers, Method: res.Method, Cached: res.Cached,
		FilterUs: res.FilterTime.Microseconds(), VerifyUs: res.VerifyTime.Microseconds(),
		TotalUs: res.TotalTime().Microseconds(),
	})
	rec.end(sp)
	return err
}

// stagedMutate is the mutation op: the dataset, the incremental indexer and
// the persisting save called one by one on a bare method.
func (s *stager) stagedMutate(parent int32, ds *graph.Dataset, m core.Method, path string, add *graph.Graph, remove graph.ID) error {
	rec := s.rec
	inc := m.(core.IncrementalIndexer)
	s.nextOp++
	var o int32
	var err error
	if add != nil {
		o = rec.begin(parent, s.nextOp, "op.add")
		sp := rec.begin(o, s.nextOp, "graph.Dataset.Add")
		ds.Add(add)
		rec.end(sp)
		sp = rec.begin(o, s.nextOp, "core.AddGraphToIndex")
		err = inc.AddGraphToIndex(add)
		rec.end(sp)
	} else {
		o = rec.begin(parent, s.nextOp, "op.remove")
		sp := rec.begin(o, s.nextOp, "graph.Dataset.Remove")
		ds.Remove(remove)
		rec.end(sp)
		sp = rec.begin(o, s.nextOp, "core.RemoveGraphFromIndex")
		err = inc.RemoveGraphFromIndex(remove)
		rec.end(sp)
	}
	if err == nil {
		sp := rec.begin(o, s.nextOp, "engine.SaveMethod")
		err = engine.SaveMethod(path, m)
		rec.end(sp)
	}
	rec.end(o)
	return err
}

// stagedPass replays the workload's own op list in staged mode under one
// "pass" span and returns that span's id.
func (r *runner) stagedPass(s *stager, flat *engine.Engine) (int32, error) {
	rec := s.rec
	var addGraphs []*graph.Graph
	var addIDs []graph.ID
	if r.sp.mutateEvery > 0 {
		if err := r.freshMutable(); err != nil {
			return 0, err
		}
		addGraphs, addIDs = r.in.addGraphs(r.in.adds), make([]graph.ID, r.in.adds)
	}
	runtime.GC()
	root := rec.begin(0, 0, "pass")
	for i, o := range r.in.ops {
		var err error
		switch {
		case o.kind == opServe:
			err = s.stagedServe(root, r.srv.Engine(), o.body)
		case r.sp.shards == 0:
			err = s.stagedQuery(root, flat, r.in.queries[o.arg])
		default:
			// The shards of a sharded engine are not public: its ops are
			// one span each.
			s.nextOp++
			switch o.kind {
			case opQuery:
				sp := rec.begin(root, s.nextOp, "engine.Sharded.Query")
				_, err = r.tgt.Query(r.ctx, r.in.queries[o.arg])
				rec.end(sp)
			case opAdd:
				sp := rec.begin(root, s.nextOp, "engine.Sharded.AddGraph")
				addIDs[o.arg], err = r.tgt.AddGraph(r.ctx, addGraphs[o.arg])
				rec.end(sp)
			case opRemove:
				sp := rec.begin(root, s.nextOp, "engine.Sharded.RemoveGraph")
				err = r.tgt.RemoveGraph(r.ctx, addIDs[o.arg])
				rec.end(sp)
			}
		}
		r.attempted++
		if err != nil {
			r.fail("staged op %d: %v", i, err)
		}
	}
	rec.end(root)
	return root, nil
}

// tracer is the traced part of a --trace 1 run: the staged pass, the three
// staged sections every workload runs so that every layer has numbers on the
// workload's own inputs, the layer probes, and the separation self-check.
type tracer struct {
	ctx context.Context
	r   *runner
	s   *stager
	m   map[string]float64 // the per-layer metrics
	// flat is the engine the query stages run on: the measured engine, or
	// for the sharded workload a flat engine over the same dataset.
	flat *engine.Engine
	// passAgg sums the spans of the workload's own staged pass.
	passAgg map[string]nameAgg
}

func traceRun(ctx context.Context, r *runner, st *setup, measured []*passResult, guard *noiseGuard, opt options) (map[string]float64, error) {
	sp, in, log := r.sp, r.in, opt.log
	t := &tracer{ctx: ctx, r: r, s: &stager{ctx: ctx, rec: newRecorder(1 << 16)}, m: make(map[string]float64)}
	rec, m := t.s.rec, t.m
	t.flat, _ = r.tgt.(*engine.Engine)
	if t.flat == nil {
		var err error
		if t.flat, err = engine.Open(ctx, in.dataset(), engine.WithSpec(sp.engineSpec()), engine.WithVerifyWorkers(1)); err != nil {
			return nil, err
		}
	}

	root, err := r.stagedPass(t.s, t.flat)
	if err != nil {
		return nil, err
	}
	stagedWall := rec.dur(root)
	bestBusy := measured[0].busyS
	for _, p := range measured {
		bestBusy = min(bestBusy, p.busyS)
	}
	m["bench.trace_overhead_ratio"] = stagedWall.Seconds() / bestBusy
	t.passAgg = aggregate(rec.spans, 0)
	unattributed := float64(t.passAgg["pass"].self) / float64(stagedWall)
	log("staged pass: %d spans, wall %.3f s, %.2f%% of it outside any op span", len(rec.spans), stagedWall.Seconds(), 100*unattributed)
	mutNs := t.passAgg["engine.Sharded.AddGraph"].total + t.passAgg["engine.Sharded.RemoveGraph"].total
	m["share.mutation_pct"] = 100 * float64(mutNs) / float64(stagedWall)
	guard.sample()

	if err := t.querySection(); err != nil {
		return nil, err
	}
	guard.sample()
	cl, ops, err := t.serveSection()
	if err != nil {
		return nil, err
	}
	guard.sample()
	pd, err := newProbeData(ctx, in, filepath.Join(r.dir, "probe"))
	if err != nil {
		return nil, err
	}
	if err := t.mutateSection(pd); err != nil {
		return nil, err
	}
	guard.sample()
	if err := layerProbes(ctx, m, r, st, t.flat, pd); err != nil {
		return nil, err
	}
	m["server.conc2_qps_ratio"] = conc2Ratio(cl, t.flat, ops)

	m["gen.dataset_s"], m["workload.querygen_s"] = in.datasetS, in.querygenS
	m["engine.build_s"], m["engine.save_ms"] = st.buildS, st.saveS*1e3
	var gcs []float64
	for _, p := range measured {
		gcs = append(gcs, float64(p.gcCycles))
	}
	m["proc.gc_cycles_per_pass"] = median(gcs)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m["proc.gc_pause_total_ms"] = float64(mem.PauseTotalNs) / 1e6
	m["proc.rss_peak_mb"] = rssPeakMB()
	guard.sample()
	m["bench.calibration_ms"] = guard.report(log)

	traceDir := filepath.Join(opt.workDir, traceDirName)
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(traceDir, "trace-"+sp.name+".json")
	if err := writeSpans(tracePath, rec.spans); err != nil {
		return nil, err
	}
	log("trace: %d spans written to %s", len(rec.spans), tracePath)
	selfCheck(sp, m, unattributed, log)
	return m, nil
}

// querySection is the staged pass itself on the flat in-process workloads,
// else a sample of the workload's queries staged on the flat engine.
func (t *tracer) querySection() error {
	rec, m, in := t.s.rec, t.m, t.r.in
	agg := t.passAgg
	if t.r.sp.serve || t.r.sp.shards > 0 {
		from := len(rec.spans)
		sec := rec.begin(0, 0, "section.query")
		for _, q := range in.queries[:min(sectionQueries, len(in.queries))] {
			if err := t.s.stagedQuery(sec, t.flat, q); err != nil {
				return err
			}
		}
		rec.end(sec)
		agg = aggregate(rec.spans, from)
	}
	nq := agg["op.query"].n
	filterNs := agg["core.NewPlan"].total + agg["plan.Candidates"].total
	verifyNs := agg["core.VerifyCandidates"].total
	m["core.newplan_us_per_query"] = float64(filterNs) / 1e3 / float64(nq)
	m["core.verify_us_per_query"] = agg["core.VerifyCandidates"].usPer(nq)
	m["core.query_self_us"] = max(0, float64(agg["engine.Query"].total-filterNs-verifyNs)/1e3/float64(nq))
	m["subiso.exists_us_per_call"] = agg["subiso.Exists"].usPer(agg["subiso.Exists"].n)
	m["share.subiso_pct"] = 100 * float64(existsSampleEvery*agg["subiso.Exists"].total) / float64(agg["engine.Query"].total)
	m["share.filter_pct"] = 100 * float64(filterNs) / float64(filterNs+verifyNs)
	return nil
}

// serveSection is the staged pass itself on the serving workload, else Zipf
// requests over the workload's queries through a fresh server on the flat
// engine. It returns the client and requests for the probes that follow.
func (t *tracer) serveSection() (*client, []op, error) {
	r, rec, m, in := t.r, t.s.rec, t.m, t.r.in
	cl, ce, ops, agg := r.cl, (*server.CachedEngine)(nil), in.ops, t.passAgg
	if r.sp.serve {
		ce = r.srv.Engine()
	} else {
		srv := server.New(t.flat, server.Config{Spec: r.sp.engineSpec(), Workers: 1,
			Cache: server.CacheConfig{MaxEntries: sectionCache}})
		ce, cl = srv.Engine(), &client{ctx: t.ctx, handler: srv.Handler(), rw: r.cl.rw}
		var err error
		ops, err = serveOps(in.queries, &t.flat.Dataset().Dict, min(sectionRequests, 4*len(in.queries)),
			rand.New(rand.NewSource(mix(in.seed, 5))))
		if err != nil {
			return nil, nil, err
		}
	}
	// handlerPass sends the requests through the handler and returns the
	// latencies of the cache hits and the cache's counters over the pass.
	handlerPass := func() ([]float64, server.CacheStats) {
		c0 := ce.CacheStats()
		var hitUs []float64
		for _, o := range ops {
			d := cl.do(cl.request(http.MethodPost, "/query", o.body))
			if cl.rw.code != http.StatusOK {
				r.fail("serve section: HTTP %d", cl.rw.code)
			}
			if bytes.Contains(cl.rw.buf.Bytes(), []byte(`"cached":true`)) {
				hitUs = append(hitUs, float64(d)/1e3)
			}
		}
		r.attempted += len(ops)
		return hitUs, cacheDelta(ce.CacheStats(), c0)
	}
	if !r.sp.serve {
		handlerPass() // fill the fresh server's cache
	}
	handlerHitUs, cs := handlerPass()
	if !r.sp.serve {
		from := len(rec.spans)
		sec := rec.begin(0, 0, "section.serve")
		for _, o := range ops {
			if err := t.s.stagedServe(sec, ce, o.body); err != nil {
				return nil, nil, err
			}
		}
		rec.end(sec)
		agg = aggregate(rec.spans, from)
	}
	ns := agg["op.serve"].n
	hit, miss := agg["server.CachedEngine.Query.hit"], agg["server.CachedEngine.Query.miss"]
	m["server.to_graph_us"] = agg["server.ToGraph"].usPer(ns)
	m["server.query_key_us"] = agg["server.QueryKey"].usPer(ns)
	m["server.cached_hit_us"] = hit.usPer(hit.n)
	m["server.cached_miss_us"] = miss.usPer(miss.n)
	m["server.encode_us_per_response"] = agg["json.Marshal"].usPer(ns)
	m["server.cache_hit_ratio"] = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
	m["server.cache_evictions_per_pass"] = float64(cs.Evictions)
	// On a hit the engine does nothing, so what the handler adds to the
	// cached engine shows there: the handler's latency on hits minus the
	// staged CachedEngine.Query of hits.
	m["server.handler_self_us"] = max(0, sum(handlerHitUs)/float64(max(len(handlerHitUs), 1))-hit.usPer(hit.n))
	m["share.serving_pct"] = 100 * (1 - float64(miss.total)/float64(agg["op.serve"].total))
	var firstLine []float64
	for _, o := range ops[:min(64, len(ops))] {
		cl.do(cl.request(http.MethodPost, "/query?stream=1&limit=1", o.body))
		firstLine = append(firstLine, float64(cl.rw.firstWrite)/1e3)
	}
	m["server.stream_first_line_us"] = median(firstLine)
	cl.do(cl.request(http.MethodGet, "/stats", nil))
	var stats server.StatsResponse
	if err := json.Unmarshal(cl.rw.buf.Bytes(), &stats); err != nil {
		return nil, nil, fmt.Errorf("GET /stats: %w", err)
	}
	m["server.rejected_total"] = float64(stats.Admission.Rejected)
	if stats.Admission.Rejected != 0 {
		r.fail("server rejected %d requests", stats.Admission.Rejected)
	}
	return cl, ops, nil
}

// mutateSection stages add and remove ops on the probe dataset's bare ggsx.
func (t *tracer) mutateSection(pd *probeData) error {
	rec, m := t.s.rec, t.m
	from, pairs := len(rec.spans), t.r.sp.n(sectionPairs, 3)
	sec := rec.begin(0, 0, "section.mutate")
	var ids []graph.ID
	for _, g := range t.r.in.addGraphs(pairs) {
		if err := t.s.stagedMutate(sec, pd.ds, pd.ggsx, pd.path, g, 0); err != nil {
			return err
		}
		ids = append(ids, g.ID())
	}
	for _, id := range ids {
		if err := t.s.stagedMutate(sec, pd.ds, pd.ggsx, pd.path, nil, id); err != nil {
			return err
		}
	}
	rec.end(sec)
	agg := aggregate(rec.spans, from)
	m["graph.dataset_add_us"] = agg["graph.Dataset.Add"].usPer(pairs)
	m["graph.dataset_remove_us"] = agg["graph.Dataset.Remove"].usPer(pairs)
	m["ggsx.incr_add_us"] = agg["core.AddGraphToIndex"].usPer(pairs)
	m["ggsx.incr_remove_us"] = agg["core.RemoveGraphFromIndex"].usPer(pairs)
	return nil
}

// selfCheck prints whether the workload still stresses the layer it was
// chosen for. A failure means the generator parameters need retuning; it
// does not make the run incorrect.
func selfCheck(sp spec, m map[string]float64, unattributed float64, log func(string, ...any)) {
	check := func(ok bool, format string, args ...any) {
		verdict := "ok"
		if !ok {
			verdict = "WARNING: OFF"
		}
		log("separation self-check %s: %s", verdict, fmt.Sprintf(format, args...))
	}
	check(unattributed <= 0.05, "span self times sum to within 5%% of the staged pass wall time (%.2f%% unattributed)", 100*unattributed)
	switch sp.name {
	case "verify_heavy":
		check(m["share.subiso_pct"] >= 80, "subiso share %.1f%% >= 80%%", m["share.subiso_pct"])
	case "filter_heavy":
		check(m["share.subiso_pct"] <= 10, "subiso share %.1f%% <= 10%%", m["share.subiso_pct"])
		check(m["share.filter_pct"] >= 80, "filter share %.1f%% >= 80%%", m["share.filter_pct"])
	case "serve_zipf":
		h := m["server.cache_hit_ratio"]
		check(h >= 0.6 && h <= 0.85, "cache hit ratio %.3f in [0.6, 0.85]", h)
		check(m["server.cache_evictions_per_pass"] > 0, "%.0f evictions per pass > 0", m["server.cache_evictions_per_pass"])
	case "mutate_mix":
		check(m["share.mutation_pct"] >= 35, "mutation share of pass time %.1f%% >= 35%%", m["share.mutation_pct"])
	}
}

// conc2Ratio is throughput with two closed-loop clients on two cores over
// throughput with one client on one core, through a fresh server. It is
// informational: two clients on a shared 2-vCPU box do not repeat.
func conc2Ratio(cl *client, flat *engine.Engine, ops []op) float64 {
	srv := server.New(flat, server.Config{Workers: 2, Cache: server.CacheConfig{MaxEntries: sectionCache}})
	h := srv.Handler()
	replay := func(rw *memWriter, from int) {
		for i := range ops {
			rw.reset()
			h.ServeHTTP(rw, cl.request(http.MethodPost, "/query", ops[(from+i)%len(ops)].body))
		}
	}
	replay(cl.rw, 0)
	t0 := time.Now()
	replay(cl.rw, 0)
	one := float64(len(ops)) / time.Since(t0).Seconds()

	runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(1)
	var wg sync.WaitGroup
	t0 = time.Now()
	for c := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			replay(&memWriter{hdr: make(http.Header)}, c*len(ops)/2)
		}()
	}
	wg.Wait()
	return float64(2*len(ops)) / time.Since(t0).Seconds() / one
}
