package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	_ "repro/internal/engine/std"
	"repro/internal/graph"
	"repro/internal/server"
)

// target is what both engine shapes offer the benchmark.
type target interface {
	engine.Querier
	engine.Mutable
	engine.StatsStreamer
	Save(path string) error
	Restored() bool
	Ready() bool
}

// openTarget builds the workload's engine over ds, or restores it when
// indexPath names saved files. VerifyWorkers is 1: one core, one client.
func openTarget(ctx context.Context, sp spec, ds *graph.Dataset, indexPath string) (target, error) {
	opts := []engine.Option{engine.WithSpec(sp.engineSpec()), engine.WithVerifyWorkers(1)}
	if indexPath != "" {
		opts = append(opts, engine.WithIndexPath(indexPath))
	}
	if sp.shards > 0 {
		s, err := engine.OpenSharded(ctx, ds, sp.shards, opts...)
		if err != nil {
			return nil, err
		}
		return s, nil
	}
	e, err := engine.Open(ctx, ds, opts...)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// waitReady lets a lazily opened (mmap) index finish its background warm-up,
// so that work started by one measurement never runs inside the next.
func waitReady(t target) {
	for !t.Ready() {
		time.Sleep(200 * time.Microsecond)
	}
}

// restoreTarget reopens the saved index over a fresh dataset and fails if
// the engine rebuilt instead.
func restoreTarget(ctx context.Context, sp spec, ds *graph.Dataset, indexPath string) (target, error) {
	t, err := openTarget(ctx, sp, ds, indexPath)
	if err != nil {
		return nil, err
	}
	if !t.Restored() {
		return nil, errors.New("engine rebuilt the index instead of restoring the saved files")
	}
	return t, nil
}

// setup is one run of the set-up phase: inputs from the seed, index built
// in memory, index saved under dir.
type setup struct {
	in         *inputs
	eng        target
	indexPath  string
	indexBytes int64

	buildS, saveS, totalS float64
}

func setUp(ctx context.Context, sp spec, seed int64, dir string) (*setup, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &setup{in: &inputs{sp: sp, seed: seed}, indexPath: filepath.Join(dir, "ix")}
	t0 := time.Now()
	ds := st.in.dataset()
	if err := st.in.generate(ds); err != nil {
		return nil, err
	}
	tb := time.Now()
	eng, err := openTarget(ctx, sp, ds, "")
	if err != nil {
		return nil, fmt.Errorf("building index: %w", err)
	}
	ts := time.Now()
	if err := eng.Save(st.indexPath); err != nil {
		return nil, fmt.Errorf("saving index: %w", err)
	}
	end := time.Now()
	st.eng = eng
	st.buildS, st.saveS, st.totalS = ts.Sub(tb).Seconds(), end.Sub(ts).Seconds(), end.Sub(t0).Seconds()
	files, err := indexFiles(st.indexPath, sp)
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			return nil, err
		}
		st.indexBytes += fi.Size()
	}
	return st, nil
}

// indexFiles lists the files a saved index consists of.
func indexFiles(base string, sp spec) ([]string, error) {
	files := []string{base}
	for i := range sp.shards {
		p := engine.ShardIndexPath(base, i)
		if _, err := os.Stat(p); err == nil {
			files = append(files, p)
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	return files, nil
}

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// copyIndex copies a saved index to a new base path.
func copyIndex(dstBase, srcBase string, sp spec) error {
	files, err := indexFiles(srcBase, sp)
	if err != nil {
		return err
	}
	for _, f := range files {
		if err := copyFile(dstBase+f[len(srcBase):], f); err != nil {
			return err
		}
	}
	return nil
}

// memWriter is the reusable in-memory http.ResponseWriter: the full HTTP
// face of the server without the kernel socket path, which cannot be
// measured on a shared 2-vCPU box.
type memWriter struct {
	hdr        http.Header
	buf        bytes.Buffer
	code       int
	t0         time.Time
	firstWrite time.Duration // since t0, of the first body byte
}

func (w *memWriter) reset() {
	clear(w.hdr)
	w.buf.Reset()
	w.code = 0
	w.firstWrite = 0
}

func (w *memWriter) Header() http.Header { return w.hdr }
func (w *memWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *memWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	if w.firstWrite == 0 {
		w.firstWrite = time.Since(w.t0)
	}
	return w.buf.Write(p)
}
func (w *memWriter) Flush()                           {}
func (w *memWriter) SetWriteDeadline(time.Time) error { return nil }

// mutations holds the latencies of AddGraph and RemoveGraph calls apart: an
// add costs several times a remove, so a median over both would sit between
// two clusters and jump from one to the other.
type mutations struct{ addMs, removeMs []float64 }

// p50 is the mean of the add median and the remove median.
func (m mutations) p50() float64 { return (median(m.addMs) + median(m.removeMs)) / 2 }

// floorMutations is floor over rounds or passes of the same mutations.
func floorMutations(rounds []mutations) mutations {
	var adds, removes [][]float64
	for _, m := range rounds {
		adds, removes = append(adds, m.addMs), append(removes, m.removeMs)
	}
	return mutations{floor(adds), floor(removes)}
}

// split sorts the per-op latencies of one pass (or their floor over passes)
// by what the op was.
func (in *inputs) split(opMs []float64) (query []float64, mut mutations) {
	for i, o := range in.ops {
		switch o.kind {
		case opAdd:
			mut.addMs = append(mut.addMs, opMs[i])
		case opRemove:
			mut.removeMs = append(mut.removeMs, opMs[i])
		default:
			query = append(query, opMs[i])
		}
	}
	return query, mut
}

// client is the one closed-loop client of a serving workload: it sends a
// request through a handler into its reusable writer and waits for it.
type client struct {
	ctx     context.Context
	handler http.Handler
	rw      *memWriter
}

func (c *client) request(method, path string, body []byte) *http.Request {
	req, err := http.NewRequestWithContext(c.ctx, method, path, bytes.NewReader(body))
	if err != nil {
		panic(err) // the methods and paths are the benchmark's own constants
	}
	return req
}

// do runs one request through the handler and returns its latency.
func (c *client) do(req *http.Request) time.Duration {
	c.rw.reset()
	c.rw.t0 = time.Now()
	c.handler.ServeHTTP(c.rw, req)
	return time.Since(c.rw.t0)
}

func cacheDelta(now, before server.CacheStats) server.CacheStats {
	return server.CacheStats{Hits: now.Hits - before.Hits, Misses: now.Misses - before.Misses,
		Evictions: now.Evictions - before.Evictions}
}

// passResult is what one replay of the op list measured.
type passResult struct {
	opMs           []float64 // latency of every op, by op index
	firstMs        []float64 // time to the first answer of every stream of the sub-pass
	busyS          float64   // sum of op latencies: one closed-loop client, no think time
	mallocs, bytes uint64
	gcCycles       uint32
	gcPauseNs      uint64
	cache          server.CacheStats // delta over the pass
}

// runner drives one workload's measured engine.
type runner struct {
	ctx context.Context
	sp  spec
	in  *inputs
	dir string
	// savedIndex is the set-up's saved index; mutate passes start from a
	// copy of it.
	savedIndex string

	tgt   target
	srv   *server.Server
	cl    *client
	arena []byte // response bodies of a serve pass, checked after timing
	ends  []int

	firstN    int
	ref       []uint64 // pass 0's answer hash per op
	direct    []uint64 // serve: direct engine answer hash per distinct query
	oracleOps map[int]bool
	oracleRan int

	attempted, failed int
	notes             []string
}

const (
	oracleSample  = 64
	firstAnswerN  = 500
	reopenPerPass = 2
	reopenQueries = 32
	probePairs    = 16 // pairs of a round of the write probe through the handler
	roundPairs    = 50 // pairs of a round of the in-memory write probe
	probeBudget   = time.Second
)

func newRunner(ctx context.Context, sp spec, in *inputs, dir, savedIndex string) *runner {
	r := &runner{ctx: ctx, sp: sp, in: in, dir: dir, savedIndex: savedIndex,
		cl: &client{ctx: ctx, rw: &memWriter{hdr: make(http.Header)}}, oracleOps: make(map[int]bool)}
	r.firstN = min(firstAnswerN, len(in.queries))
	var queryOps []int
	for i, o := range in.ops {
		if o.kind == opQuery || o.kind == opServe {
			queryOps = append(queryOps, i)
		}
	}
	for k := range oracleSample {
		r.oracleOps[queryOps[k*len(queryOps)/oracleSample]] = true
	}
	return r
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 10 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// attach makes t the measured engine, behind the server for a serving
// workload.
func (r *runner) attach(t target) {
	r.tgt = t
	if r.sp.serve {
		r.srv = server.New(t, server.Config{
			Spec: r.sp.engineSpec(), Workers: 1,
			Cache: server.CacheConfig{MaxEntries: r.sp.cacheSize},
		})
		r.cl.handler = r.srv.Handler()
		r.direct = make([]uint64, len(r.in.queries))
	}
}

// freshMutable starts a mutate pass from a copy of the saved shard files
// and a regenerated dataset, so every pass replays the same history.
func (r *runner) freshMutable() error {
	base := filepath.Join(r.dir, "pass", "ix")
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return err
	}
	if err := copyIndex(base, r.savedIndex, r.sp); err != nil {
		return err
	}
	t, err := restoreTarget(r.ctx, r.sp, r.in.dataset(), base)
	if err != nil {
		return err
	}
	r.tgt = t
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// pass replays the op list once. Pass 0 is the warm-up: it also runs the
// oracle checks, and its numbers are discarded by the caller.
func (r *runner) pass(n int) (*passResult, error) {
	ops := r.in.ops
	if r.sp.mutateEvery > 0 {
		if err := r.freshMutable(); err != nil {
			return nil, fmt.Errorf("pass %d: %w", n, err)
		}
	}
	var addGraphs []*graph.Graph
	var addIDs []graph.ID
	if r.in.adds > 0 {
		addGraphs = r.in.addGraphs(r.in.adds)
		addIDs = make([]graph.ID, r.in.adds)
	}
	var reqs []*http.Request
	if r.sp.serve {
		reqs = make([]*http.Request, len(ops))
		for i, o := range ops {
			reqs[i] = r.cl.request(http.MethodPost, "/query", o.body)
		}
		r.arena, r.ends = r.arena[:0], r.ends[:0]
	}
	if r.ref == nil {
		r.ref = make([]uint64, len(ops))
	}
	res := &passResult{opMs: make([]float64, len(ops)), firstMs: make([]float64, r.firstN)}
	hashes := make([]uint64, len(ops))
	var cache0 server.CacheStats
	if r.srv != nil {
		cache0 = r.srv.Engine().CacheStats()
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, o := range ops {
		var d time.Duration
		switch o.kind {
		case opQuery:
			q := r.in.queries[o.arg]
			t0 := time.Now()
			qr, err := r.tgt.Query(r.ctx, q)
			d = time.Since(t0)
			if err != nil {
				r.fail("op %d query: %v", i, err)
				break
			}
			hashes[i] = answerHash(qr.Answers)
		case opServe:
			d = r.cl.do(reqs[i])
			if r.cl.rw.code != http.StatusOK {
				r.fail("op %d: HTTP %d", i, r.cl.rw.code)
			}
			r.arena = append(r.arena, r.cl.rw.buf.Bytes()...)
			r.ends = append(r.ends, len(r.arena))
		case opAdd:
			t0 := time.Now()
			id, err := r.tgt.AddGraph(r.ctx, addGraphs[o.arg])
			d = time.Since(t0)
			if err != nil {
				r.fail("op %d add: %v", i, err)
			}
			addIDs[o.arg], hashes[i] = id, uint64(id)
		case opRemove:
			t0 := time.Now()
			err := r.tgt.RemoveGraph(r.ctx, addIDs[o.arg])
			d = time.Since(t0)
			if err != nil {
				r.fail("op %d remove: %v", i, err)
			}
		}
		res.opMs[i] = ms(d)
		res.busyS += d.Seconds()
		if n == 0 && o.kind == opQuery && r.oracleOps[i] {
			r.oracle(i, o, hashes[i])
		}
	}
	runtime.ReadMemStats(&m1)
	res.mallocs, res.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	res.gcCycles, res.gcPauseNs = m1.NumGC-m0.NumGC, m1.PauseTotalNs-m0.PauseTotalNs
	r.attempted += len(ops)

	if r.srv != nil {
		res.cache = cacheDelta(r.srv.Engine().CacheStats(), cache0)
		start := 0
		for i, end := range r.ends {
			var qr server.QueryResponse
			if err := json.Unmarshal(r.arena[start:end], &qr); err != nil {
				r.fail("op %d: undecodable response: %v", i, err)
			}
			hashes[i] = answerHash(qr.Answers)
			start = end
			if n == 0 {
				r.checkDirect(i, ops[i], hashes[i])
				if r.oracleOps[i] {
					r.oracle(i, ops[i], hashes[i])
				}
			}
		}
	}
	for i, h := range hashes {
		if n == 0 {
			r.ref[i] = h
		} else if h != r.ref[i] {
			r.fail("pass %d op %d: answers differ from pass 0", n, i)
		}
	}
	if err := r.firstAnswers(res); err != nil {
		return nil, err
	}
	return res, nil
}

// oracle compares op i's answers with brute-force subgraph isomorphism over
// the engine's dataset as it is at this point of the history.
func (r *runner) oracle(i int, o op, got uint64) {
	want, err := core.BruteForceAnswers(r.ctx, r.tgt.Dataset(), r.in.queries[o.arg])
	if err != nil {
		r.fail("op %d oracle: %v", i, err)
		return
	}
	r.oracleRan++
	if answerHash(want) != got {
		r.fail("op %d: answers differ from brute force", i)
	}
}

// checkDirect compares a served response with the engine asked directly.
func (r *runner) checkDirect(i int, o op, got uint64) {
	if r.direct[o.arg] == 0 {
		qr, err := r.tgt.Query(r.ctx, r.in.queries[o.arg])
		if err != nil {
			r.fail("op %d direct query: %v", i, err)
			return
		}
		r.direct[o.arg] = answerHash(qr.Answers)
	}
	if r.direct[o.arg] != got {
		r.fail("op %d: served answers differ from the engine's", i)
	}
}

// firstAnswers is the sub-pass that times how long a caller waits for the
// first answer of a streamed query.
func (r *runner) firstAnswers(res *passResult) error {
	for i := range r.firstN {
		r.attempted++
		if r.srv != nil {
			rw := r.cl.rw
			r.cl.do(r.cl.request(http.MethodPost, "/query?stream=1&limit=1", r.in.ops[i].body))
			var line server.StreamLine
			first, _, _ := bytes.Cut(rw.buf.Bytes(), []byte("\n"))
			if rw.code != http.StatusOK || json.Unmarshal(first, &line) != nil || line.ID == nil {
				r.fail("stream %d: HTTP %d, first line %q", i, rw.code, first)
			}
			res.firstMs[i] = ms(rw.firstWrite)
			continue
		}
		var d time.Duration
		got := false
		t0 := time.Now()
		for _, err := range r.tgt.Stream(r.ctx, r.in.queries[i]) {
			if err != nil {
				return fmt.Errorf("stream %d: %w", i, err)
			}
			got = true
			break
		}
		d = time.Since(t0)
		if !got {
			// Every query is cut out of a dataset graph that no op removes.
			r.fail("stream %d: no answer", i)
		}
		res.firstMs[i] = ms(d)
	}
	return nil
}

// reopen times restoring the saved index plus the first queries, so that
// laziness which only moves the cost to the first query is not rewarded.
func (r *runner) reopen(ds *graph.Dataset) (target, float64, error) {
	t0 := time.Now()
	t, err := restoreTarget(r.ctx, r.sp, ds, r.savedIndex)
	if err != nil {
		return nil, 0, err
	}
	for i := range min(reopenQueries, len(r.in.queries)) {
		if _, err := t.Query(r.ctx, r.in.queries[i]); err != nil {
			return nil, 0, err
		}
	}
	d := time.Since(t0)
	waitReady(t)
	return t, ms(d), nil
}

// writeProbe times AddGraph+RemoveGraph pairs on an engine without
// persistence: index maintenance in memory only. Like a pass, a round of the
// same roundPairs graphs is repeated (1 to 4 times, as many as fit in
// probeBudget); every remove undoes its add, so the rounds do the same work
// and the caller takes their per-pair floor.
func (r *runner) writeProbe(t target) ([]mutations, error) {
	runtime.GC() // the set-up engines before this one are garbage by now
	var rounds []mutations
	for start := time.Now(); len(rounds) == 0 || (len(rounds) < 4 && time.Since(start) < probeBudget); {
		var lat mutations
		for _, g := range r.in.addGraphs(r.sp.n(roundPairs, 4)) {
			r.attempted += 2
			t0 := time.Now()
			id, err := t.AddGraph(r.ctx, g)
			if err != nil {
				return nil, fmt.Errorf("write probe add: %w", err)
			}
			t1 := time.Now()
			if err := t.RemoveGraph(r.ctx, id); err != nil {
				return nil, fmt.Errorf("write probe remove: %w", err)
			}
			lat.addMs, lat.removeMs = append(lat.addMs, ms(t1.Sub(t0))), append(lat.removeMs, ms(time.Since(t1)))
		}
		rounds = append(rounds, lat)
	}
	return rounds, nil
}

// serveWriteProbe is the write probe through POST /graphs and
// DELETE /graphs/{id}: persist plus cache invalidation by epoch. Three
// rounds of the same probePairs graphs.
func (r *runner) serveWriteProbe() []mutations {
	return []mutations{r.serveWriteRound(), r.serveWriteRound(), r.serveWriteRound()}
}

// serveWriteRound is one round of that probe.
func (r *runner) serveWriteRound() mutations {
	var lat mutations
	for _, g := range r.in.addGraphs(r.sp.n(probePairs, 4)) {
		body, err := json.Marshal(server.GraphToJSON(g, &r.tgt.Dataset().Dict))
		if err != nil {
			panic(err) // plain struct of strings and ints
		}
		r.attempted += 2
		rw := r.cl.rw
		d := r.cl.do(r.cl.request(http.MethodPost, "/graphs", body))
		lat.addMs = append(lat.addMs, ms(d))
		var mr server.MutationResponse
		if rw.code != http.StatusOK || json.Unmarshal(rw.buf.Bytes(), &mr) != nil {
			r.fail("POST /graphs: HTTP %d", rw.code)
			continue
		}
		d = r.cl.do(r.cl.request(http.MethodDelete, fmt.Sprintf("/graphs/%d", mr.ID), nil))
		lat.removeMs = append(lat.removeMs, ms(d))
		if rw.code != http.StatusOK {
			r.fail("DELETE /graphs/%d: HTTP %d", mr.ID, rw.code)
		}
	}
	return lat
}

// finalCheck compares the engine with brute force on its final dataset.
func (r *runner) finalCheck() {
	for k := range oracleSample {
		q := r.in.queries[k*len(r.in.queries)/oracleSample]
		r.attempted++
		qr, err := r.tgt.Query(r.ctx, q)
		if err != nil {
			r.fail("final check: %v", err)
			continue
		}
		r.oracle(-1, op{arg: int32(k * len(r.in.queries) / oracleSample)}, answerHash(qr.Answers))
	}
}

func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}
