package main

import (
	"cmp"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/dfscode"
	"repro/internal/diskfmt"
	"repro/internal/engine"
	"repro/internal/features"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/workload"
)

// The layer probes call each module's public functions on the workload's
// own inputs. Probes that need an index the workload does not have (the
// other method, a sharded or a persisting engine) build it over the probe
// dataset: the first probeGraphs graphs of the workload's dataset regime.

// bestOf is the probes' estimator: the fastest of n runs of f.
func bestOf(n int, f func()) time.Duration {
	var best time.Duration
	for i := range n {
		t0 := time.Now()
		f()
		if d := time.Since(t0); i == 0 || d < best {
			best = d
		}
	}
	return best
}

// bestOfQueries is bestOf over one call of f per query; it stops at the
// first error.
func bestOfQueries(n int, qs []*graph.Graph, f func(q *graph.Graph) error) (time.Duration, error) {
	var err error
	d := bestOf(n, func() {
		for _, q := range qs {
			if err == nil {
				err = f(q)
			}
		}
	})
	return d, err
}

func usPer(d time.Duration, n int) float64 { return float64(d) / 1e3 / float64(n) }
func nsPer(d time.Duration, n int) float64 { return float64(d) / float64(n) }

// probeData is the probe dataset with a bare ggsx index over it, saved at
// path; the mutate section stages its ops on these.
type probeData struct {
	cfg     gen.SynthConfig
	ds      *graph.Dataset
	queries []*graph.Graph
	ggsx    core.Method
	path    string
	metrics map[string]float64
}

func newProbeData(ctx context.Context, in *inputs, dir string) (*probeData, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	pd := &probeData{cfg: in.dataCfg(), path: filepath.Join(dir, "ggsx.ix"), metrics: make(map[string]float64)}
	pd.cfg.NumGraphs = min(pd.cfg.NumGraphs, in.sp.n(probeGraphs, 50))
	pd.ds = gen.Synthetic(pd.cfg)
	var err error
	pd.queries, err = workload.Generate(pd.ds, workload.Config{
		NumQueries: in.sp.n(probeQueries, 32), QueryEdges: in.sp.queryEdges, Seed: mix(in.seed, 6)})
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"ggsx", "grapes"} {
		m, err := engine.New(name)
		if err != nil {
			return nil, err
		}
		bs, err := core.BuildTimed(ctx, m, pd.ds)
		if err != nil {
			return nil, fmt.Errorf("probe build %s: %w", name, err)
		}
		pd.metrics[name+".build_s"] = bs.Elapsed.Seconds()
		pd.metrics[name+".size_mb"] = float64(bs.SizeBytes) / 1e6
		var cands, answers []graph.IDSet
		filter := bestOf(3, func() {
			cands = cands[:0]
			for _, q := range pd.queries {
				plan, perr := core.NewPlan(ctx, m, pd.ds, q)
				if perr != nil {
					err = perr
					return
				}
				cands = append(cands, plan.Candidates())
			}
		})
		if err != nil {
			return nil, err
		}
		total := 0
		for i, q := range pd.queries {
			plan, err := core.NewPlan(ctx, m, pd.ds, q)
			if err != nil {
				return nil, err
			}
			a, err := core.VerifyPlan(ctx, plan, 1)
			if err != nil {
				return nil, err
			}
			answers = append(answers, a)
			total += len(cands[i])
		}
		pd.metrics[name+".filter_us_per_query"] = usPer(filter, len(pd.queries))
		pd.metrics[name+".candidates_per_query"] = float64(total) / float64(len(pd.queries))
		pd.metrics[name+".false_positive_ratio"] = workload.FalsePositiveRatio(cands, answers)
		if name == "ggsx" {
			pd.ggsx = m
			if err := engine.SaveMethod(pd.path, m); err != nil {
				return nil, err
			}
		}
	}
	return pd, nil
}

func layerProbes(ctx context.Context, m map[string]float64, r *runner, st *setup, flat *engine.Engine, pd *probeData) error {
	for k, v := range pd.metrics {
		m[k] = v
	}
	in := r.in
	qs := in.queries[:min(sectionQueries, len(in.queries))]

	// core, subiso: what the pipeline did per query, from its own counters.
	var produced, verified, cands, answers, beforeFirst int
	for _, q := range qs {
		qr, err := flat.Query(ctx, q)
		if err != nil {
			return err
		}
		produced, verified = produced+qr.Produced, verified+qr.Verified
		cands, answers = cands+len(qr.Candidates), answers+len(qr.Answers)
		var ps core.PipelineStats
		for _, err := range flat.StreamStats(ctx, q, &ps) {
			if err != nil {
				return err
			}
			break
		}
		beforeFirst += int(ps.Verified.Load())
	}
	n := float64(len(qs))
	m["core.produced_per_query"] = float64(produced) / n
	m["core.verified_per_query"] = float64(verified) / n
	m["core.verified_before_first_answer"] = float64(beforeFirst) / n
	m["subiso.calls_per_query"] = float64(verified) / n
	m["subiso.hit_ratio"] = float64(answers) / float64(max(cands, 1))

	// features, dfscode, canon on the workload's queries.
	const maxPathLen = 4 // the path methods' default feature size
	m["features.visit_paths_us_per_query"] = usPer(bestOf(3, func() {
		for _, q := range qs {
			features.VisitPaths(q, maxPathLen, func([]int32) bool { return true })
		}
	}), len(qs))
	m["dfscode.minimum_us_per_query"] = usPer(bestOf(3, func() {
		for _, q := range qs {
			dfscode.Minimum(q)
		}
	}), len(qs))
	m["canon.graphkey_us_per_query"] = usPer(bestOf(3, func() {
		for _, q := range qs {
			canon.GraphKey(q)
		}
	}), len(qs))

	// graph: the tombstone filter over the probe dataset, which the mutate
	// section left with removed slots.
	universe := graph.UniverseIDSet(pd.ds.Len())
	m["graph.filter_live_ns_per_id"] = nsPer(bestOf(5, func() { pd.ds.FilterLive(universe) }), len(universe))

	if err := diskfmtProbes(m, flat.Dataset(), st.indexPath, r.sp); err != nil {
		return err
	}
	if err := engineProbes(ctx, m, r, st, flat, pd); err != nil {
		return err
	}
	return obsProbes(ctx, m, flat, qs[:min(loopQueries, len(qs))])
}

// diskfmtProbes builds the posting lists of the workload's dataset (graph
// ids per label and per label pair on an edge) and times the codec and the
// set operations on them, then the container open and checksum of the
// workload's saved index file.
func diskfmtProbes(m map[string]float64, ds *graph.Dataset, indexPath string, sp spec) error {
	lists := make(map[[2]graph.Label][]uint32)
	add := func(k [2]graph.Label, id uint32) {
		if l := lists[k]; len(l) == 0 || l[len(l)-1] != id {
			lists[k] = append(lists[k], id)
		}
	}
	for _, g := range ds.Graphs {
		if !ds.Alive(g.ID()) {
			continue
		}
		id := uint32(g.ID())
		for _, l := range g.DistinctLabels() {
			add([2]graph.Label{l, -1}, id)
		}
		for _, e := range g.Edges() {
			a, b := g.Label(e[0]), g.Label(e[1])
			add([2]graph.Label{min(a, b), max(a, b)}, id)
		}
	}
	var raw [][]uint32
	for _, l := range lists {
		raw = append(raw, l)
	}
	// Map order is random; the sums below do not depend on it, but pair the
	// lists the same way every run.
	slices.SortFunc(raw, func(a, b []uint32) int {
		return cmp.Or(cmp.Compare(len(a), len(b)), slices.Compare(a, b))
	})
	ids := 0
	for _, l := range raw {
		ids += len(l)
	}
	var enc [][]byte
	m["diskfmt.encode_ns_per_id"] = nsPer(bestOf(5, func() {
		enc = enc[:0]
		for _, l := range raw {
			enc = append(enc, diskfmt.EncodePostings(l))
		}
	}), ids)
	bytes := 0
	ps := make([]diskfmt.Postings, len(enc))
	for i, b := range enc {
		bytes += len(b)
		p, err := diskfmt.MakePostings(b)
		if err != nil {
			return err
		}
		ps[i] = p
	}
	m["diskfmt.bytes_per_id"] = float64(bytes) / float64(ids)
	m["diskfmt.decode_ns_per_id"] = nsPer(bestOf(5, func() {
		for _, p := range ps {
			p.Decode()
		}
	}), ids)
	pairIDs := 0
	for i := range ps {
		pairIDs += ps[i].Cardinality() + ps[(i+1)%len(ps)].Cardinality()
	}
	m["diskfmt.intersect_ns_per_id"] = nsPer(bestOf(5, func() {
		for i := range ps {
			diskfmt.Intersect(ps[i], ps[(i+1)%len(ps)])
		}
	}), pairIDs)
	m["diskfmt.union_ns_per_id"] = nsPer(bestOf(5, func() {
		for i := range ps {
			diskfmt.Union(ps[i], ps[(i+1)%len(ps)])
		}
	}), pairIDs)
	lookups := 0
	m["diskfmt.contains_ns"] = nsPer(bestOf(5, func() {
		lookups = 0
		for _, p := range ps {
			for id := range uint32(ds.Len()) {
				p.Contains(id)
				lookups++
			}
		}
	}), max(lookups, 1))

	file := indexPath
	if sp.shards > 0 {
		file = engine.ShardIndexPath(indexPath, 0)
	}
	// A reader checks a section's CRC once, so every trial opens its own.
	var openBest, verifyBest time.Duration
	for i := range 5 {
		t0 := time.Now()
		rd, err := diskfmt.Open(file, true)
		if err != nil {
			return err
		}
		t1 := time.Now()
		for id := range uint32(64) {
			if rd.Has(id) {
				if err := rd.VerifySection(id); err != nil {
					rd.Close()
					return err
				}
			}
		}
		t2 := time.Now()
		rd.Close()
		if o, v := t1.Sub(t0), t2.Sub(t1); i == 0 {
			openBest, verifyBest = o, v
		} else {
			openBest, verifyBest = min(openBest, o), min(verifyBest, v)
		}
	}
	m["diskfmt.open_mapped_us"] = usPer(openBest, 1)
	m["diskfmt.section_verify_ms"] = ms(verifyBest)
	return nil
}

func engineProbes(ctx context.Context, m map[string]float64, r *runner, st *setup, flat *engine.Engine, pd *probeData) error {
	in, sp := r.in, r.sp
	qs := in.queries[:min(loopQueries, len(in.queries))]
	proc := flat.Processor()
	viaEngine, err := bestOfQueries(3, qs, func(q *graph.Graph) error { _, e := flat.Query(ctx, q); return e })
	if err != nil {
		return err
	}
	viaCore, err := bestOfQueries(3, qs, func(q *graph.Graph) error { _, e := proc.QueryCtx(ctx, q); return e })
	if err != nil {
		return err
	}
	m["engine.query_self_us"] = max(0, usPer(viaEngine-viaCore, len(qs)))

	// Restoring the workload's saved index, held on the heap or mapped.
	ds := in.dataset()
	for _, storage := range []string{"heap", "mmap"} {
		rsp := sp
		rsp.storage = storage
		var first []float64
		d := bestOf(3, func() {
			t, e := restoreTarget(ctx, rsp, ds, st.indexPath)
			if e != nil {
				err = e
				return
			}
			t0 := time.Now()
			if _, e := t.Query(ctx, qs[0]); e != nil {
				err = e
			}
			first = append(first, float64(time.Since(t0))/1e3)
			waitReady(t)
		})
		if err != nil {
			return fmt.Errorf("restore probe (%s): %w", storage, err)
		}
		m["engine.open_restore_"+storage+"_ms"] = ms(d)
		if storage == "mmap" {
			m["engine.first_query_after_open_us"] = median(first)
		}
	}

	// Sharded fan-out and merge over the probe dataset: the sharded query
	// minus the same query on each partition's own flat engine.
	const shards = 4
	opts := []engine.Option{engine.WithSpec("ggsx"), engine.WithVerifyWorkers(1)}
	sharded, err := engine.OpenSharded(ctx, gen.Synthetic(pd.cfg), shards, opts...)
	if err != nil {
		return err
	}
	var parts []*engine.Engine
	for i := range shards {
		part, _ := engine.PartitionShard(gen.Synthetic(pd.cfg), shards, i)
		e, err := engine.Open(ctx, part, opts...)
		if err != nil {
			return err
		}
		parts = append(parts, e)
	}
	whole, err := bestOfQueries(3, pd.queries, func(q *graph.Graph) error { _, e := sharded.Query(ctx, q); return e })
	if err != nil {
		return err
	}
	pieces, err := bestOfQueries(3, pd.queries, func(q *graph.Graph) error {
		for _, p := range parts {
			if _, e := p.Query(ctx, q); e != nil {
				return e
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["engine.sharded_merge_self_us"] = max(0, usPer(whole-pieces, len(pd.queries)))

	// Mutations on a flat ggsx engine over the probe dataset, with and
	// without persistence; the difference is the cost of the re-persist.
	var addMs, removeMs [2][]float64
	for k, path := range []string{filepath.Join(r.dir, "probe", "engine.ix"), ""} {
		o := opts
		if path != "" {
			o = append(o[:len(o):len(o)], engine.WithIndexPath(path))
		}
		e, err := engine.Open(ctx, gen.Synthetic(pd.cfg), o...)
		if err != nil {
			return err
		}
		for _, g := range in.addGraphs(sp.n(enginePairs, 2)) {
			t0 := time.Now()
			id, err := e.AddGraph(ctx, g)
			if err != nil {
				return err
			}
			t1 := time.Now()
			if err := e.RemoveGraph(ctx, id); err != nil {
				return err
			}
			addMs[k], removeMs[k] = append(addMs[k], ms(t1.Sub(t0))), append(removeMs[k], ms(time.Since(t1)))
		}
	}
	m["engine.add_ms"], m["engine.remove_ms"] = median(addMs[0]), median(removeMs[0])
	m["engine.add_nopersist_ms"] = median(addMs[1])
	m["engine.persist_ms"] = max(0, median(addMs[0])-median(addMs[1]))
	return nil
}

// obsProbes times the observability primitives and a query with a trace in
// its context against the same query without.
func obsProbes(ctx context.Context, m map[string]float64, flat *engine.Engine, qs []*graph.Graph) error {
	const n = 20000
	m["obs.span_noop_ns"] = nsPer(bestOf(3, func() {
		for range n {
			_, s := obs.StartSpan(ctx, "probe")
			s.End()
		}
	}), n)
	m["obs.span_ns"] = nsPer(bestOf(3, func() {
		tr := obs.NewTrace()
		tctx := obs.ContextWithSpan(ctx, tr.StartSpan(nil, "root"))
		for range n {
			_, s := obs.StartSpan(tctx, "probe")
			s.End()
		}
	}), n)
	h := obs.NewHistogram(nil)
	m["obs.histogram_observe_ns"] = nsPer(bestOf(3, func() {
		for i := range n {
			h.Observe(float64(i%1000) / 1e4)
		}
	}), n)
	plain, err := bestOfQueries(3, qs, func(q *graph.Graph) error { _, e := flat.Query(ctx, q); return e })
	if err != nil {
		return err
	}
	traced, err := bestOfQueries(3, qs, func(q *graph.Graph) error {
		root := obs.NewTrace().StartSpan(nil, "query")
		_, e := flat.Query(obs.ContextWithSpan(ctx, root), q)
		root.End()
		return e
	})
	if err != nil {
		return err
	}
	m["obs.traced_query_overhead_ratio"] = traced.Seconds() / plain.Seconds()
	return nil
}
