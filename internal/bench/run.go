package bench

import (
	"context"
	"fmt"
	"io"
	"iter"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/workload"
)

// DatasetSpec is one x-axis point of an experiment: a labelled dataset
// constructor. Construction is deferred so a sweep doesn't hold every
// dataset in memory at once.
type DatasetSpec struct {
	// X is the x-axis value (number of nodes, density, ...).
	X float64
	// Label renders X for the report ("50", "0.025", "AIDS").
	Label string
	// Make constructs the dataset.
	Make func() *graph.Dataset
}

// Experiment describes one figure-generating run.
type Experiment struct {
	// Name identifies the experiment ("fig2", ...).
	Name string
	// Title is the human-readable description.
	Title string
	// XAxis names the swept parameter.
	XAxis string
	// Points are the x-axis dataset specs.
	Points []DatasetSpec
	// QuerySizes are the query edge counts (paper: 4, 8, 16, 32).
	QuerySizes []int
	// QueriesPerSize is the number of queries per size.
	QueriesPerSize int
	// Methods are the compared methods (default: all six).
	Methods []MethodID
	// BuildTimeout and QueryTimeout bound each method's build and whole
	// query phase per point; exceeding one marks the cell DNF, mirroring
	// the paper's 8-hour limit. Zero means no limit.
	BuildTimeout time.Duration
	QueryTimeout time.Duration
	// Limits bounds the unbounded-cost methods.
	Limits MethodLimits
	// MethodSpecs optionally overrides a method's construction parameters
	// with a full engine spec ("grapes:workers=8"); methods without an
	// entry use the registry defaults narrowed by Limits.
	MethodSpecs map[MethodID]string
	// Shards > 1 runs every method through a sharded engine
	// (engine.OpenSharded): the dataset is hash-partitioned, shard indexes
	// build in parallel, and queries fan out and merge. 0 or 1 keeps the
	// unsharded path.
	Shards int
	// Seed makes query workloads reproducible.
	Seed int64
}

// MethodResult is one (method, dataset point) cell of an experiment.
type MethodResult struct {
	Method MethodID
	// Spec is the full engine spec the cell was constructed from, so every
	// record — experiment cells and ablation variants alike — is
	// self-describing without consulting the sweep definition.
	Spec string
	// DNF is set when the method could not finish within its budget; Reason
	// explains which stage gave up.
	DNF    bool
	Reason string

	BuildTime time.Duration
	IndexSize int64

	// Sharded-run accounting: Shards is the shard count the cell ran with
	// (0 = unsharded), and ShardBuildSum is the sum of per-shard build
	// times — the serial-equivalent cost, so ShardBuildSum / BuildTime is
	// the parallel build speedup.
	Shards        int
	ShardBuildSum time.Duration

	// Query metrics, overall and per query size.
	AvgQueryTime  time.Duration
	FPRatio       float64
	TimeBySize    map[int]time.Duration
	FPBySize      map[int]float64
	QueriesRun    int
	AvgCandidates float64
	AvgAnswers    float64

	// Lazy-pipeline metrics: AvgFirstAnswer is the mean wall time from
	// query start to the first streamed answer (time-to-first-result of
	// the producer → liveness → verifier pipeline); AvgVerified is the
	// mean number of verifier invocations per one-shot query.
	AvgFirstAnswer time.Duration
	AvgVerified    float64

	// Disk-native tier metrics, for methods with a v2 section format:
	// ColdOpen is the wall time to open the persisted index with
	// storage=mmap (header and directory sections only, no payload
	// decode), and ColdResident the index's resident heap bytes
	// immediately after that open — against IndexSize, the fully decoded
	// footprint. Zero for methods without a v2 format and in sharded runs.
	ColdOpen     time.Duration
	ColdResident int64
}

// PointResult aggregates all methods at one x-axis point.
type PointResult struct {
	Spec    DatasetSpec
	Stats   graph.Stats
	Methods []MethodResult
}

// Run executes the experiment, streaming progress to log (if non-nil), and
// returns all point results.
func Run(ctx context.Context, exp Experiment, log io.Writer) ([]PointResult, error) {
	if len(exp.Methods) == 0 {
		exp.Methods = AllMethods
	}
	if exp.QueriesPerSize == 0 {
		exp.QueriesPerSize = 10
	}
	if len(exp.QuerySizes) == 0 {
		exp.QuerySizes = []int{4, 8, 16, 32}
	}
	logf := func(format string, args ...any) {
		if log != nil {
			fmt.Fprintf(log, format, args...)
		}
	}
	var out []PointResult
	for _, spec := range exp.Points {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		logf("[%s] %s=%s: generating dataset...\n", exp.Name, exp.XAxis, spec.Label)
		ds := spec.Make()
		pr := PointResult{Spec: spec, Stats: ds.ComputeStats()}

		queries, err := buildWorkload(ds, exp)
		if err != nil {
			return out, fmt.Errorf("bench: %s point %s: %w", exp.Name, spec.Label, err)
		}

		for _, id := range exp.Methods {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			mr := runMethod(ctx, id, ds, queries, exp)
			logf("[%s] %s=%s %-10s build=%v size=%s query=%v fp=%.3f%s\n",
				exp.Name, exp.XAxis, spec.Label, id,
				mr.BuildTime.Round(time.Millisecond), fmtBytes(mr.IndexSize),
				mr.AvgQueryTime.Round(time.Microsecond), mr.FPRatio, dnfSuffix(mr))
			pr.Methods = append(pr.Methods, mr)
		}
		out = append(out, pr)
	}
	return out, nil
}

func dnfSuffix(mr MethodResult) string {
	if mr.DNF {
		return " DNF(" + mr.Reason + ")"
	}
	return ""
}

// sizedQuery pairs a query with its workload size bucket.
type sizedQuery struct {
	q    *graph.Graph
	size int
}

func buildWorkload(ds *graph.Dataset, exp Experiment) ([]sizedQuery, error) {
	var out []sizedQuery
	for _, size := range exp.QuerySizes {
		qs, err := workload.Generate(ds, workload.Config{
			NumQueries: exp.QueriesPerSize,
			QueryEdges: size,
			Seed:       exp.Seed + int64(size),
		})
		if err != nil {
			// Datasets whose graphs are too small for a query size skip
			// that size, as the paper does for its smallest datasets.
			continue
		}
		for _, q := range qs {
			out = append(out, sizedQuery{q: q, size: size})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no query size in %v is feasible", exp.QuerySizes)
	}
	return out, nil
}

func runMethod(ctx context.Context, id MethodID, ds *graph.Dataset, queries []sizedQuery, exp Experiment) MethodResult {
	spec, err := specFor(id, exp)
	if err != nil {
		return MethodResult{Method: id, DNF: true, Reason: err.Error()}
	}
	if exp.Shards > 1 {
		return runMethodSharded(ctx, id, spec, exp.Shards, ds, queries, exp)
	}
	m, err := engine.New(spec)
	if err != nil {
		return MethodResult{Method: id, Spec: spec, DNF: true, Reason: err.Error()}
	}
	return runMethodInstance(ctx, id, m, spec, ds, queries, exp)
}

// runMethodSharded measures one (method spec, shard count) cell through the
// sharded engine: parallel per-shard build, fan-out/merge queries.
func runMethodSharded(ctx context.Context, id MethodID, spec string, shards int, ds *graph.Dataset, queries []sizedQuery, exp Experiment) MethodResult {
	mr := MethodResult{
		Method:     id,
		Spec:       spec,
		Shards:     shards,
		TimeBySize: map[int]time.Duration{},
		FPBySize:   map[int]float64{},
	}
	// Verification stays serial per shard (as in every unsharded cell, the
	// paper's measurement mode), so shard fan-out is the only parallelism
	// the query timings attribute to sharding.
	buildCtx, cancel := withOptionalTimeout(ctx, exp.BuildTimeout)
	s, err := engine.OpenSharded(buildCtx, ds, shards,
		engine.WithSpec(spec), engine.WithVerifyWorkers(1))
	cancel()
	if err != nil {
		mr.DNF, mr.Reason = true, "indexing: "+err.Error()
		return mr
	}
	mr.BuildTime = s.BuildStats().Elapsed
	mr.IndexSize = s.SizeBytes()
	for _, st := range s.ShardStats() {
		mr.ShardBuildSum += st.Elapsed
	}

	queryCtx, cancel := withOptionalTimeout(ctx, exp.QueryTimeout)
	defer cancel()
	measureQueries(queryCtx, &mr, s.Query, queries)
	if !mr.DNF {
		measureFirstAnswer(queryCtx, &mr, s.Stream, queries)
	}
	return mr
}

// runMethodInstance measures one prebuilt method instance (constructed from
// spec, recorded on the cell); ablations use it to measure non-default
// configurations.
func runMethodInstance(ctx context.Context, id MethodID, m core.Method, spec string, ds *graph.Dataset, queries []sizedQuery, exp Experiment) MethodResult {
	mr := MethodResult{
		Method:     id,
		Spec:       spec,
		TimeBySize: map[int]time.Duration{},
		FPBySize:   map[int]float64{},
	}

	buildCtx, cancel := withOptionalTimeout(ctx, exp.BuildTimeout)
	st, err := core.BuildTimed(buildCtx, m, ds)
	cancel()
	mr.BuildTime = st.Elapsed
	if err != nil {
		mr.DNF, mr.Reason = true, "indexing: "+err.Error()
		return mr
	}
	mr.IndexSize = m.SizeBytes()

	proc := core.NewProcessor(m, ds)
	queryCtx, cancel := withOptionalTimeout(ctx, exp.QueryTimeout)
	defer cancel()
	measureQueries(queryCtx, &mr, proc.QueryCtx, queries)
	if !mr.DNF {
		measureFirstAnswer(queryCtx, &mr, func(ctx context.Context, q *graph.Graph) iter.Seq2[graph.ID, error] {
			return core.StreamAnswers(ctx, m, ds, q)
		}, queries)
	}
	if !mr.DNF {
		measureColdOpen(&mr, m, spec, ds)
	}
	return mr
}

// specWithStorage appends a storage override to an engine spec.
func specWithStorage(spec, mode string) string {
	if strings.Contains(spec, ":") {
		return spec + ",storage=" + mode
	}
	return spec + ":storage=" + mode
}

// measureColdOpen times a storage=mmap open of the cell's persisted index
// — the disk-native tier's cold-start path: write the built index to a
// scratch file, then load it into a fresh instance and record the wall
// time and the resident heap bytes right after (postings stay on disk
// until queries fault them in). Methods without a storage=mmap mode leave
// both cells zero. Failures just skip the cells — this measures the tier,
// it does not gate the run.
func measureColdOpen(mr *MethodResult, m core.Method, spec string, ds *graph.Dataset) {
	if _, ok := m.(core.StorageSelector); !ok {
		return
	}
	dir, err := os.MkdirTemp("", "sqbench-idx-*")
	if err != nil {
		return
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "idx")
	if err := engine.SaveMethod(path, m); err != nil {
		return
	}
	fresh, err := engine.New(specWithStorage(spec, core.StorageMmap))
	if err != nil {
		return
	}
	t0 := time.Now()
	if err := engine.LoadMethod(path, fresh, ds); err != nil {
		return
	}
	mr.ColdOpen = time.Since(t0)
	mr.ColdResident = fresh.SizeBytes()
	// The instance is done measuring and never queried, so unmap now
	// rather than on process exit (the unlinked scratch file would keep
	// its blocks until then).
	if c, ok := fresh.(io.Closer); ok {
		c.Close()
	}
}

// measureQueries drives a workload through one query function — an
// unsharded Processor's QueryCtx or a sharded engine's Query — and fills in
// the result's query metrics, overall and per size bucket.
func measureQueries(ctx context.Context, mr *MethodResult,
	query func(context.Context, *graph.Graph) (*core.QueryResult, error), queries []sizedQuery) {
	type bucket struct {
		n     int
		time  time.Duration
		fpSum float64
	}
	buckets := map[int]*bucket{}
	var total time.Duration
	var fpTotal, candTotal, ansTotal, verTotal float64
	for _, sq := range queries {
		res, err := query(ctx, sq.q)
		if err != nil {
			mr.DNF, mr.Reason = true, "query processing: "+err.Error()
			break
		}
		b := buckets[sq.size]
		if b == nil {
			b = &bucket{}
			buckets[sq.size] = b
		}
		b.n++
		b.time += res.TotalTime()
		b.fpSum += res.FalsePositiveRatio()
		total += res.TotalTime()
		fpTotal += res.FalsePositiveRatio()
		candTotal += float64(len(res.Candidates))
		ansTotal += float64(len(res.Answers))
		verTotal += float64(res.Verified)
		mr.QueriesRun++
	}
	if mr.QueriesRun > 0 {
		mr.AvgQueryTime = total / time.Duration(mr.QueriesRun)
		mr.FPRatio = fpTotal / float64(mr.QueriesRun)
		mr.AvgCandidates = candTotal / float64(mr.QueriesRun)
		mr.AvgAnswers = ansTotal / float64(mr.QueriesRun)
		mr.AvgVerified = verTotal / float64(mr.QueriesRun)
		for size, b := range buckets {
			mr.TimeBySize[size] = b.time / time.Duration(b.n)
			mr.FPBySize[size] = b.fpSum / float64(b.n)
		}
	}
}

// measureFirstAnswer drives each workload query through the lazy stream
// and records the mean wall time to the first proven answer — the
// pipeline's time-to-first-result, measured at the same serial-verify
// settings as the one-shot timings. Queries with no answers are skipped;
// abandoning each stream after one answer is the limit=1 service path.
func measureFirstAnswer(ctx context.Context, mr *MethodResult,
	stream func(context.Context, *graph.Graph) iter.Seq2[graph.ID, error], queries []sizedQuery) {
	var total time.Duration
	n := 0
	for _, sq := range queries {
		t0 := time.Now()
		for _, err := range stream(ctx, sq.q) {
			if err != nil {
				mr.DNF, mr.Reason = true, "streaming: "+err.Error()
				return
			}
			total += time.Since(t0)
			n++
			break
		}
	}
	if n > 0 {
		mr.AvgFirstAnswer = total / time.Duration(n)
	}
}

func withOptionalTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, d)
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}

// WriteReport renders the four panels of a figure (indexing time, index
// size, query time, false positive ratio) as gnuplot-style series: one line
// per x point, one column per method, DNF for missing cells.
func WriteReport(w io.Writer, exp Experiment, results []PointResult) {
	methods := exp.Methods
	if len(methods) == 0 {
		methods = AllMethods
	}
	panel := func(title string, cell func(MethodResult) string) {
		fmt.Fprintf(w, "\n# %s — %s (x: %s)\n", exp.Title, title, exp.XAxis)
		fmt.Fprintf(w, "%-12s", exp.XAxis)
		for _, id := range methods {
			fmt.Fprintf(w, " %12s", id)
		}
		fmt.Fprintln(w)
		for _, pr := range results {
			fmt.Fprintf(w, "%-12s", pr.Spec.Label)
			for _, id := range methods {
				mr, ok := findMethod(pr.Methods, id)
				if !ok || mr.DNF {
					fmt.Fprintf(w, " %12s", "DNF")
					continue
				}
				fmt.Fprintf(w, " %12s", cell(mr))
			}
			fmt.Fprintln(w)
		}
	}
	panel("(a) Indexing Time (s)", func(mr MethodResult) string {
		return fmt.Sprintf("%.3f", mr.BuildTime.Seconds())
	})
	panel("(b) Index Size (MB)", func(mr MethodResult) string {
		return fmt.Sprintf("%.3f", float64(mr.IndexSize)/(1<<20))
	})
	panel("(c) Query Processing Time (s)", func(mr MethodResult) string {
		return fmt.Sprintf("%.5f", mr.AvgQueryTime.Seconds())
	})
	panel("(d) Avg False Positive Ratio", func(mr MethodResult) string {
		return fmt.Sprintf("%.3f", mr.FPRatio)
	})
}

// WritePerSizeReport renders per-query-size query time panels (Figure 4).
func WritePerSizeReport(w io.Writer, exp Experiment, results []PointResult) {
	methods := exp.Methods
	if len(methods) == 0 {
		methods = AllMethods
	}
	sizes := append([]int(nil), exp.QuerySizes...)
	sort.Ints(sizes)
	for _, size := range sizes {
		fmt.Fprintf(w, "\n# %s — Query Size: %d (query time s, x: %s)\n", exp.Title, size, exp.XAxis)
		fmt.Fprintf(w, "%-12s", exp.XAxis)
		for _, id := range methods {
			fmt.Fprintf(w, " %12s", id)
		}
		fmt.Fprintln(w)
		for _, pr := range results {
			fmt.Fprintf(w, "%-12s", pr.Spec.Label)
			for _, id := range methods {
				mr, ok := findMethod(pr.Methods, id)
				if !ok || mr.DNF {
					fmt.Fprintf(w, " %12s", "DNF")
					continue
				}
				t, ok := mr.TimeBySize[size]
				if !ok {
					fmt.Fprintf(w, " %12s", "-")
					continue
				}
				fmt.Fprintf(w, " %12.5f", t.Seconds())
			}
			fmt.Fprintln(w)
		}
	}
}

func findMethod(ms []MethodResult, id MethodID) (MethodResult, bool) {
	for _, mr := range ms {
		if mr.Method == id {
			return mr, true
		}
	}
	return MethodResult{}, false
}

// WriteTable1 renders the dataset characteristics table.
func WriteTable1(w io.Writer, names []string, stats []graph.Stats) {
	fmt.Fprintf(w, "\n# Table 1: Characteristics of (simulated) real datasets\n")
	fmt.Fprintf(w, "%-22s", "metric")
	for _, n := range names {
		fmt.Fprintf(w, " %10s", n)
	}
	fmt.Fprintln(w)
	row := func(name string, f func(graph.Stats) string) {
		fmt.Fprintf(w, "%-22s", name)
		for _, s := range stats {
			fmt.Fprintf(w, " %10s", f(s))
		}
		fmt.Fprintln(w)
	}
	row("# graphs", func(s graph.Stats) string { return fmt.Sprintf("%d", s.NumGraphs) })
	row("# disconnected", func(s graph.Stats) string { return fmt.Sprintf("%d", s.NumDisconnected) })
	row("# labels", func(s graph.Stats) string { return fmt.Sprintf("%d", s.NumLabels) })
	row("avg nodes", func(s graph.Stats) string { return fmt.Sprintf("%.1f", s.AvgNodes) })
	row("stddev nodes", func(s graph.Stats) string { return fmt.Sprintf("%.1f", s.StdDevNodes) })
	row("avg edges", func(s graph.Stats) string { return fmt.Sprintf("%.1f", s.AvgEdges) })
	row("avg density", func(s graph.Stats) string { return fmt.Sprintf("%.4f", s.AvgDensity) })
	row("avg degree", func(s graph.Stats) string { return fmt.Sprintf("%.2f", s.AvgDegree) })
	row("avg labels/graph", func(s graph.Stats) string { return fmt.Sprintf("%.1f", s.AvgLabelsPerGraph) })
}
