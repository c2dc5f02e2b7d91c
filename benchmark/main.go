// Command benchmark is the repository's benchmark: four single-core
// workloads, each sized so that one layer dominates, measured end to end
// (--trace 0) or layer by layer with a staged, span-recorded pass
// (--trace 1). BENCHMARK.json at the repository root is its contract and
// README.md its manual.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
)

// value is one metric as printed on the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	// What the determinism test compares between runs; not printed.
	opListHash, answersHash uint64
	oracleRan               int
	cache                   server.CacheStats // of the last measured pass
}

// options are the command line of one workload run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	workDir string // scratch space inside the checkout
	log     func(format string, args ...any)
}

func main() {
	var (
		workload = flag.String("workload", "all", "verify_heavy, filter_heavy, serve_zipf, mutate_mix or all")
		seed     = flag.Int64("seed", 1, "every input is generated from this seed")
		seconds  = flag.Float64("seconds", 15, "how long the measured passes of one workload may take")
		trace    = flag.Int("trace", 0, "1: report the per-layer metrics from a staged, span-recorded pass; 0: the end-to-end metrics")
		scale    = flag.String("scale", "full", "full or smoke (the tier-1 test's size)")
		aa       = flag.Int("aa", 0, "run all workloads as two interleaved sets of N runs and compare their medians with the bounds")
		workDir  = flag.String("work", ".bench_build", "directory for index files and traces; created and cleaned by the run")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*scale != "full" && *scale != "smoke") || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *scale == "smoke", workDir: *workDir,
		log: func(format string, args ...any) { fmt.Printf(format+"\n", args...) }}
	if *aa > 0 {
		os.Exit(runAA(*aa, opt))
	}
	if *workload == "all" {
		os.Exit(runAll(opt))
	}
	sp, err := specByName(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	// The measurement protocol: one OS process per workload, one core.
	runtime.GOMAXPROCS(1)
	res, err := runWorkload(context.Background(), sp, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// childArgs is the command line that reruns this binary for one workload.
func childArgs(name string, opt options) []string {
	tr, scale := "0", "full"
	if opt.trace {
		tr = "1"
	}
	if opt.smoke {
		scale = "smoke"
	}
	return []string{"-workload", name, "-seed", fmt.Sprint(opt.seed), "-seconds", fmt.Sprint(opt.seconds),
		"-trace", tr, "-scale", scale, "-work", opt.workDir}
}

// runChild runs one workload in its own process and returns its result line.
func runChild(name string, opt options, echo bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, childArgs(name, opt)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if echo {
		os.Stdout.Write(out)
	}
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("workload %s: result line: %w", name, err)
	}
	return &res, nil
}

func runAll(opt options) int {
	code := 0
	for _, sp := range specs {
		res, err := runChild(sp.name, opt, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// calibrate times a fixed integer spin loop. It is the host-noise guard: the
// loop does the same work every time, so when its time moves, the box did.
func calibrate() float64 {
	best := math.MaxFloat64
	for range 3 {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for range 4_000_000 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		spinSink = x
		best = min(best, ms(time.Since(t0)))
	}
	return best
}

var spinSink uint64

// noiseGuard collects calibrations over a run and warns, without failing,
// when they move by more than a tenth.
type noiseGuard struct{ samples []float64 }

func (g *noiseGuard) sample() { g.samples = append(g.samples, calibrate()) }

func (g *noiseGuard) report(log func(string, ...any)) float64 {
	lo, hi := best(g.samples), 0.0
	for _, s := range g.samples {
		hi = max(hi, s)
	}
	if hi > 1.1*lo {
		log("WARNING: host noise: calibration loop took %.3f ms to %.3f ms within this run (+%.0f%%); treat its timings with care",
			lo, hi, 100*(hi/lo-1))
	}
	return lo
}

func rssPeakMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setupRepeats is how often set-up runs: once when its time is not
// reported, else 3 to 9 times, as many as fit in setupBudgetS going by the
// first one.
func setupRepeats(opt options, done []float64) int {
	if opt.trace || opt.smoke {
		return 1
	}
	if len(done) == 0 {
		return 3
	}
	return min(max(int(setupBudgetS/done[0]), 3), 9)
}

const (
	setupBudgetS   = 3.0
	minPasses      = 3
	maxPasses      = 12
	tracePasses    = 2
	smokePasses    = 1
	traceDirName   = "trace"
	warnShortQuery = 1000
)

// runWorkload is one run of one workload: set-up, correctness checks,
// measured passes, and in trace mode the staged pass and layer probes.
func runWorkload(ctx context.Context, sp spec, opt options) (*result, error) {
	if opt.smoke {
		sp = sp.smoke()
	}
	log := opt.log
	log("workload %s seed %d: %s", sp.name, opt.seed, sp.why)
	log("host: nproc %d, GOMAXPROCS %d, %s %s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	if err := os.MkdirAll(opt.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opt.workDir, "work-"+sp.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	guard := &noiseGuard{}
	guard.sample()

	// Set-up, several times: the median is what a user waits for, and a
	// later change that moves work into set-up shows here.
	var st *setup
	var setupS []float64
	for k := 0; k < setupRepeats(opt, setupS); k++ {
		st = nil
		runtime.GC()
		if st, err = setUp(ctx, sp, opt.seed, filepath.Join(dir, fmt.Sprintf("setup-%d", k))); err != nil {
			return nil, err
		}
		setupS = append(setupS, st.totalS)
	}
	in := st.in
	r := newRunner(ctx, sp, in, dir, st.indexPath)

	// The write probe of the in-process workloads runs on the set-up engine
	// after its Save: index maintenance in memory, nothing persisted.
	writeProbes := !sp.serve && sp.mutateEvery == 0
	var probeRounds []mutations
	if writeProbes {
		if probeRounds, err = r.writeProbe(st.eng); err != nil {
			return nil, err
		}
	}
	st.eng = nil // dropped: the measured engine comes from the saved files

	// The measured engine is reopened from the saved files over a freshly
	// regenerated dataset.
	ds := in.dataset()
	var reopenMs []float64
	reopen := func() (target, error) {
		var tgt target
		for range sp.n(reopenPerPass, 1) {
			var d float64
			if tgt, d, err = r.reopen(ds); err != nil {
				return nil, fmt.Errorf("reopening the saved index: %w", err)
			}
			reopenMs = append(reopenMs, d)
			r.attempted += reopenQueries
		}
		return tgt, nil
	}
	tgt, err := reopen()
	if err != nil {
		return nil, err
	}
	r.attach(tgt)
	guard.sample()

	passes, floor := maxPasses, minPasses
	switch {
	case opt.smoke:
		passes, floor = smokePasses, smokePasses
	case opt.trace:
		passes, floor = tracePasses, tracePasses
	}
	var measured []*passResult
	heapMB := 0.0
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for n := 0; n <= passes; n++ {
		t0 := time.Now()
		pr, err := r.pass(n)
		if err != nil {
			return nil, err
		}
		took := time.Since(t0)
		guard.sample()
		queryMs, _ := in.split(pr.opMs)
		log("pass %d: %.2f s busy, p50 %.4f ms, p99 %.4f ms, calibration %.3f ms", n, pr.busyS,
			median(queryMs), percentile(queryMs, 0.99), guard.samples[len(guard.samples)-1])
		// The reopen trials are spread over the run, a few after every
		// pass, so that one disturbed stretch cannot cover them all.
		if _, err := reopen(); err != nil {
			return nil, err
		}
		if n == 0 {
			heapMB = heapLiveMB()
			continue
		}
		measured = append(measured, pr)
		if len(measured) >= floor && time.Now().Add(took).After(deadline) {
			break
		}
	}
	if sp.mutateEvery > 0 {
		r.finalCheck()
	}
	if !opt.trace && !opt.smoke {
		// One more set-up, and write probe, at the other end of the run: a
		// disturbed stretch at the start cannot cover both.
		last, err := setUp(ctx, sp, opt.seed, filepath.Join(dir, "setup-last"))
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, last.totalS)
		if writeProbes {
			more, err := r.writeProbe(last.eng)
			if err != nil {
				return nil, err
			}
			probeRounds = append(probeRounds, more...)
		}
	}
	if sp.serve && !opt.trace {
		probeRounds = r.serveWriteProbe()
	}
	guard.sample()

	if r.oracleRan < oracleSample {
		r.fail("only %d of %d oracle checks ran", r.oracleRan, oracleSample)
	}
	e2e := endToEndMetrics(in, st, measured, setupS, reopenMs, probeRounds, heapMB)
	queryMs, mut := in.split(measured[0].opMs)
	log("passes: %d measured after 1 warm-up, %d ops each (%d timed queries, %d mutations, %d first-answer streams)",
		len(measured), len(in.ops), len(queryMs), len(mut.addMs)+len(mut.removeMs), r.firstN)
	if !opt.smoke && len(queryMs) < warnShortQuery {
		log("WARNING: fewer than %d timed queries per pass", warnShortQuery)
	}

	out := &result{Metrics: make(map[string]value)}
	if opt.trace {
		layers, err := traceRun(ctx, r, st, measured, guard, opt)
		if err != nil {
			return nil, err
		}
		for _, m := range perLayer {
			out.Metrics[m.name] = value{layers[m.name], m.unit}
		}
		printMetrics(log, "end-to-end (not reported in trace mode)", endToEnd, e2e)
		printMetrics(log, "per-layer", perLayer, layers)
	} else {
		guard.report(log)
		for _, m := range endToEnd {
			out.Metrics[m.name] = value{e2e[m.name], m.unit}
		}
		printMetrics(log, "end-to-end", endToEnd, e2e)
	}
	out.Attempted, out.Failed, out.Correct = r.attempted, r.failed, r.failed == 0
	out.opListHash, out.oracleRan, out.cache = in.opListHash(), r.oracleRan, measured[len(measured)-1].cache
	for _, h := range r.ref {
		out.answersHash = out.answersHash*1099511628211 ^ h
	}
	for _, n := range r.notes {
		log("FAILED: %s", n)
	}
	log("ops: %d attempted, %d failed, %d oracle checks", r.attempted, r.failed, r.oracleRan)
	return out, nil
}

func printMetrics(log func(string, ...any), title string, defs []metricDef, vals map[string]float64) {
	log("%s metrics:", title)
	for _, m := range defs {
		log("  %-36s %14.4f %s", m.name, vals[m.name], m.unit)
	}
}

// endToEndMetrics reduces the measured passes to the reported numbers:
// timings from the per-op floor over the passes, counts from the median pass.
func endToEndMetrics(in *inputs, st *setup, passes []*passResult, setupS, reopenMs []float64, probeRounds []mutations, heapMB float64) map[string]float64 {
	var opMs, firstMs [][]float64
	var allocs, bytes []float64
	for _, p := range passes {
		opMs, firstMs = append(opMs, p.opMs), append(firstMs, p.firstMs)
		allocs = append(allocs, float64(p.mallocs)/float64(len(p.opMs)))
		bytes = append(bytes, float64(p.bytes)/float64(len(p.opMs)))
	}
	best := floor(opMs)
	queryMs, mut := in.split(best)
	if in.sp.mutateEvery == 0 {
		mut = floorMutations(probeRounds)
	}
	return map[string]float64{
		"setup_s":             median(setupS),
		"query_p50_ms":        median(queryMs),
		"query_p99_ms":        percentile(queryMs, 0.99),
		"throughput_qps":      float64(len(best)) / (sum(best) / 1e3),
		"first_answer_p50_ms": median(floor(firstMs)),
		"mutate_p50_ms":       mut.p50(),
		"allocs_per_query":    median(allocs),
		"bytes_per_query":     median(bytes),
		"reopen_ms":           slices.Min(reopenMs),
		"index_mb":            float64(st.indexBytes) / 1e6,
		"heap_live_mb":        heapMB,
	}
}
