// Command sqbench regenerates the tables and figures of "Performance and
// Scalability of Indexed Subgraph Query Processing Methods" (PVLDB 2015).
//
// Usage:
//
//	sqbench -exp fig2 -scale default
//	sqbench -exp all -scale bench -o results.txt
//	sqbench -exp fig3 -methods Grapes,GGSX,CTindex
//	sqbench -exp fig2 -methods "grapes:workers=12 ggsx:maxPathLen=3"
//	sqbench -exp fig2 -shards 4
//	sqbench -exp fig2 -scale bench -json results.json
//	sqbench -exp fig2 -scale bench -compare BENCH_6.json
//	sqbench -compare BENCH_6.json BENCH_7.json
//	sqbench -list
//	sqbench -describe > docs/METHODS.md
//
// Methods are engine specs: a registered name or alias, optionally with
// ":key=value,..." parameter overrides. Plain names may be separated by
// commas; specs carrying parameters are separated by spaces or semicolons
// (commas belong to the parameter list).
//
// Experiments: table1, fig1, fig2, fig3, fig4, fig5, fig6, ablation,
// cache, router, update, all. Figure 4 is the per-query-size view of
// Figure 3's runs and reuses its sweep; "cache" is the serving-layer
// result-cache sweep over repeated isomorphic traffic, "router" compares
// adaptive routing (static, learned, race) against every fixed method and
// the per-query best-fixed-method oracle on a mixed-shape workload, and
// "update" measures online index maintenance (one graph folded in or out)
// against a full rebuild per mutation under interleaved query/update
// traffic (all also included in "ablation").
// Scales: bench (seconds), default (minutes), paper (the full grid — days).
//
// With -json, every experiment and ablation the invocation ran is also
// written as one machine-readable JSON document (per-variant build/query
// timings), the format CI trajectory tooling ingests. With -compare, the
// run is checked against a committed baseline document (the repo pins one
// per PR as BENCH_<n>.json) and exits 1 when a cell regressed more than
// 30%, lost coverage, or drifted its deterministic candidate counts.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/engine"
	_ "repro/internal/engine/std"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1, fig1, fig2, fig3, fig4, fig5, fig6, ablation, cache, router, update, all")
	scaleName := flag.String("scale", "default", "scale: bench, default, paper")
	methodsFlag := flag.String("methods", "", "method spec subset (default: all six); see -list")
	out := flag.String("o", "", "write the report to this file (default stdout)")
	csvPath := flag.String("csv", "", "also write tidy CSV rows to this file")
	jsonPath := flag.String("json", "", "also write machine-readable results (per-variant build/query timings) to this file")
	comparePath := flag.String("compare", "", "compare this run against a committed -json baseline (e.g. BENCH_6.json) and exit 1 on regression")
	quiet := flag.Bool("q", false, "suppress progress logging")
	shards := flag.Int("shards", 0, "run figure experiments through N-way sharded engines (0/1 = unsharded)")
	list := flag.Bool("list", false, "list registered methods and their parameters")
	describe := flag.Bool("describe", false, "emit the registry-generated method reference (docs/METHODS.md) and exit")
	flag.Parse()

	if *list {
		engine.FprintMethods(os.Stdout)
		return
	}
	if *describe {
		if err := describeTo(*out); err != nil {
			fmt.Fprintln(os.Stderr, "sqbench:", err)
			os.Exit(1)
		}
		return
	}
	if *comparePath != "" && flag.NArg() == 1 {
		// Two-document mode: `sqbench -compare BENCH_6.json BENCH_7.json`
		// gates a committed report directly against a baseline, without
		// running a sweep.
		if err := compareFiles(*comparePath, flag.Arg(0)); err != nil {
			fmt.Fprintln(os.Stderr, "sqbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*exp, *scaleName, *methodsFlag, *out, *csvPath, *jsonPath, *comparePath, *quiet, *shards); err != nil {
		fmt.Fprintln(os.Stderr, "sqbench:", err)
		os.Exit(1)
	}
}

// compareFiles runs the regression gate between two committed -json
// documents and prints first-answer improvements on streaming cells; a
// regression exits non-zero exactly like the fresh-run compare.
func compareFiles(basePath, curPath string) error {
	base, err := bench.LoadJSONReport(basePath)
	if err != nil {
		return fmt.Errorf("compare baseline: %w", err)
	}
	cur, err := bench.LoadJSONReport(curPath)
	if err != nil {
		return fmt.Errorf("compare current: %w", err)
	}
	for _, s := range bench.FirstAnswerImprovements(base, cur) {
		fmt.Fprintln(os.Stderr, "improved:", s)
	}
	if regressions := bench.CompareReports(base, cur, bench.CompareOptions{}); len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "regression:", r)
		}
		return fmt.Errorf("%d regression(s): %s vs %s", len(regressions), curPath, basePath)
	}
	fmt.Fprintf(os.Stderr, "no regressions: %s vs %s\n", curPath, basePath)
	return nil
}

// describeTo writes the registry-generated method reference to path (or
// stdout when path is empty), surfacing Close errors so a failed flush
// never exits 0 with a truncated file.
func describeTo(path string) error {
	if path == "" {
		return engine.WriteMethodsMarkdown(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := engine.WriteMethodsMarkdown(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(expName, scaleName, methodsFlag, outPath, csvPath, jsonPath, comparePath string, quiet bool, shards int) error {
	scale, err := bench.ScaleByName(scaleName)
	if err != nil {
		return err
	}
	methods, specs, err := parseMethods(methodsFlag)
	if err != nil {
		return err
	}

	var w io.Writer = os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	var log io.Writer
	if !quiet {
		log = os.Stderr
	}
	var csvW io.Writer
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		csvW = f
	}

	ctx := context.Background()
	want := func(name string) bool { return expName == "all" || expName == name }
	ran := false
	var jr *bench.JSONReport
	var jsonF *os.File
	if jsonPath != "" {
		// Open up front, like -o and -csv: a bad path must fail in
		// milliseconds, not after a multi-hour sweep.
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		jsonF = f
		jr = &bench.JSONReport{}
	}
	var baseline *bench.JSONReport
	if comparePath != "" {
		// Load up front too: a missing baseline must not cost a sweep.
		b, err := bench.LoadJSONReport(comparePath)
		if err != nil {
			return fmt.Errorf("compare baseline: %w", err)
		}
		baseline = b
		if jr == nil {
			jr = &bench.JSONReport{}
		}
	}

	if want("table1") {
		names, stats := bench.Table1Stats(scale)
		bench.WriteTable1(w, names, stats)
		if jr != nil {
			jr.Table1 = bench.Table1JSON(names, stats)
		}
		ran = true
	}
	figures := []struct {
		name string
		exp  bench.Experiment
	}{
		{"fig1", bench.Fig1(scale)},
		{"fig2", bench.Fig2(scale)},
		{"fig3", bench.Fig3(scale)},
		{"fig5", bench.Fig5(scale)},
		{"fig6", bench.Fig6(scale)},
	}
	fig4 := want("fig4")
	for _, f := range figures {
		runThis := want(f.name)
		// Figure 4 is derived from Figure 3's sweep.
		if f.name == "fig3" && fig4 {
			runThis = true
		}
		if !runThis {
			continue
		}
		e := f.exp
		e.Methods = methods
		e.MethodSpecs = specs
		e.Shards = shards
		results, err := bench.Run(ctx, e, log)
		if err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		if want(f.name) {
			bench.WriteReport(w, e, results)
			if csvW != nil {
				if err := bench.WriteCSV(csvW, e, results); err != nil {
					return fmt.Errorf("%s csv: %w", f.name, err)
				}
			}
			if jr != nil {
				jr.Experiments = append(jr.Experiments, bench.ExperimentJSON(e, results))
			}
		}
		if f.name == "fig3" && (fig4 || expName == "all") {
			e4 := e
			e4.Name = "fig4"
			e4.Title = "Figure 4: query time per query size, varying density"
			bench.WritePerSizeReport(w, e4, results)
			// Figure 4's per-size data rides in the cells'
			// time_by_size_seconds; serialize the sweep under its own
			// name only when fig3 itself was not requested (else the
			// same cells would appear twice).
			if jr != nil && !want("fig3") {
				jr.Experiments = append(jr.Experiments, bench.ExperimentJSON(e4, results))
			}
		}
		ran = true
	}
	if want("ablation") || want("cache") || want("router") || want("update") {
		ds := bench.AblationDataset(scale)
		if want("ablation") {
			for _, ab := range bench.Ablations() {
				results, err := bench.RunAblation(ctx, ab, ds, scale, log)
				if err != nil {
					return fmt.Errorf("ablation %s: %w", ab.Name, err)
				}
				bench.WriteAblationReport(w, ab, results)
				if jr != nil {
					jr.Ablations = append(jr.Ablations, bench.AblationJSON(ab, results))
				}
			}
		}
		// The serving-layer result-cache sweep runs under both -exp
		// ablation and -exp cache.
		if want("ablation") || want("cache") {
			results, err := bench.RunCacheAblation(ctx, ds, scale, log)
			if err != nil {
				return fmt.Errorf("ablation cache: %w", err)
			}
			bench.WriteCacheAblationReport(w, results)
			if jr != nil {
				jr.Cache = results
			}
		}
		// The adaptive-routing comparison runs under both -exp ablation
		// and -exp router: router policies vs fixed methods vs oracle.
		if want("ablation") || want("router") {
			results, err := bench.RunRouterAblation(ctx, ds, scale, log)
			if err != nil {
				return fmt.Errorf("ablation router: %w", err)
			}
			bench.WriteRouterReport(w, results)
			if jr != nil {
				jr.Router = results
			}
		}
		// The online-mutation comparison runs under both -exp ablation and
		// -exp update: online index maintenance vs full rebuild under
		// interleaved query/update traffic.
		if want("ablation") || want("update") {
			results, err := bench.RunUpdateAblation(ctx, scale, log)
			if err != nil {
				return fmt.Errorf("ablation update: %w", err)
			}
			bench.WriteUpdateReport(w, results)
			if jr != nil {
				jr.Update = results
			}
		}
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", expName)
	}
	if jsonF != nil {
		if err := bench.WriteJSONReport(jsonF, jr); err != nil {
			return fmt.Errorf("json report: %w", err)
		}
		if err := jsonF.Close(); err != nil {
			return fmt.Errorf("json report: %w", err)
		}
	}
	if baseline != nil {
		if regressions := bench.CompareReports(baseline, jr, bench.CompareOptions{}); len(regressions) > 0 {
			for _, r := range regressions {
				fmt.Fprintln(os.Stderr, "regression:", r)
			}
			return fmt.Errorf("%d regression(s) vs %s", len(regressions), comparePath)
		}
		for _, s := range bench.FirstAnswerImprovements(baseline, jr) {
			fmt.Fprintln(os.Stderr, "improved:", s)
		}
		fmt.Fprintf(os.Stderr, "no regressions vs %s\n", comparePath)
	}
	return nil
}

// parseMethods resolves the -methods flag through the engine registry. Each
// entry is a method spec; entries are separated by whitespace or
// semicolons, and — for plain names without parameters — also by commas, so
// the documented "Grapes,GGSX,CTindex" form keeps working.
func parseMethods(s string) ([]bench.MethodID, map[bench.MethodID]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil, nil
	}
	tokens := strings.FieldsFunc(s, func(r rune) bool {
		return r == ' ' || r == '\t' || r == ';'
	})
	var entries []string
	for _, tok := range tokens {
		if strings.ContainsAny(tok, ":=") {
			entries = append(entries, tok)
			continue
		}
		for _, name := range strings.Split(tok, ",") {
			if name != "" {
				entries = append(entries, name)
			}
		}
	}
	var out []bench.MethodID
	specs := map[bench.MethodID]string{}
	for _, entry := range entries {
		id, spec, err := bench.ResolveMethod(entry)
		if err != nil {
			return nil, nil, err
		}
		if _, dup := specs[id]; dup {
			return nil, nil, fmt.Errorf("method %s selected twice", id)
		}
		specs[id] = spec
		out = append(out, id)
	}
	return out, specs, nil
}
