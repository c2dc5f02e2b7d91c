package repro

// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5) at bench scale, plus per-method micro-benchmarks for the two hot
// stages (index construction, query processing) on the sane-default dataset.
//
//	go test -bench=. -benchmem
//
// Each BenchmarkFigN run prints the figure's four panels ((a) indexing time,
// (b) index size, (c) query time, (d) false positive ratio) via -v /
// b.Log output; cmd/sqbench produces the same tables standalone with larger
// scales.

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/workload"
)

// newBudgetedMethod constructs id with a tight mining budget on the two
// mining methods, the ones that have one.
func newBudgetedMethod(id bench.MethodID) (core.Method, error) {
	spec := string(id)
	if id == bench.GIndex || id == bench.TreeDelta {
		spec += ":maxPatterns=20000"
	}
	return New(spec)
}

// runFigure executes one experiment per iteration and logs the report once.
func runFigure(b *testing.B, exp bench.Experiment, perSize bool) {
	b.Helper()
	ctx := context.Background()
	var report bytes.Buffer
	for i := 0; i < b.N; i++ {
		report.Reset()
		results, err := bench.Run(ctx, exp, nil)
		if err != nil {
			b.Fatalf("bench.Run: %v", err)
		}
		bench.WriteReport(&report, exp, results)
		if perSize {
			bench.WritePerSizeReport(&report, exp, results)
		}
	}
	b.Log(report.String())
}

// BenchmarkTable1Datasets regenerates Table 1: the characteristics of the
// (simulated) real datasets.
func BenchmarkTable1Datasets(b *testing.B) {
	var report bytes.Buffer
	for i := 0; i < b.N; i++ {
		report.Reset()
		names, stats := bench.Table1Stats(bench.BenchScale())
		bench.WriteTable1(&report, names, stats)
	}
	b.Log(report.String())
}

// BenchmarkFig1 regenerates Figure 1: indexing and query processing over
// the four real datasets.
func BenchmarkFig1(b *testing.B) {
	runFigure(b, bench.Fig1(bench.BenchScale()), false)
}

// BenchmarkFig2 regenerates Figure 2: performance versus number of nodes
// per graph.
func BenchmarkFig2(b *testing.B) {
	runFigure(b, bench.Fig2(bench.BenchScale()), false)
}

// BenchmarkFig3 regenerates Figure 3 (performance versus density) and, from
// the same sweep, Figure 4 (per-query-size query times).
func BenchmarkFig3AndFig4(b *testing.B) {
	runFigure(b, bench.Fig3(bench.BenchScale()), true)
}

// BenchmarkFig5 regenerates Figure 5: performance versus number of distinct
// labels.
func BenchmarkFig5(b *testing.B) {
	runFigure(b, bench.Fig5(bench.BenchScale()), false)
}

// BenchmarkFig6 regenerates Figure 6: performance versus number of graphs
// in the dataset.
func BenchmarkFig6(b *testing.B) {
	runFigure(b, bench.Fig6(bench.BenchScale()), false)
}

// saneDefaultDataset is the bench-scale analogue of the paper's "sane
// defaults" dataset (§4.2).
func saneDefaultDataset() *Dataset {
	s := bench.BenchScale()
	return NewSyntheticDataset(SynthConfig{
		NumGraphs: s.Graphs, MeanNodes: s.Nodes, MeanDensity: s.Density,
		NumLabels: s.Labels, Seed: 7,
	})
}

// BenchmarkIndexBuild measures index construction per method on the
// sane-default dataset.
func BenchmarkIndexBuild(b *testing.B) {
	ds := saneDefaultDataset()
	for _, id := range bench.AllMethods {
		id := id
		b.Run(string(id), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := newBudgetedMethod(id)
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Build(context.Background(), ds); err != nil {
					b.Skipf("DNF: %v", err)
				}
			}
		})
	}
}

// BenchmarkQuery measures end-to-end query processing (filter + verify) per
// method on the sane-default dataset with 8-edge queries.
func BenchmarkQuery(b *testing.B) {
	ds := saneDefaultDataset()
	queries, err := GenerateQueries(ds, workload.Config{NumQueries: 10, QueryEdges: 8, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	for _, id := range bench.AllMethods {
		id := id
		b.Run(string(id), func(b *testing.B) {
			m, err := newBudgetedMethod(id)
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Build(context.Background(), ds); err != nil {
				b.Skipf("DNF: %v", err)
			}
			proc := core.NewProcessor(m, ds)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := proc.Query(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblations runs the design-choice ablation studies (path length,
// CT-Index feature size and fingerprint width, Grapes parallelism, gIndex
// discriminative gate) on the sane-default dataset.
func BenchmarkAblations(b *testing.B) {
	s := bench.BenchScale()
	ds := bench.AblationDataset(s)
	var report bytes.Buffer
	for i := 0; i < b.N; i++ {
		report.Reset()
		for _, ab := range bench.Ablations() {
			results, err := bench.RunAblation(context.Background(), ab, ds, s, nil)
			if err != nil {
				b.Fatalf("%s: %v", ab.Name, err)
			}
			bench.WriteAblationReport(&report, ab, results)
		}
	}
	b.Log(report.String())
}

// BenchmarkBruteForceBaseline measures the naive no-index VF2 scan the
// paper's introduction motivates against.
func BenchmarkBruteForceBaseline(b *testing.B) {
	ds := saneDefaultDataset()
	queries, err := GenerateQueries(ds, workload.Config{NumQueries: 10, QueryEdges: 8, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BruteForceAnswers(context.Background(), ds, queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}
