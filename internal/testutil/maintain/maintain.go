// Package maintain times a method's index maintenance for the path
// methods' BenchmarkMaintain.
package maintain

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
)

// Shapes are the datasets of two benchmark workloads: filter_heavy's,
// whose ten labels make a graph's paths reach few of the index's
// postings, and verify_heavy's, whose three labels make them reach most.
var Shapes = []struct {
	Name string
	Cfg  gen.SynthConfig
}{
	{"filter_heavy", gen.SynthConfig{NumGraphs: 1000, MeanNodes: 40, MeanDensity: 0.06, NumLabels: 10, Seed: 1}},
	{"verify_heavy", gen.SynthConfig{NumGraphs: 420, MeanNodes: 60, MeanDensity: 0.05, NumLabels: 3, Seed: 1}},
}

// Benchmark builds a fresh method over each shape's dataset, then times
// pairs of AddGraphToIndex and RemoveGraphFromIndex of graphs drawn from
// the same regime, each removal undoing its add. It reports the mean cost
// of each call as add-ns/op and remove-ns/op; the dataset bookkeeping
// around them is not timed.
func Benchmark(b *testing.B, newMethod func() core.Method) {
	for _, sh := range Shapes {
		b.Run(sh.Name, func(b *testing.B) {
			ds := gen.Synthetic(sh.Cfg)
			m := newMethod()
			if err := m.Build(context.Background(), ds); err != nil {
				b.Fatal(err)
			}
			pool := sh.Cfg
			pool.NumGraphs, pool.Seed = 64, 2
			adds := gen.Synthetic(pool).Graphs
			var addNs, removeNs time.Duration
			b.ResetTimer()
			for i := range b.N {
				g := adds[i%len(adds)].ShallowWithID(0)
				id := ds.Add(g)
				t0 := time.Now()
				if err := m.AddGraphToIndex(g); err != nil {
					b.Fatal(err)
				}
				addNs += time.Since(t0)
				ds.Remove(id)
				t0 = time.Now()
				if err := m.RemoveGraphFromIndex(id); err != nil {
					b.Fatal(err)
				}
				removeNs += time.Since(t0)
			}
			b.ReportMetric(float64(addNs.Nanoseconds())/float64(b.N), "add-ns/op")
			b.ReportMetric(float64(removeNs.Nanoseconds())/float64(b.N), "remove-ns/op")
		})
	}
}
