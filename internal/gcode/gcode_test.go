package gcode

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/subiso"
	"repro/internal/testutil/plans"
	"repro/internal/workload"
)

func pathGraph(labels ...graph.Label) *graph.Graph {
	g := graph.New(0)
	for _, l := range labels {
		g.AddVertex(l)
	}
	for i := 1; i < len(labels); i++ {
		g.MustAddEdge(int32(i-1), int32(i))
	}
	return g
}

func build(t *testing.T, ds *graph.Dataset, opts Options) *Index {
	t.Helper()
	ix := New(opts)
	if err := ix.Build(context.Background(), ds); err != nil {
		t.Fatalf("Build: %v", err)
	}
	return ix
}

func TestSignatureDominanceOnEmbedding(t *testing.T) {
	// For every embedding q ⊆ g, each query vertex signature must be
	// dominated by the signature of its image — the soundness core of gCode.
	ds := gen.Synthetic(gen.SynthConfig{NumGraphs: 8, MeanNodes: 12, MeanDensity: 0.25, NumLabels: 3, Seed: 20})
	ix := build(t, ds, Options{})
	qs, err := workload.Generate(ds, workload.Config{NumQueries: 8, QueryEdges: 5, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range qs {
		for _, g := range ds.Graphs {
			m := subiso.FindOne(q, g)
			if m == nil {
				continue
			}
			for qv := int32(0); int(qv) < q.NumVertices(); qv++ {
				qsig := ix.vertexSig(q, qv)
				gsig := ix.vertexSig(g, m[qv])
				if !gsig.dominatesQ(&qsig) {
					t.Errorf("query %d: signature of image vertex does not dominate (qv=%d)", qi, qv)
				}
			}
		}
	}
}

func TestCandidatesBasic(t *testing.T) {
	ds := graph.NewDataset("t")
	ds.Add(pathGraph(1, 2, 3))
	ds.Add(pathGraph(4, 5))
	ix := build(t, ds, Options{})
	cands, err := plans.Candidates(ix, ds, pathGraph(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !cands.Contains(0) {
		t.Errorf("containing graph filtered out")
	}
	if cands.Contains(1) {
		t.Errorf("label-disjoint graph survived")
	}
}

func TestPhase2DistinctnessFiltering(t *testing.T) {
	// Query star with 3 leaves of label 1; data star with only 2 such
	// leaves: every query signature has *a* dominating vertex, but not
	// three distinct ones — the bipartite matching must reject it.
	q := graph.New(0)
	qc := q.AddVertex(0)
	for i := 0; i < 3; i++ {
		v := q.AddVertex(1)
		q.MustAddEdge(qc, v)
	}
	g := graph.New(0)
	gc := g.AddVertex(0)
	for i := 0; i < 2; i++ {
		v := g.AddVertex(1)
		g.MustAddEdge(gc, v)
	}
	// pad with an unrelated label-2 vertex to keep |V(g)| >= |V(q)|
	g.MustAddEdge(g.AddVertex(2), gc)
	ds := graph.NewDataset("t")
	ds.Add(g)
	ix := build(t, ds, Options{})
	cands, err := plans.Candidates(ix, ds, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 0 {
		t.Errorf("distinctness filtering failed: candidates = %v", cands)
	}
}

func TestNoFalseNegativesRandom(t *testing.T) {
	ds := gen.Synthetic(gen.SynthConfig{NumGraphs: 20, MeanNodes: 14, MeanDensity: 0.2, NumLabels: 4, Seed: 22})
	ix := build(t, ds, Options{})
	qs, err := workload.Generate(ds, workload.Config{NumQueries: 12, QueryEdges: 6, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		cands, err := plans.Candidates(ix, ds, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range ds.Graphs {
			if subiso.Exists(q, g) && !cands.Contains(g.ID()) {
				t.Errorf("query %d: false negative for graph %d", i, g.ID())
			}
		}
	}
}

func TestLargerPathLen(t *testing.T) {
	// PathLen 3 signatures must stay sound.
	ds := gen.Synthetic(gen.SynthConfig{NumGraphs: 10, MeanNodes: 10, MeanDensity: 0.25, NumLabels: 2, Seed: 24})
	ix := build(t, ds, Options{PathLen: 3, NumEigenvalues: 3})
	qs, err := workload.Generate(ds, workload.Config{NumQueries: 6, QueryEdges: 4, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		cands, err := plans.Candidates(ix, ds, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range ds.Graphs {
			if subiso.Exists(q, g) && !cands.Contains(g.ID()) {
				t.Errorf("query %d: false negative with PathLen=3", i)
			}
		}
	}
}

func TestUnbuiltAndSize(t *testing.T) {
	ix := New(Options{})
	if _, err := plans.Candidates(ix, nil, pathGraph(1)); err == nil {
		t.Errorf("want error before Build")
	}
	ds := graph.NewDataset("t")
	ds.Add(pathGraph(1, 2))
	built := build(t, ds, Options{})
	if built.SizeBytes() <= 0 {
		t.Errorf("SizeBytes = %d", built.SizeBytes())
	}
}

// TestPlanBytesIndependentOfSize: planning a query allocates the same
// bytes over 1000 graphs as over 4000. The id order candidates stream in
// depends on the index alone, so it is kept with the index, not sorted
// into two table-sized slices per query.
func TestPlanBytesIndependentOfSize(t *testing.T) {
	q := pathGraph(0, 1, 2)
	var bytes [2]uint64
	for i, n := range []int{1000, 4000} {
		ds := gen.Synthetic(gen.SynthConfig{NumGraphs: n, MeanNodes: 6, MeanDensity: 0.3, NumLabels: 4, Seed: 26})
		ix := build(t, ds, Options{})
		bytes[i] = planBytes(t, ix, ds, q)
	}
	t.Logf("bytes per plan: %d over 1000 graphs, %d over 4000", bytes[0], bytes[1])
	if bytes[0] != bytes[1] {
		t.Errorf("planning allocates %d bytes over 1000 graphs and %d over 4000, want the same", bytes[0], bytes[1])
	}
}

// planBytes returns the bytes one core.Plan of q allocates, on average.
func planBytes(t *testing.T, ix *Index, ds *graph.Dataset, q *graph.Graph) uint64 {
	const runs = 64
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := core.Plan(context.Background(), ix, ds, q); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}
