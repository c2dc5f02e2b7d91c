package grapes

import (
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/diskfmt"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pathkey"
	"repro/internal/testutil/plans"
	"repro/internal/workload"
)

// TestMmapNeverReadsBulkSections is the cold-start proof at the container
// level: a storage=mmap load touches only the meta and directory sections,
// and even answering queries resolves postings through sub-slices of the
// mapping — the bulk payload sections are never read in full. (Accessed
// reports a full payload read via Section/VerifySection; SectionLazy only
// slices the mapping.)
func TestMmapNeverReadsBulkSections(t *testing.T) {
	ds := gen.Synthetic(gen.SynthConfig{
		NumGraphs: 40, MeanNodes: 14, MeanDensity: 0.2, NumLabels: 4, Seed: 11,
	})
	queries, err := workload.Generate(ds, workload.Config{NumQueries: 4, QueryEdges: 4, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	built := build(t, ds, Options{MaxPathLen: 3})
	path := filepath.Join(t.TempDir(), "grapes.v2")
	w := diskfmt.NewWriter(ds.Epoch(), ds.VersionTag(), "grapes")
	if err := built.SaveIndex(w); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := diskfmt.Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	ix := New(Options{MaxPathLen: 3, Storage: core.StorageMmap})
	if err := ix.LoadIndex(r, ds); err != nil {
		t.Fatal(err)
	}
	if r.Accessed(pathkey.SecPostings) || r.Accessed(secCompBlob) {
		t.Fatalf("mmap load read a bulk section in full (postings=%v, compBlob=%v)",
			r.Accessed(pathkey.SecPostings), r.Accessed(secCompBlob))
	}
	for i, q := range queries {
		want, err := plans.Candidates(built, ds, q)
		if err != nil {
			t.Fatalf("heap candidates %d: %v", i, err)
		}
		got, err := plans.Candidates(ix, ds, q)
		if err != nil {
			t.Fatalf("mmap candidates %d: %v", i, err)
		}
		if !got.Equal(want) {
			t.Errorf("query %d candidates diverge: heap %v, mmap %v", i, want, got)
		}
	}
	// Queries materialized individual postings off the mapping, but the
	// bulk sections still were never read end to end.
	if r.Accessed(pathkey.SecPostings) || r.Accessed(secCompBlob) {
		t.Fatalf("querying read a bulk section in full")
	}
	if ix.SizeBytes() <= 0 {
		t.Fatalf("no resident bytes after queries; lazy loads did not happen")
	}
}

// TestMmapBadComponentTableVerifiesWholeGraph: a component table that fails
// to decode under storage=mmap (here every graph's first vertex sits in a
// component past the recorded count; the file is sealed with valid CRCs)
// must not drop candidates. They keep their posting and count checks and
// are verified against the whole graph, so the answers stay exact; a heap
// load of the same file refuses it.
func TestMmapBadComponentTableVerifiesWholeGraph(t *testing.T) {
	ctx := context.Background()
	ds := gen.Synthetic(gen.SynthConfig{NumGraphs: 30, MeanNodes: 12, MeanDensity: 0.2, NumLabels: 3, Seed: 21})
	queries, err := workload.Generate(ds, workload.Config{NumQueries: 6, QueryEdges: 4, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	built := build(t, ds, Options{MaxPathLen: 3})
	w := diskfmt.NewWriter(ds.Epoch(), ds.VersionTag(), "grapes")
	if err := built.SaveIndex(w); err != nil {
		t.Fatal(err)
	}
	var compBlob []byte
	for i, comp := range built.comps {
		for v, c := range comp {
			if v == 0 {
				c = int32(built.compCount[i])
			}
			compBlob = binary.LittleEndian.AppendUint32(compBlob, uint32(c))
		}
	}
	w.AddSection(secCompBlob, compBlob)
	mapped, r := mapSections(t, w, ds)

	heap := New(Options{})
	if err := heap.LoadIndex(r, ds); err == nil {
		t.Fatalf("heap load accepted a component table with out-of-range ids")
	}
	proc := core.Processor{Method: mapped, DS: ds, VerifyWorkers: 1}
	for i, q := range queries {
		want, err := core.BruteForceAnswers(ctx, ds, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := proc.QueryCtx(ctx, q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(want) == 0 || !got.Answers.Equal(want) {
			t.Errorf("query %d: answers %v, brute force %v", i, got.Answers, want)
		}
	}
}

// TestMmapMisfitComponentTableNeverPanics: a mapped component table is
// validated against its own sections, not against the dataset. A crafted
// file whose table is shorter than its graph, while every location start
// still fits the table, must not index past it in Verify: the candidate is
// verified against the whole graph instead.
func TestMmapMisfitComponentTableNeverPanics(t *testing.T) {
	g := pathGraph(1, 2)
	c := g.AddVertex(3)
	g.MustAddEdge(c, g.AddVertex(1))
	ds := graph.NewDataset("t")
	ds.Add(g)
	built := build(t, ds, Options{})
	// Vertex 3 falls off the table, vertex 0 joins component 1, and no
	// location starts at vertex 3 any more.
	built.comps[0] = []int32{1, 0, 1}
	for _, p := range built.features {
		for i := range p.locs {
			p.locs[i].starts = slices.DeleteFunc(p.locs[i].starts, func(v int32) bool { return v == 3 })
		}
	}
	w := diskfmt.NewWriter(ds.Epoch(), ds.VersionTag(), "grapes")
	if err := built.SaveIndex(w); err != nil {
		t.Fatal(err)
	}
	mapped, _ := mapSections(t, w, ds)
	plan, err := core.NewPlan(context.Background(), mapped, ds, pathGraph(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Candidates().Equal(graph.IDSet{0}) {
		t.Fatalf("candidates %v, want [0]", plan.Candidates())
	}
	if !plan.Verify(0) {
		t.Errorf("graph 0 contains the query")
	}
}
