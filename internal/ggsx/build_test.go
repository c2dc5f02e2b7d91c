package ggsx

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"repro/internal/diskfmt"
	"repro/internal/gen"
	"repro/internal/graph"
)

// sections returns the container bytes SaveIndex writes for ix.
func sections(t *testing.T, ix *Index) []byte {
	t.Helper()
	w := diskfmt.NewWriter(0, 0, "ggsx")
	if err := ix.SaveIndex(w); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMaintainedEqualsRebuilt: an index built once and then maintained
// through random adds and removes — added graphs bring labels the build
// never saw, and removals prune subtrees — saves to the same bytes as a
// fresh Build over the mutated dataset.
func TestMaintainedEqualsRebuilt(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	ds := gen.Synthetic(gen.SynthConfig{NumGraphs: 30, MeanNodes: 12, MeanDensity: 0.2, NumLabels: 4, Seed: 6})
	more := gen.Synthetic(gen.SynthConfig{NumGraphs: 30, MeanNodes: 10, MeanDensity: 0.2, NumLabels: 7, Seed: 7})
	ix := build(t, ds)
	for _, g := range more.Graphs {
		if rng.IntN(2) == 0 {
			g = g.ShallowWithID(0)
			ds.Add(g)
			if err := ix.AddGraphToIndex(g); err != nil {
				t.Fatal(err)
			}
			continue
		}
		id := graph.ID(rng.IntN(ds.Len()))
		if !ds.Remove(id) {
			continue
		}
		if err := ix.RemoveGraphFromIndex(id); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(sections(t, ix), sections(t, build(t, ds))) {
		t.Fatalf("maintained index saves other bytes than a rebuild")
	}
}
