package grapes

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/diskfmt"
	"repro/internal/gen"
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
	if r.Accessed(secPostings) || r.Accessed(secCompBlob) {
		t.Fatalf("mmap load read a bulk section in full (postings=%v, compBlob=%v)",
			r.Accessed(secPostings), r.Accessed(secCompBlob))
	}
	for i, q := range queries {
		want, err := built.Candidates(q)
		if err != nil {
			t.Fatalf("heap candidates %d: %v", i, err)
		}
		got, err := ix.Candidates(q)
		if err != nil {
			t.Fatalf("mmap candidates %d: %v", i, err)
		}
		if !got.Equal(want) {
			t.Errorf("query %d candidates diverge: heap %v, mmap %v", i, want, got)
		}
	}
	// Queries materialized individual postings off the mapping, but the
	// bulk sections still were never read end to end.
	if r.Accessed(secPostings) || r.Accessed(secCompBlob) {
		t.Fatalf("querying read a bulk section in full")
	}
	if ix.SizeBytes() <= 0 {
		t.Fatalf("no resident bytes after queries; lazy loads did not happen")
	}
}
