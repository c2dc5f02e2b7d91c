package ggsx

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/diskfmt"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/pathkey"
	"repro/internal/testutil/plans"
	"repro/internal/workload"
)

// TestMmapNeverReadsBulkSections is the cold-start proof at the container
// level: a storage=mmap load touches only the meta section, and answering
// queries resolves paths through the directory and decodes postings from
// sub-slices of the mapping — the postings section is never read in full.
// (Accessed reports a full read via Section/VerifySection; SectionLazy
// only slices the mapping.)
func TestMmapNeverReadsBulkSections(t *testing.T) {
	ds := gen.Synthetic(gen.SynthConfig{NumGraphs: 40, MeanNodes: 14, MeanDensity: 0.2, NumLabels: 4, Seed: 11})
	queries, err := workload.Generate(ds, workload.Config{NumQueries: 4, QueryEdges: 4, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	built := build(t, ds)
	path := filepath.Join(t.TempDir(), "ggsx.idx")
	w := diskfmt.NewWriter(ds.Epoch(), ds.VersionTag(), "ggsx")
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
	ix := New(Options{Storage: core.StorageMmap})
	if err := ix.LoadIndex(r, ds); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	if r.Accessed(pathkey.SecPostings) {
		t.Fatalf("mmap load read the postings section in full")
	}
	if ix.SizeBytes() != 0 {
		t.Fatalf("mmap load decoded %d bytes of postings", ix.SizeBytes())
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
		if len(want) == 0 || !got.Equal(want) {
			t.Errorf("query %d candidates diverge: heap %v, mmap %v", i, want, got)
		}
	}
	if r.Accessed(pathkey.SecPostings) {
		t.Fatalf("querying read the postings section in full")
	}
	if ix.SizeBytes() <= 0 {
		t.Fatalf("no resident bytes after queries; lazy loads did not happen")
	}
}

// TestRetiredTrieLayoutRebuilds: an index file in the retired trie layout
// (a 16-byte meta section and one section of trie node records, each path
// direction its own node) is refused and rebuilt, never misread, under
// either storage mode. testdata/retired-trie.idx was written by the last
// version that read that layout, by
//
//	engine.Open(ctx, ds, engine.WithSpec("ggsx"), engine.WithIndexPath(path))
//
// over the dataset below; that version restored it on a second open.
func TestRetiredTrieLayoutRebuilds(t *testing.T) {
	ctx := context.Background()
	ds := gen.Synthetic(gen.SynthConfig{NumGraphs: 16, MeanNodes: 10, MeanDensity: 0.25, NumLabels: 4, Seed: 61})
	queries, err := workload.Generate(ds, workload.Config{NumQueries: 6, QueryEdges: 4, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	retired, err := os.ReadFile(filepath.Join("testdata", "retired-trie.idx"))
	if err != nil {
		t.Fatal(err)
	}
	// The file is stamped for this dataset, so only its layout can stop
	// it from restoring.
	r, err := diskfmt.FromBytes(retired)
	if err != nil {
		t.Fatal(err)
	}
	if r.Epoch() != ds.Epoch() || r.Tag() != ds.VersionTag() || r.SectionLen(secMeta) != 16 {
		t.Fatalf("testdata file is stamped epoch %d tag %x with a %d-byte meta section; the dataset is at epoch %d tag %x",
			r.Epoch(), r.Tag(), r.SectionLen(secMeta), ds.Epoch(), ds.VersionTag())
	}
	for _, storage := range []string{core.StorageHeap, core.StorageMmap} {
		t.Run(storage, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ggsx.idx")
			if err := os.WriteFile(path, retired, 0o644); err != nil {
				t.Fatal(err)
			}
			e, err := engine.Open(ctx, ds, engine.WithSpec("ggsx:storage="+storage), engine.WithIndexPath(path))
			if err != nil {
				t.Fatal(err)
			}
			if e.Restored() {
				t.Fatalf("a file in the retired trie layout was restored")
			}
			for i, q := range queries {
				want, err := core.BruteForceAnswers(ctx, ds, q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.Query(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 || !got.Answers.Equal(want) {
					t.Errorf("query %d: answers %v, brute force %v", i, got.Answers, want)
				}
			}
			// The rebuild overwrote the file in the current layout.
			again, err := engine.Open(ctx, ds, engine.WithSpec("ggsx:storage="+storage), engine.WithIndexPath(path))
			if err != nil {
				t.Fatal(err)
			}
			if !again.Restored() {
				t.Errorf("the rebuilt file did not restore")
			}
		})
	}
}
