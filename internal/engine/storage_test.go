package engine_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diskfmt"
	"repro/internal/engine"
	_ "repro/internal/engine/std"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/workload"
)

// storageSpecs are the methods with a v2 section format behind the storage
// parameter: every one must answer identically whether its restored index
// is decoded eagerly (heap) or resolved lazily off the mapping (mmap).
var storageSpecs = []string{
	"grapes:maxPathLen=3",
	"ggsx:maxPathLen=3",
	"gcode:pathLen=1",
}

func queryParity(t *testing.T, stage string, queries []*graph.Graph, want, got *engine.Engine) {
	t.Helper()
	ctx := context.Background()
	for i, q := range queries {
		rw, err := want.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s: heap query %d: %v", stage, i, err)
		}
		rg, err := got.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s: mmap query %d: %v", stage, i, err)
		}
		if !rg.Answers.Equal(rw.Answers) {
			t.Errorf("%s: query %d answers diverge: heap %v, mmap %v", stage, i, rw.Answers, rg.Answers)
		}
		if !rg.Candidates.Equal(rw.Candidates) {
			t.Errorf("%s: query %d candidates diverge: heap %v, mmap %v", stage, i, rw.Candidates, rg.Candidates)
		}
	}
}

// TestMmapHeapParityEveryMethod: for every converted method, a restored
// storage=mmap engine answers exactly like a restored storage=heap engine —
// including after mutations force the mapped index to materialize and
// re-persist.
func TestMmapHeapParityEveryMethod(t *testing.T) {
	ctx := context.Background()
	for _, spec := range storageSpecs {
		t.Run(spec, func(t *testing.T) {
			ds := tinyDataset(t)
			queries := tinyQueries(t, ds)
			path := filepath.Join(t.TempDir(), "idx")

			if _, err := engine.Open(ctx, ds, engine.WithSpec(spec), engine.WithIndexPath(path)); err != nil {
				t.Fatalf("build open: %v", err)
			}
			heap, err := engine.Open(ctx, ds, engine.WithSpec(spec+",storage=heap"), engine.WithIndexPath(path))
			if err != nil {
				t.Fatalf("heap open: %v", err)
			}
			if !heap.Restored() {
				t.Fatalf("heap open rebuilt instead of restoring")
			}
			mm, err := engine.Open(ctx, ds, engine.WithSpec(spec+",storage=mmap"), engine.WithIndexPath(path))
			if err != nil {
				t.Fatalf("mmap open: %v", err)
			}
			if !mm.Restored() {
				t.Fatalf("mmap open rebuilt instead of restoring")
			}
			queryParity(t, "restored", queries, heap, mm)

			// Mutations splice heap structures, so they force a mapped index
			// to materialize and then re-persist at the new epoch+tag. (The
			// heap engine above shares the dataset and goes stale — a fresh
			// engine restores the re-persisted file for comparison.)
			if _, err := mm.AddGraph(ctx, ds.Graphs[1].ShallowWithID(0)); err != nil {
				t.Fatalf("AddGraph: %v", err)
			}
			if err := mm.RemoveGraph(ctx, 0); err != nil {
				t.Fatalf("RemoveGraph: %v", err)
			}
			heap2, err := engine.Open(ctx, ds, engine.WithSpec(spec+",storage=heap"), engine.WithIndexPath(path))
			if err != nil {
				t.Fatalf("heap open after mutation: %v", err)
			}
			if !heap2.Restored() {
				t.Fatalf("mutation did not re-persist a restorable v2 index")
			}
			queryParity(t, "mutated", queries, heap2, mm)
			mm2, err := engine.Open(ctx, ds, engine.WithSpec(spec+",storage=mmap"), engine.WithIndexPath(path))
			if err != nil {
				t.Fatalf("mmap open after mutation: %v", err)
			}
			if !mm2.Restored() {
				t.Fatalf("mmap open after mutation rebuilt instead of restoring")
			}
			queryParity(t, "mutated-reopen", queries, heap2, mm2)
		})
	}
}

// TestMmapHeapParitySharded: a sharded engine restored with storage=mmap —
// every shard an O(header) mapped open warming in the background — answers
// exactly like its heap twin.
func TestMmapHeapParitySharded(t *testing.T) {
	ctx := context.Background()
	for _, spec := range storageSpecs {
		t.Run(spec, func(t *testing.T) {
			ds := tinyDataset(t)
			queries := tinyQueries(t, ds)
			base := filepath.Join(t.TempDir(), "idx")

			if _, err := engine.OpenSharded(ctx, ds, 3, engine.WithSpec(spec), engine.WithIndexPath(base)); err != nil {
				t.Fatalf("build open: %v", err)
			}
			heap, err := engine.OpenSharded(ctx, ds, 3, engine.WithSpec(spec+",storage=heap"), engine.WithIndexPath(base))
			if err != nil {
				t.Fatalf("heap open: %v", err)
			}
			if !heap.Restored() {
				t.Fatalf("heap open rebuilt instead of restoring")
			}
			mm, err := engine.OpenSharded(ctx, ds, 3, engine.WithSpec(spec+",storage=mmap"), engine.WithIndexPath(base))
			if err != nil {
				t.Fatalf("mmap open: %v", err)
			}
			if !mm.Restored() {
				t.Fatalf("mmap open rebuilt instead of restoring")
			}
			for i, q := range queries {
				rw, err := heap.Query(ctx, q)
				if err != nil {
					t.Fatalf("heap query %d: %v", i, err)
				}
				rg, err := mm.Query(ctx, q)
				if err != nil {
					t.Fatalf("mmap query %d: %v", i, err)
				}
				if !rg.Answers.Equal(rw.Answers) {
					t.Errorf("query %d answers diverge: heap %v, mmap %v", i, rw.Answers, rg.Answers)
				}
			}
			waitReady(t, mm.Ready)
		})
	}
}

// TestMmapWarmRacesMutation: a mutation issued the moment a storage=mmap
// engine opens materializes the index and releases its mapping while the
// background warm-up may still be reading it. The warm-up holds the
// engine's read lock, so the two are ordered; under -race, a warm-up
// outside the lock is reported here.
func TestMmapWarmRacesMutation(t *testing.T) {
	ctx := context.Background()
	for _, spec := range storageSpecs {
		t.Run(spec, func(t *testing.T) {
			ds := tinyDataset(t)
			queries := tinyQueries(t, ds)
			path := filepath.Join(t.TempDir(), "idx")
			if _, err := engine.Open(ctx, ds, engine.WithSpec(spec), engine.WithIndexPath(path)); err != nil {
				t.Fatalf("build open: %v", err)
			}
			mm, err := engine.Open(ctx, ds, engine.WithSpec(spec+",storage=mmap"), engine.WithIndexPath(path))
			if err != nil {
				t.Fatalf("mmap open: %v", err)
			}
			if !mm.Restored() {
				t.Fatalf("mmap open rebuilt instead of restoring")
			}
			if _, err := mm.AddGraph(ctx, ds.Graphs[1].ShallowWithID(0)); err != nil {
				t.Fatalf("AddGraph: %v", err)
			}
			waitReady(t, mm.Ready)
			for i, q := range queries {
				want, err := core.BruteForceAnswers(ctx, ds, q)
				if err != nil {
					t.Fatal(err)
				}
				r, err := mm.Query(ctx, q)
				if err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				if !r.Answers.Equal(want) {
					t.Errorf("query %d answers %v, want %v", i, r.Answers, want)
				}
			}
		})
	}
}

// TestMmapSaveWhileQueryingEveryMethod: Save holds only the engine's read
// lock, so a mapped index is saved while queries read its mapping. The save
// must not touch what they read — under -race, a save that materializes
// the index or releases the mapping is reported here — must write the same
// bytes as the heap save the index was restored from, and must leave the
// index mapped: once every query has run, its resident bytes do not move.
func TestMmapSaveWhileQueryingEveryMethod(t *testing.T) {
	ctx := context.Background()
	for _, spec := range storageSpecs {
		t.Run(spec, func(t *testing.T) {
			ds := tinyDataset(t)
			queries := tinyQueries(t, ds)
			dir := t.TempDir()
			path := filepath.Join(dir, "idx")
			heap, err := engine.Open(ctx, ds, engine.WithSpec(spec), engine.WithIndexPath(path))
			if err != nil {
				t.Fatalf("build open: %v", err)
			}
			mm, err := engine.Open(ctx, ds, engine.WithSpec(spec+",storage=mmap"), engine.WithIndexPath(path))
			if err != nil {
				t.Fatalf("mmap open: %v", err)
			}
			if !mm.Restored() {
				t.Fatalf("mmap open rebuilt instead of restoring")
			}
			want := make([]graph.IDSet, len(queries))
			for i, q := range queries {
				r, err := heap.Query(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = r.Answers
			}
			queryParity(t, "restored", queries, heap, mm)
			resident := mm.Method().SizeBytes()

			stop := make(chan struct{})
			errs := make(chan error, 2)
			for range 2 {
				go func() {
					for {
						for i, q := range queries {
							r, err := mm.Query(ctx, q)
							if err == nil && !r.Answers.Equal(want[i]) {
								err = fmt.Errorf("query %d answers %v, want %v", i, r.Answers, want[i])
							}
							if err != nil {
								errs <- err
								return
							}
						}
						select {
						case <-stop:
							errs <- nil
							return
						default:
						}
					}
				}()
			}
			saved := filepath.Join(dir, "saved")
			for range 3 {
				if err := mm.Save(saved); err != nil {
					t.Errorf("Save: %v", err)
				}
			}
			close(stop)
			for range 2 {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}

			a, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(saved)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("the mapped save differs from the heap save it was restored from")
			}
			if got := mm.Method().SizeBytes(); got != resident {
				t.Errorf("the save moved the resident bytes from %d to %d: it materialized the index", resident, got)
			}
		})
	}
}

// TestMmapSaveRefusesDamagedPayload: a mapped open checks no bulk payload,
// so a byte flipped in the last section goes unseen until a save writes
// the section out. The save must refuse it rather than seal the damage
// under a fresh checksum.
func TestMmapSaveRefusesDamagedPayload(t *testing.T) {
	ctx := context.Background()
	for _, spec := range storageSpecs {
		t.Run(spec, func(t *testing.T) {
			ds := tinyDataset(t)
			dir := t.TempDir()
			path := filepath.Join(dir, "idx")
			if _, err := engine.Open(ctx, ds, engine.WithSpec(spec), engine.WithIndexPath(path)); err != nil {
				t.Fatalf("build open: %v", err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)-1] ^= 0x40
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			mm, err := engine.Open(ctx, ds, engine.WithSpec(spec+",storage=mmap"), engine.WithIndexPath(path))
			if err != nil {
				t.Fatalf("mmap open: %v", err)
			}
			if !mm.Restored() {
				t.Fatalf("mmap open rebuilt: it read the damaged payload")
			}
			if err := mm.Save(filepath.Join(dir, "saved")); !diskfmt.IsCorrupt(err) {
				t.Fatalf("Save of a damaged mapping: %v, want a corrupt-container error", err)
			}
		})
	}
}

func waitReady(t *testing.T, ready func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !ready() {
		if time.Now().After(deadline) {
			t.Fatalf("engine never became ready")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineReadiness: a heap open is ready immediately; an mmap open may
// warm in the background but must converge to ready.
func TestEngineReadiness(t *testing.T) {
	ctx := context.Background()
	ds := tinyDataset(t)
	path := filepath.Join(t.TempDir(), "idx")
	if _, err := engine.Open(ctx, ds, engine.WithSpec("grapes"), engine.WithIndexPath(path)); err != nil {
		t.Fatal(err)
	}
	heap, err := engine.Open(ctx, ds, engine.WithSpec("grapes:storage=heap"), engine.WithIndexPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if !heap.Ready() {
		t.Fatalf("heap engine not ready after open")
	}
	mm, err := engine.Open(ctx, ds, engine.WithSpec("grapes:storage=mmap"), engine.WithIndexPath(path))
	if err != nil {
		t.Fatal(err)
	}
	waitReady(t, mm.Ready)
}

// TestMmapOpenIsLazyColdStart is the cold-start smoke: an mmap open must
// not decode the index — resident bytes are zero until the first query
// faults postings in, and stay below the fully-decoded heap footprint.
func TestMmapOpenIsLazyColdStart(t *testing.T) {
	ctx := context.Background()
	ds := gen.Synthetic(gen.SynthConfig{
		NumGraphs: 120, MeanNodes: 18, MeanDensity: 0.18, NumLabels: 5, Seed: 7,
	})
	queries, err := workload.Generate(ds, workload.Config{NumQueries: 3, QueryEdges: 4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx")
	if _, err := engine.Open(ctx, ds, engine.WithSpec("grapes"), engine.WithIndexPath(path)); err != nil {
		t.Fatal(err)
	}
	heap, err := engine.Open(ctx, ds, engine.WithSpec("grapes:storage=heap"), engine.WithIndexPath(path))
	if err != nil {
		t.Fatal(err)
	}
	heapSize := heap.Method().SizeBytes()
	if heapSize <= 0 {
		t.Fatalf("heap SizeBytes = %d, want > 0", heapSize)
	}
	mm, err := engine.Open(ctx, ds, engine.WithSpec("grapes:storage=mmap"), engine.WithIndexPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if !mm.Restored() {
		t.Fatalf("mmap open rebuilt instead of restoring")
	}
	if got := mm.Method().SizeBytes(); got != 0 {
		t.Fatalf("mmap open materialized %d resident bytes before any query", got)
	}
	for i, q := range queries {
		rw, err := heap.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		rg, err := mm.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !rg.Answers.Equal(rw.Answers) {
			t.Errorf("query %d answers diverge between heap and mmap", i)
		}
	}
	grown := mm.Method().SizeBytes()
	if grown <= 0 {
		t.Fatalf("resident bytes did not grow after queries")
	}
	if grown >= heapSize {
		t.Fatalf("lazy resident %d >= full heap footprint %d; nothing stayed on disk", grown, heapSize)
	}
}

// opened is what TestCorruptV2FileRebuilds needs of an engine, flat or
// sharded.
type opened interface {
	Query(context.Context, *graph.Graph) (*core.QueryResult, error)
	Restored() bool
	Ready() bool
}

// TestCorruptV2FileRebuilds: a truncated or bit-flipped index file, or one
// in a format this binary never wrote (garbage, the v1 header-line files of
// earlier releases), must trigger a clean rebuild — never a decode panic or
// silently wrong answers — and leave a container behind.
func TestCorruptV2FileRebuilds(t *testing.T) {
	ctx := context.Background()
	ds := tinyDataset(t)
	queries := tinyQueries(t, ds)
	path := filepath.Join(t.TempDir(), "idx")
	if _, err := engine.Open(ctx, ds, engine.WithSpec("grapes"), engine.WithIndexPath(path)); err != nil {
		t.Fatal(err)
	}
	want := make([]graph.IDSet, len(queries))
	for i, q := range queries {
		var err error
		if want[i], err = core.BruteForceAnswers(ctx, ds, q); err != nil {
			t.Fatal(err)
		}
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Files are replaced by rename like every writer in the repo, never
	// truncated in place: the previous subtest's engine may still have the
	// old file mapped, and the mapping keeps its inode.
	plant := func(t *testing.T, path string, content []byte) {
		t.Helper()
		if err := engine.AtomicWriteFile(path, func(w io.Writer) error {
			_, err := w.Write(content)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	legacy := fmt.Sprintf("repro-index v1 epoch %d tag %x\n", ds.Epoch(), ds.VersionTag())

	cases := []struct {
		name    string
		corrupt func([]byte) []byte
		shards  int // 0 = flat engine.Open
		modes   []string
	}{
		// Both modes catch a truncated tail at open: the section table
		// points past the end of the file.
		{"truncated-tail", func(b []byte) []byte { return b[:len(b)*3/5] }, 0, []string{"heap", "mmap"}},
		// A payload bit-flip fails heap's eager CRC pass. (mmap defers bulk
		// payloads past the CRC by design, so it is not asserted here.)
		{"bit-flip", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x40
			return c
		}, 0, []string{"heap"}},
		{"garbage-header", func([]byte) []byte { return []byte("not an index at all") }, 0, []string{"heap", "mmap"}},
		// What Open wrote for a gob-era method: a stamped header line that
		// matches this very dataset, then a byte stream. No reader is kept.
		{"legacy-v1-header", func(b []byte) []byte { return append([]byte(legacy), b...) }, 0, []string{"heap", "mmap"}},
		// The sharded twin: v1 shard files under the v3 manifest that
		// endorsed them, every field of which matches this dataset.
		{"legacy-v1-shard", func(b []byte) []byte { return append([]byte("repro-shard v1 grapes\n"), b...) }, 2, []string{"heap", "mmap"}},
	}
	for _, tc := range cases {
		for _, mode := range tc.modes {
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				spec := fmt.Sprintf("grapes:storage=%s", mode)
				files := []string{path}
				open := func() (opened, error) {
					return engine.Open(ctx, ds, engine.WithSpec(spec), engine.WithIndexPath(path))
				}
				if tc.shards > 0 {
					base := filepath.Join(t.TempDir(), "sharded")
					plant(t, base, []byte(fmt.Sprintf("repro-shards v3\nshards %d\ngraphs %d\nepoch %d\ntag %x\nspec grapes\nformats v1,v1\n",
						tc.shards, ds.Len(), ds.Epoch(), ds.VersionTag())))
					files = files[:0]
					for i := range tc.shards {
						files = append(files, engine.ShardIndexPath(base, i))
					}
					open = func() (opened, error) {
						return engine.OpenSharded(ctx, ds, tc.shards, engine.WithSpec(spec), engine.WithIndexPath(base))
					}
				}
				for _, f := range files {
					plant(t, f, tc.corrupt(pristine))
				}
				eng, err := open()
				if err != nil {
					t.Fatalf("open over corrupt file: %v", err)
				}
				if eng.Restored() {
					t.Fatalf("engine trusted a corrupt index file")
				}
				for i, q := range queries {
					r, err := eng.Query(ctx, q)
					if err != nil {
						t.Fatalf("query %d after rebuild: %v", i, err)
					}
					if !r.Answers.Equal(want[i]) {
						t.Errorf("query %d answers wrong after rebuild", i)
					}
				}
				// The rebuild overwrote the corrupt file with a good one.
				for _, f := range files {
					r, err := diskfmt.Open(f, false)
					if err != nil {
						t.Fatalf("%s is not a container after the rebuild: %v", filepath.Base(f), err)
					}
					r.Close()
				}
				again, err := open()
				if err != nil {
					t.Fatal(err)
				}
				if !again.Restored() {
					t.Fatalf("rebuild did not overwrite the corrupt index")
				}
				// Let the mmap open's background warmer finish before the
				// next subtest replaces the file it is reading.
				waitReady(t, again.Ready)
			})
		}
	}
}
