package grapes

import (
	"bytes"
	"context"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/diskfmt"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/workload"
)

// randomLabelled returns a connected random graph on n vertices whose labels
// are drawn from alphabet.
func randomLabelled(rng *rand.Rand, n, extraEdges int, alphabet []graph.Label) *graph.Graph {
	g := graph.New(0)
	for range n {
		g.AddVertex(alphabet[rng.Intn(len(alphabet))])
	}
	for v := 1; v < n; v++ {
		g.MustAddEdge(int32(rng.Intn(v)), int32(v))
	}
	for range extraEdges {
		a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
		if a != b && !g.HasEdge(a, b) {
			g.MustAddEdge(a, b)
		}
	}
	return g
}

// saveAndMap writes ix to a container file and loads it back as a
// storage=mmap index over ds.
func saveAndMap(t *testing.T, ix *Index, ds *graph.Dataset) (*Index, *diskfmt.Reader) {
	t.Helper()
	w := diskfmt.NewWriter(ds.Epoch(), ds.VersionTag(), "grapes")
	if err := ix.SaveIndex(w); err != nil {
		t.Fatal(err)
	}
	return mapSections(t, w, ds)
}

// mapSections writes w to a file, maps it and loads a storage=mmap index.
func mapSections(t *testing.T, w *diskfmt.Writer, ds *graph.Dataset) (*Index, *diskfmt.Reader) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "grapes.idx")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := diskfmt.Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	mapped := New(Options{Storage: core.StorageMmap})
	if err := mapped.LoadIndex(r, ds); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mapped.Close() })
	return mapped, r
}

// TestResolvedOrderHeapMmap: both storage modes resolve a query to the
// same features in the same order — ascending posting cardinality, ties in
// key order.
func TestResolvedOrderHeapMmap(t *testing.T) {
	ds := gen.Synthetic(gen.SynthConfig{NumGraphs: 60, MeanNodes: 18, MeanDensity: 0.15, NumLabels: 5, Seed: 3})
	queries, err := workload.Generate(ds, workload.Config{NumQueries: 10, QueryEdges: 6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	heap := build(t, ds, Options{})
	mapped, _ := saveAndMap(t, heap, ds)
	keyOf := make(map[*posting]canon.Key, len(heap.features))
	for k, p := range heap.features {
		keyOf[p] = k
	}
	// The mapped directory holds the keys in ascending order.
	slotKeys := slices.Sorted(maps.Keys(heap.features))
	for i, q := range queries {
		qp := heap.Analyze(q).(*queryPaths)
		hf, err := heap.resolve(qp)
		if err != nil {
			t.Fatal(err)
		}
		mf, err := mapped.resolve(qp)
		if err != nil {
			t.Fatal(err)
		}
		if len(hf) == 0 || len(hf) != len(mf) {
			t.Fatalf("query %d: %d heap features, %d mapped", i, len(hf), len(mf))
		}
		for k := range hf {
			hk, mk := keyOf[hf[k].Post], slotKeys[mf[k].Slot]
			if hk != mk || hf[k].Count != mf[k].Count || !hf[k].Post.ids.Equal(mf[k].Post.ids) {
				t.Fatalf("query %d feature %d: heap %x×%d, mmap %x×%d", i, k, hk, hf[k].Count, mk, mf[k].Count)
			}
			if k > 0 {
				prev, cur := hf[k-1], hf[k]
				if len(prev.Post.ids) > len(cur.Post.ids) ||
					len(prev.Post.ids) == len(cur.Post.ids) && keyOf[prev.Post] >= keyOf[cur.Post] {
					t.Fatalf("query %d: features %d and %d out of (card, key) order", i, k-1, k)
				}
			}
		}
	}
}

// TestGrapesLazyConcurrentFirstTouch: eight goroutines query a freshly
// mapped index at once, so they race to decode the same postings and
// component tables first. Every goroutine gets the heap index's answers,
// and the resident-bytes estimate counts each decoded entry exactly once:
// as much as one serial pass over a fresh mapping decodes.
func TestGrapesLazyConcurrentFirstTouch(t *testing.T) {
	ctx := context.Background()
	ds := gen.Synthetic(gen.SynthConfig{NumGraphs: 80, MeanNodes: 20, MeanDensity: 0.12, NumLabels: 4, Seed: 9})
	queries, err := workload.Generate(ds, workload.Config{NumQueries: 12, QueryEdges: 5, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	heap := build(t, ds, Options{MaxPathLen: 3})
	want := make([]graph.IDSet, len(queries))
	for i, q := range queries {
		r, err := (&core.Processor{Method: heap, DS: ds, VerifyWorkers: 1}).QueryCtx(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r.Answers
	}
	mapped, _ := saveAndMap(t, heap, ds)
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, 8*len(queries))
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			proc := &core.Processor{Method: mapped, DS: ds, VerifyWorkers: 2}
			for i, q := range queries {
				r, err := proc.QueryCtx(ctx, q)
				if err != nil {
					errs <- err
					return
				}
				if !r.Answers.Equal(want[i]) {
					t.Errorf("query %d: mapped answers %v, heap %v", i, r.Answers, want[i])
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The same queries, asked once each of a fresh mapping, decode the
	// same entries.
	serial, _ := saveAndMap(t, heap, ds)
	proc := &core.Processor{Method: serial, DS: ds, VerifyWorkers: 2}
	for _, q := range queries {
		if _, err := proc.QueryCtx(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := mapped.SizeBytes(), serial.SizeBytes(); got == 0 || got != want {
		t.Fatalf("resident bytes %d after concurrent first touches, %d after serial ones", got, want)
	}
}
