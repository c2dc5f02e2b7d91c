package grapes

import (
	"bytes"
	"context"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/diskfmt"
	"repro/internal/features"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/workload"
)

// referencePaths is the definition extractQueryPaths must agree with: every
// path visit keyed through canon.PathKey and counted in a map.
func referencePaths(q *graph.Graph, maxPathLen int) map[canon.Key]int32 {
	ref := make(map[canon.Key]int32)
	var labels []graph.Label
	features.VisitPaths(q, maxPathLen, func(vs []int32) bool {
		labels = features.PathLabels(q, vs, labels)
		ref[canon.PathKey(labels)]++
		return true
	})
	return ref
}

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

// TestQueryPathsMatchReference is the differential test of the packed
// extraction: for random graphs — palindromic label paths, label values
// whose byte order differs from their numeric order, negative labels, and
// alphabets wide enough to need multi-word records — and MaxPathLen 1–6,
// the keys and counts equal the map built from canon.PathKey, and the keys
// come out strictly ascending.
func TestQueryPathsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	wide := make([]graph.Label, 600)
	for i := range wide {
		wide[i] = graph.Label(i*257 - 300)
	}
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"palindrome", pathGraph(1, 2, 3, 2, 1)},
		{"uniform", pathGraph(4, 4, 4, 4, 4, 4, 4)},
		{"even-palindrome", pathGraph(5, 6, 6, 5)},
		{"single-vertex", pathGraph(9)},
		{"byte-order", pathGraph(1, 256, 1, 65536, -1, 256)},
	}
	distinctWide := graph.New(0) // 600 distinct labels: 10-bit ranks, two words past 5 edges
	for _, l := range wide {
		distinctWide.AddVertex(l)
	}
	for v := 1; v < len(wide); v++ {
		distinctWide.MustAddEdge(int32(rng.Intn(v)), int32(v))
	}
	cases = append(cases, struct {
		name string
		g    *graph.Graph
	}{"distinct-wide", distinctWide})
	for i := range 30 {
		alphabet := []graph.Label{0, 1, 2}
		switch i % 3 {
		case 1:
			alphabet = []graph.Label{1, 256, 65536, 1 << 24, -7, 0}
		case 2:
			alphabet = wide
		}
		cases = append(cases, struct {
			name string
			g    *graph.Graph
		}{"random", randomLabelled(rng, 3+rng.Intn(14), rng.Intn(10), alphabet)})
	}
	multiWord := false
	for _, tc := range cases {
		for maxLen := 1; maxLen <= 6; maxLen++ {
			ref := referencePaths(tc.g, maxLen)
			qp := extractQueryPaths(tc.g, maxLen)
			if len(qp.counts) != len(ref) {
				t.Fatalf("%s, MaxPathLen %d: %d distinct keys, reference has %d", tc.name, maxLen, len(qp.counts), len(ref))
			}
			for i := range qp.counts {
				key := qp.key(i)
				if i > 0 && qp.key(i-1) >= key {
					t.Fatalf("%s, MaxPathLen %d: key %d not above key %d", tc.name, maxLen, i, i-1)
				}
				if want, ok := ref[canon.Key(key)]; !ok || want != qp.counts[i] {
					t.Fatalf("%s, MaxPathLen %d: key %x counted %d, reference %d (present %v)", tc.name, maxLen, key, qp.counts[i], want, ok)
				}
			}
			distinct := len(slices.Compact(slices.Sorted(slices.Values(tc.g.Labels()))))
			multiWord = multiWord || bits.Len(uint(distinct))*(maxLen+1) > 64
		}
	}
	if !multiWord {
		t.Fatalf("no case needed multi-word records")
	}
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
	for i, q := range queries {
		qp := extractQueryPaths(q, heap.opts.MaxPathLen)
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
			hk, mk := keyOf[hf[k].post], canon.Key(mapped.lazy.keyAt(int(mf[k].slot)))
			if hk != mk || hf[k].count != mf[k].count || !hf[k].post.ids.Equal(mf[k].post.ids) {
				t.Fatalf("query %d feature %d: heap %x×%d, mmap %x×%d", i, k, hk, hf[k].count, mk, mf[k].count)
			}
			if k > 0 {
				prev, cur := hf[k-1], hf[k]
				if len(prev.post.ids) > len(cur.post.ids) ||
					len(prev.post.ids) == len(cur.post.ids) && keyOf[prev.post] >= keyOf[cur.post] {
					t.Fatalf("query %d: features %d and %d out of (card, key) order", i, k-1, k)
				}
			}
		}
	}
}

// TestGrapesLazyConcurrentFirstTouch: eight goroutines query a freshly
// mapped index at once, so they race to decode the same postings and
// component tables first. Every goroutine gets the heap index's answers,
// and the resident-bytes estimate counts each decoded entry exactly once.
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
	lz := mapped.lazy
	var decoded int64
	for i := range lz.postings {
		if p := lz.postings[i].Load(); p != nil {
			decoded += p.residentBytes()
		}
	}
	for i := range lz.comps {
		if c := lz.comps[i].Load(); c != nil {
			decoded += int64(len(*c)) * 4
		}
	}
	if decoded == 0 || mapped.SizeBytes() != decoded {
		t.Fatalf("resident bytes %d, the decoded entries hold %d", mapped.SizeBytes(), decoded)
	}
}
