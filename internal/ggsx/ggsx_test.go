package ggsx

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/diskfmt"
	"repro/internal/features"
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

// twice returns two disjoint copies of q.
func twice(q *graph.Graph) *graph.Graph {
	g := graph.New(0)
	for range 2 {
		base := int32(g.NumVertices())
		for v := range int32(q.NumVertices()) {
			g.AddVertex(q.Label(v))
		}
		for _, e := range q.Edges() {
			g.MustAddEdge(base+e[0], base+e[1])
		}
	}
	return g
}

func build(t *testing.T, ds *graph.Dataset) *Index {
	t.Helper()
	ix := New(Options{})
	if err := ix.Build(context.Background(), ds); err != nil {
		t.Fatalf("Build: %v", err)
	}
	return ix
}

func TestCandidatesBasic(t *testing.T) {
	ds := graph.NewDataset("t")
	ds.Add(pathGraph(1, 2, 3))
	ds.Add(pathGraph(3, 2, 1))
	ds.Add(pathGraph(4, 5))
	ix := build(t, ds)
	cands, err := plans.Candidates(ix, ds, pathGraph(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Paths are direction-symmetric: both graphs 0 and 1 contain 1-2.
	if !cands.Equal(graph.IDSet{0, 1}) {
		t.Errorf("candidates = %v, want [0 1]", cands)
	}
	cands, _ = plans.Candidates(ix, ds, pathGraph(9))
	if len(cands) != 0 {
		t.Errorf("unknown label produced candidates: %v", cands)
	}
}

func TestOccurrenceCountFiltering(t *testing.T) {
	ds := graph.NewDataset("t")
	ds.Add(pathGraph(1, 1))    // one 1-1 edge
	ds.Add(pathGraph(1, 1, 1)) // two 1-1 edges
	ix := build(t, ds)
	cands, err := plans.Candidates(ix, ds, pathGraph(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !cands.Equal(graph.IDSet{1}) {
		t.Errorf("count filtering: candidates = %v, want [1]", cands)
	}

	// Graph 0 holds [1 2] and [2] twice but [1] once; [1 2] drives, and the
	// count of [1], probed after it, must still reject.
	ds = graph.NewDataset("t")
	ds.Add(pathGraph(2, 1, 2))
	ds.Add(pathGraph(1))
	ix = build(t, ds)
	if cands, err = plans.Candidates(ix, ds, twice(pathGraph(1, 2))); err != nil {
		t.Fatal(err)
	}
	if len(cands) != 0 {
		t.Errorf("count filtering after the driver: candidates = %v, want none", cands)
	}
}

func TestNoFalseNegativesRandom(t *testing.T) {
	ds := gen.Synthetic(gen.SynthConfig{NumGraphs: 25, MeanNodes: 14, MeanDensity: 0.2, NumLabels: 3, Seed: 6})
	ix := build(t, ds)
	qs, err := workload.Generate(ds, workload.Config{NumQueries: 10, QueryEdges: 5, Seed: 7})
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

func TestDirectoryShape(t *testing.T) {
	ds := graph.NewDataset("t")
	ds.Add(pathGraph(1, 2))
	ix := build(t, ds)
	// Paths: [1], [2], and [1 2] with its reverse [2 1] under one key.
	if got := ix.NumFeatures(); got != 3 {
		t.Errorf("NumFeatures = %d, want 3", got)
	}
	if ix.SizeBytes() <= 0 {
		t.Errorf("SizeBytes = %d", ix.SizeBytes())
	}
}

func TestUnbuiltAndEmpty(t *testing.T) {
	ix := New(Options{})
	if _, err := plans.Candidates(ix, nil, pathGraph(1)); err == nil {
		t.Errorf("want error before Build")
	}
	empty := graph.NewDataset("e")
	built := build(t, empty)
	cands, err := plans.Candidates(built, empty, pathGraph(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 0 {
		t.Errorf("empty dataset produced candidates")
	}
}

// pathKey renders a label path as a reference map key.
func pathKey(labels []graph.Label) string { return fmt.Sprint(labels) }

// refPaths is the naive reference of what a GGSX index holds for g: every
// label path of at most maxLen edges, by visit count.
func refPaths(g *graph.Graph, maxLen int) map[string]int32 {
	m := make(map[string]int32)
	var buf []graph.Label
	features.VisitPaths(g, maxLen, func(vs []int32) bool {
		buf = features.PathLabels(g, vs, buf)
		m[pathKey(buf)]++
		return true
	})
	return m
}

// reference is the naive model of a GGSX index over a dataset: refPaths of
// every graph, by graph id.
type reference struct {
	maxLen int
	paths  map[graph.ID]map[string]int32
}

func (r *reference) of(g *graph.Graph) map[string]int32 {
	m, ok := r.paths[g.ID()]
	if !ok {
		m = refPaths(g, r.maxLen)
		r.paths[g.ID()] = m
	}
	return m
}

// candidates is the naive filter: the live graphs whose count of every
// query path dominates the query's.
func (r *reference) candidates(ds *graph.Dataset, q *graph.Graph) graph.IDSet {
	qp := refPaths(q, r.maxLen)
	out := graph.IDSet{}
	for _, g := range ds.Graphs {
		if !ds.Alive(g.ID()) {
			continue
		}
		gp := r.of(g)
		ok := true
		for k, c := range qp {
			if gp[k] < c {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, g.ID())
		}
	}
	return out
}

// eachPosting calls fn with every indexed key and its posting, on the heap
// or decoded from the mapped directory.
func eachPosting(t *testing.T, ix *Index, fn func(key canon.Key, p *posting)) {
	t.Helper()
	all := ix.features
	if ix.lazy != nil {
		var err error
		if all, err = ix.lazy.All(); err != nil {
			t.Fatal(err)
		}
	}
	for key, p := range all {
		fn(key, p)
	}
}

// canonPaths is refPaths of g summed per canonical key: a path and its
// reverse, by canon.PathKey.
func canonPaths(g *graph.Graph, maxLen int) map[canon.Key]int32 {
	m := make(map[canon.Key]int32)
	var buf []graph.Label
	features.VisitPaths(g, maxLen, func(vs []int32) bool {
		buf = features.PathLabels(g, vs, buf)
		m[canon.PathKey(buf)]++
		return true
	})
	return m
}

// checkIndex compares every indexed posting with the reference counts of
// the live graphs, checks that the directory holds one key per path and
// its reverse — the canonical one — and checks each rank bitmap against
// its ids.
func checkIndex(t *testing.T, stage string, ix *Index, ds *graph.Dataset) (st bitmapStats) {
	t.Helper()
	want := make(map[canon.Key]map[graph.ID]int32)
	for _, g := range ds.Graphs {
		if !ds.Alive(g.ID()) {
			continue
		}
		for k, c := range canonPaths(g, ix.opts.MaxPathLen) {
			if want[k] == nil {
				want[k] = make(map[graph.ID]int32)
			}
			want[k][g.ID()] = c
		}
	}
	n := 0
	eachPosting(t, ix, func(k canon.Key, p *posting) {
		n++
		labels := make([]graph.Label, len(k)/4)
		for i := range labels {
			labels[i] = graph.Label(binary.LittleEndian.Uint32([]byte(k[4*i:])))
		}
		if canon.PathKey(labels) != k {
			t.Errorf("%s: the directory holds the non-canonical key %v", stage, labels)
		}
		if len(p.ids) != len(want[k]) {
			t.Errorf("%s: path %v holds %d graphs, want %d", stage, labels, len(p.ids), len(want[k]))
			return
		}
		for i, id := range p.ids {
			if c := want[k][id]; p.counts[i] != c {
				t.Errorf("%s: path %v graph %d count %d, want %d", stage, labels, id, p.counts[i], c)
			}
		}
		if p.words == nil {
			if n := len(p.ids); n > 0 && 3*(int(p.ids[n-1])/64+1) <= n {
				st.grownSparse++
			}
			return
		}
		st.dense++
		st.maxWords = max(st.maxWords, len(p.words))
		checkBitmap(t, fmt.Sprintf("%s: path %v", stage, labels), p)
	})
	if n != len(want) {
		t.Errorf("%s: index holds %d paths, reference %d", stage, n, len(want))
	}
	return st
}

// checkBitmap checks a dense posting's rank bitmap against its ids.
func checkBitmap(t *testing.T, what string, p *posting) {
	t.Helper()
	var r int32
	for w, x := range p.words {
		if p.rank[w] != r {
			t.Errorf("%s: rank[%d] = %d, want %d", what, w, p.rank[w], r)
		}
		r += int32(bits.OnesCount64(x))
	}
	if int(r) != len(p.ids) {
		t.Errorf("%s: bitmap holds %d ids, posting %d", what, r, len(p.ids))
	}
	for i, id := range p.ids {
		if j, ok := p.rankOf(id); !ok || j != i {
			t.Errorf("%s: probe of graph %d = (%d, %v), want (%d, true)", what, id, j, ok, i)
		}
	}
}

// TestPostingBitmapMaintenance: adds and removes in any id order — before,
// inside and past the bitmap's span — keep a dense posting's ids, counts
// and rank bitmap equal to a plain count map.
func TestPostingBitmapMaintenance(t *testing.T) {
	want := map[graph.ID]int32{}
	p := &posting{}
	for id := graph.ID(0); id < 300; id += 2 {
		p.ids = append(p.ids, id)
		p.counts = append(p.counts, 1)
		want[id] = 1
	}
	p.index()
	if p.words == nil {
		t.Fatalf("a posting holding every other id got no bitmap")
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for step := range 2000 {
		id := graph.ID(rng.IntN(450))
		if rng.IntN(3) == 0 {
			p.remove(id)
			delete(want, id)
		} else {
			want[id]++
			p.add(id, want[id])
		}
		if len(p.ids) != len(want) || !slices.IsSorted(p.ids) {
			t.Fatalf("step %d: posting holds %d sorted=%v ids, want %d", step, len(p.ids), slices.IsSorted(p.ids), len(want))
		}
		for i, id := range p.ids {
			if p.counts[i] != want[id] {
				t.Fatalf("step %d: graph %d count %d, want %d", step, id, p.counts[i], want[id])
			}
		}
		checkBitmap(t, fmt.Sprintf("step %d", step), p)
		if t.Failed() {
			t.FailNow()
		}
	}
}

// bitmapStats counts the postings with a rank bitmap, the widest bitmap in
// words, and the postings without one whose ids would now earn it.
type bitmapStats struct{ dense, maxWords, grownSparse int }

// reverseKey is the key of the reversed path of key.
func reverseKey(key string) string {
	fields := strings.Fields(strings.Trim(key, "[]"))
	slices.Reverse(fields)
	return "[" + strings.Join(fields, " ") + "]"
}

// reload returns ix as storage restores it from its saved file: decoded to
// the heap, or mapped.
func reload(t *testing.T, ix *Index, ds *graph.Dataset, storage string) *Index {
	t.Helper()
	w := diskfmt.NewWriter(0, 0, "")
	if err := ix.SaveIndex(w); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ggsx.idx")
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
	r, err := diskfmt.Open(path, storage == core.StorageMmap)
	if err != nil {
		t.Fatal(err)
	}
	out := New(Options{Storage: storage})
	if err := out.LoadIndex(r, ds); err != nil {
		t.Fatal(err)
	}
	if storage == core.StorageHeap {
		r.Close()
	} else {
		t.Cleanup(func() { out.Close() })
	}
	return out
}

// TestCandidatesMatchReference is the GGSX filter against the naive one,
// on a few-label dataset whose postings are mostly dense and a many-label
// one whose postings are mostly sparse, restored to the heap and mapped,
// then mutated: graphs added past every bitmap's span, among them copies
// of one graph that grow a sparse posting past the density a bitmap needs,
// and members of dense postings removed.
func TestCandidatesMatchReference(t *testing.T) {
	for _, tc := range []struct {
		name   string
		labels int
	}{{"dense", 5}, {"sparse", 40}} {
		for _, storage := range []string{core.StorageHeap, core.StorageMmap} {
			t.Run(tc.name+"/"+storage, func(t *testing.T) {
				cfg := gen.SynthConfig{NumGraphs: 150, MeanNodes: 14, MeanDensity: 0.18, NumLabels: tc.labels, Seed: 31}
				ds := gen.Synthetic(cfg)
				cfg.Seed = 32
				more := gen.Synthetic(cfg)
				var queries []*graph.Graph
				for i, edges := range []int{1, 3, 6} {
					qs, err := workload.Generate(ds, workload.Config{NumQueries: 8, QueryEdges: edges, Seed: int64(40 + i)})
					if err != nil {
						t.Fatal(err)
					}
					queries = append(queries, qs...)
				}
				// Two disjoint copies of a query need every path twice.
				for _, q := range queries[:16] {
					queries = append(queries, twice(q))
				}
				queries = append(queries, pathGraph(0), pathGraph(graph.Label(tc.labels+5)))
				for i, q := range queries {
					// One constraint per path and its reverse.
					classes := map[string]bool{}
					for k := range refPaths(q, DefaultMaxPathLen) {
						classes[min(k, reverseKey(k))] = true
					}
					if got := New(Options{}).Analyze(q).(*queryPaths).Len(); got != len(classes) {
						t.Errorf("query %d resolves %d keys, want one per path direction pair, %d", i, got, len(classes))
					}
				}
				ix := reload(t, build(t, ds), ds, storage)
				ref := &reference{maxLen: ix.opts.MaxPathLen, paths: make(map[graph.ID]map[string]int32)}

				check := func(stage string) bitmapStats {
					t.Helper()
					for i, q := range queries {
						got, err := plans.Candidates(ix, ds, q)
						if err != nil {
							t.Fatal(err)
						}
						if want := ref.candidates(ds, q); !got.Equal(want) {
							t.Errorf("%s: query %d candidates %v, want %v", stage, i, got, want)
						}
					}
					return checkIndex(t, stage, ix, ds)
				}
				built := check("restored")
				if tc.name == "dense" && built.dense == 0 {
					t.Fatalf("no posting has a rank bitmap on the few-label dataset")
				}
				// A graph holding a path whose posting has no bitmap.
				holder := graph.ID(-1)
				eachPosting(t, ix, func(_ canon.Key, p *posting) {
					if holder < 0 && p.words == nil && len(p.ids) > 0 {
						holder = p.ids[0]
					}
				})
				if holder < 0 {
					t.Fatalf("every posting has a rank bitmap")
				}

				span := ds.Len()
				adds := more.Graphs
				for range 60 {
					adds = append(adds, ds.Graphs[holder].ShallowWithID(0))
				}
				for _, g := range adds {
					if err := ix.AddGraphToIndex(ds.Graphs[ds.Add(g)]); err != nil {
						t.Fatal(err)
					}
				}
				for id := 0; id < span; id += 3 {
					ds.Remove(graph.ID(id))
					if err := ix.RemoveGraphFromIndex(graph.ID(id)); err != nil {
						t.Fatal(err)
					}
				}
				mutated := check("mutated")
				t.Logf("postings with a bitmap: %d restored, %d mutated", built.dense, mutated.dense)
				if mutated.grownSparse == 0 {
					t.Errorf("no posting without a bitmap grew dense")
				}
				if tc.name == "dense" && mutated.maxWords <= built.maxWords {
					t.Errorf("the widest bitmap went from %d to %d words; adds past the span must grow it", built.maxWords, mutated.maxWords)
				}
			})
		}
	}
}

func TestMaxPathLenOption(t *testing.T) {
	ds := graph.NewDataset("t")
	ds.Add(pathGraph(1, 2, 3, 4, 5, 6))
	short := New(Options{MaxPathLen: 2})
	if err := short.Build(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	long := New(Options{MaxPathLen: 5})
	if err := long.Build(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	if short.NumFeatures() >= long.NumFeatures() {
		t.Errorf("longer path limit should index more paths: %d vs %d", short.NumFeatures(), long.NumFeatures())
	}
}

// TestLazyConcurrentQueries: goroutines querying one mapped index at once
// decode its postings concurrently, search the mapped directory without a
// lock, and must all agree with the heap index.
func TestLazyConcurrentQueries(t *testing.T) {
	ds := gen.Synthetic(gen.SynthConfig{NumGraphs: 120, MeanNodes: 14, MeanDensity: 0.18, NumLabels: 5, Seed: 51})
	queries, err := workload.Generate(ds, workload.Config{NumQueries: 16, QueryEdges: 4, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	heap := build(t, ds)
	mapped := reload(t, heap, ds, core.StorageMmap)
	want := make([]graph.IDSet, len(queries))
	for i, q := range queries {
		if want[i], err = plans.Candidates(heap, ds, q); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range queries {
				i := (k + 4*w) % len(queries)
				got, err := plans.Candidates(mapped, ds, queries[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !got.Equal(want[i]) {
					t.Errorf("query %d: mapped candidates %v, heap %v", i, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
