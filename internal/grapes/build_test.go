package grapes

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/canon"
	"repro/internal/diskfmt"
	"repro/internal/features"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pathkey"
)

// referenceBuild is the definition Build must agree with, and the builder
// it replaced: every path visit is keyed through canon.PathKey into a map
// of per-graph locations, and each posting is then sorted by graph id.
func referenceBuild(ds *graph.Dataset, opts Options) *Index {
	ix := New(opts)
	ix.comps = make([][]int32, ds.Len())
	ix.compCount = make([]int, ds.Len())
	byKey := make(map[canon.Key]map[graph.ID]*location)
	var labels []graph.Label
	for i, g := range ds.Graphs {
		if !ds.Alive(graph.ID(i)) {
			continue
		}
		id := g.ID()
		features.VisitPaths(g, ix.opts.MaxPathLen, func(vs []int32) bool {
			labels = features.PathLabels(g, vs, labels)
			key := canon.PathKey(labels)
			byGraph := byKey[key]
			if byGraph == nil {
				byGraph = make(map[graph.ID]*location)
				byKey[key] = byGraph
			}
			loc := byGraph[id]
			if loc == nil {
				loc = &location{}
				byGraph[id] = loc
			}
			loc.count++
			if i, found := slices.BinarySearch(loc.starts, vs[0]); !found {
				loc.starts = slices.Insert(loc.starts, i, vs[0])
			}
			return true
		})
		ix.comps[id] = make([]int32, g.NumVertices())
		ix.compCount[id] = componentTable(g, ix.comps[id])
	}
	ix.features = make(map[canon.Key]*posting, len(byKey))
	for key, byGraph := range byKey {
		p := &posting{}
		for id := range byGraph {
			p.ids = append(p.ids, id)
		}
		sort.Slice(p.ids, func(a, b int) bool { return p.ids[a] < p.ids[b] })
		for _, id := range p.ids {
			p.locs = append(p.locs, *byGraph[id])
		}
		ix.features[key] = p
	}
	ix.built = true
	return ix
}

// sections returns the container bytes SaveIndex writes for ix.
func sections(t *testing.T, ix *Index) []byte {
	t.Helper()
	w := diskfmt.NewWriter(0, 0, "grapes")
	if err := ix.SaveIndex(w); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// samePostings fails t unless got holds exactly want's postings.
func samePostings(t *testing.T, what string, got, want *Index) {
	t.Helper()
	if len(got.features) != len(want.features) {
		t.Fatalf("%s: %d features, reference has %d", what, len(got.features), len(want.features))
	}
	for key, wp := range want.features {
		gp := got.features[key]
		if gp == nil {
			t.Fatalf("%s: feature %x missing", what, key)
		}
		if !slices.Equal(gp.ids, wp.ids) {
			t.Fatalf("%s: feature %x ids %v, reference %v", what, key, gp.ids, wp.ids)
		}
		for i := range wp.locs {
			g, w := gp.locs[i], wp.locs[i]
			if g.count != w.count || !slices.Equal(g.starts, w.starts) {
				t.Fatalf("%s: feature %x graph %d: count %d starts %v, reference %d %v",
					what, key, wp.ids[i], g.count, g.starts, w.count, w.starts)
			}
		}
	}
}

// referenceDataset returns random graphs over alphabet, among them an empty
// graph, single vertices and a disconnected graph, with some slots
// tombstoned.
func referenceDataset(rng *rand.Rand, alphabet []graph.Label) *graph.Dataset {
	ds := graph.NewDataset("reference")
	for range 14 {
		ds.Add(randomLabelled(rng, 3+rng.Intn(12), rng.Intn(8), alphabet))
	}
	ds.Add(graph.New(0))
	ds.Add(pathGraph(alphabet[0]))
	ds.Add(pathGraph(alphabet[len(alphabet)-1]))
	split := randomLabelled(rng, 6, 2, alphabet)
	base := int32(split.NumVertices())
	for v := range base {
		split.AddVertex(alphabet[rng.Intn(len(alphabet))])
		if v > 0 {
			split.MustAddEdge(base+v-1, base+v)
		}
	}
	ds.Add(split)
	for range 3 {
		ds.Remove(graph.ID(rng.Intn(ds.Len())))
	}
	return ds
}

// TestBuildMatchesReference is the differential test of the sort-based
// build: over label values whose byte order differs from their numeric
// order, negative labels, an alphabet wide enough to need multi-word
// records, and graphs without edges, for MaxPathLen 1–6 and several worker counts, Build's postings
// (ids, counts, starts) and saved sections equal the map builder's.
func TestBuildMatchesReference(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	wide := make([]graph.Label, 600)
	for i := range wide {
		wide[i] = graph.Label(i*257 - 300)
	}
	datasets := map[string]*graph.Dataset{
		"small":      referenceDataset(rng, []graph.Label{0, 1, 2}),
		"byte-order": referenceDataset(rng, []graph.Label{1, 256, 65536, 1 << 24, -7, 0}),
		"wide":       referenceDataset(rng, wide),
	}
	// 600 distinct labels take 10-bit ranks: keys of 6 edges need two words.
	tree := graph.New(0)
	for _, l := range wide {
		tree.AddVertex(l)
	}
	for v := 1; v < len(wide); v++ {
		tree.MustAddEdge(int32(rng.Intn(v)), int32(v))
	}
	datasets["wide"].Add(tree)
	// Without edges every key is one rank, and the sort's lowest digit is
	// zero in every record.
	edgeless := graph.NewDataset("edgeless")
	for _, l := range []graph.Label{3, 1, 3, -2} {
		edgeless.Add(pathGraph(l))
	}
	datasets["edgeless"] = edgeless

	multiWord := false
	for name, ds := range datasets {
		var alphabet []graph.Label
		for i, g := range ds.Graphs {
			if ds.Alive(graph.ID(i)) {
				alphabet = append(alphabet, g.Labels()...)
			}
		}
		for maxLen := 1; maxLen <= 6; maxLen++ {
			var pk pathkey.Packing
			pk.Reset(alphabet, maxLen)
			multiWord = multiWord || pk.Words() > 1
			for _, workers := range []int{1, 3, 8} {
				opts := Options{MaxPathLen: maxLen, Workers: workers}
				what := fmt.Sprintf("%s, MaxPathLen %d, %d workers", name, maxLen, workers)
				ix := New(opts)
				if err := ix.Build(ctx, ds); err != nil {
					t.Fatal(err)
				}
				ref := referenceBuild(ds, opts)
				samePostings(t, what, ix, ref)
				if !bytes.Equal(sections(t, ix), sections(t, ref)) {
					t.Fatalf("%s: saved sections differ from the reference's", what)
				}
			}
		}
	}
	if !multiWord {
		t.Fatalf("no dataset needed multi-word records")
	}
}

// TestMaintainedEqualsRebuilt: an index built once and then maintained
// through random adds and removes — added graphs bring labels the build
// never saw — saves to the same bytes as a fresh Build over the mutated
// dataset, at 4 labels and at the 10 of the filter-heavy shape, where a
// graph's paths reach few of the index's postings. Removals re-walk the
// removed graph's own paths; removing a slot the index never held is a
// no-op.
func TestMaintainedEqualsRebuilt(t *testing.T) {
	for _, tc := range []struct {
		labels   int
		alphabet []graph.Label
	}{
		{4, []graph.Label{0, 1, 2, 3, 7, 256, -5}},
		{10, []graph.Label{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 256, -5}},
	} {
		t.Run(fmt.Sprintf("labels=%d", tc.labels), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			ds := gen.Synthetic(gen.SynthConfig{NumGraphs: 30, MeanNodes: 12, MeanDensity: 0.2, NumLabels: tc.labels, Seed: 6})
			opts := Options{MaxPathLen: 3, Workers: 3}
			ix := build(t, ds, opts)
			for range 40 {
				if rng.Intn(2) == 0 {
					g := randomLabelled(rng, 2+rng.Intn(10), rng.Intn(5), tc.alphabet)
					ds.Add(g)
					if err := ix.AddGraphToIndex(g); err != nil {
						t.Fatal(err)
					}
					continue
				}
				id := graph.ID(rng.Intn(ds.Len()))
				if !ds.Remove(id) {
					continue
				}
				if err := ix.RemoveGraphFromIndex(id); err != nil {
					t.Fatal(err)
				}
			}
			for _, id := range []graph.ID{-1, graph.ID(ds.Len()), graph.ID(ds.Len() + 100)} {
				if err := ix.RemoveGraphFromIndex(id); err != nil {
					t.Fatalf("removing slot %d the index never held: %v", id, err)
				}
			}
			fresh := build(t, ds, opts)
			samePostings(t, "maintained", ix, fresh)
			if !bytes.Equal(sections(t, ix), sections(t, fresh)) {
				t.Fatalf("maintained index saves other bytes than a rebuild")
			}
		})
	}
}

// TestBuildAllocsFollowOutput: Build allocates in proportion to what it
// outputs — features and graphs — not to the path visits it records. The
// map builder it replaced made about three allocations per visit: some
// 790k here, for 4.8k features.
func TestBuildAllocsFollowOutput(t *testing.T) {
	ctx := context.Background()
	ds := gen.Synthetic(gen.SynthConfig{NumGraphs: 200, MeanNodes: 30, MeanDensity: 0.08, NumLabels: 6, Seed: 1})
	opts := Options{Workers: 2}
	ix := build(t, ds, opts)
	bound := 8 * (ix.NumFeatures() + ds.Len())
	allocs := testing.AllocsPerRun(3, func() {
		if err := New(opts).Build(ctx, ds); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > float64(bound) {
		t.Fatalf("Build made %.0f allocations, above 8·(%d features + %d graphs) = %d",
			allocs, ix.NumFeatures(), ds.Len(), bound)
	}
	t.Logf("%.0f allocations for %d features and %d graphs", allocs, ix.NumFeatures(), ds.Len())
}

// cancelAfter is a context whose Err turns to context.Canceled after n
// calls.
type cancelAfter struct {
	context.Context
	n atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestBuildCancelledInSort: Build looks at its context once per dataset
// slot while recording, and again inside the record sort and the posting
// pass, so a budget that runs out after the recording phase still stops
// the build.
func TestBuildCancelledInSort(t *testing.T) {
	ds := gen.Synthetic(gen.SynthConfig{NumGraphs: 40, MeanNodes: 12, MeanDensity: 0.2, NumLabels: 4, Seed: 3})
	for _, workers := range []int{1, 3} {
		ctx := &cancelAfter{Context: context.Background()}
		ctx.n.Store(int64(ds.Len()))
		err := New(Options{Workers: workers}).Build(ctx, ds)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%d workers: Build returned %v after its context was cancelled, want context.Canceled", workers, err)
		}
	}
}
