// Package treedelta implements Tree+Δ (Zhao, Yu, Yu, VLDB 2007): the index
// initially holds only frequent tree-structured features (mined with the
// trees-only gSpan restriction) in a hash table. During query processing,
// the query's subtrees are enumerated and their postings intersected. In
// addition, simple cycles of query graphs — extended by adjacent edges — are
// evaluated as Δ (non-tree) features: those appearing in enough queries and
// found sufficiently discriminative against the tree-based candidate set are
// added to the index on the fly and used like tree features by subsequent
// queries.
//
// Tree+Δ is one of the six indexed subgraph query processing methods
// compared in the reproduced paper (Katsarou, Ntarmos, Triantafillou,
// PVLDB 2015); register.go exposes it to the engine registry as
// "treedelta" (alias "tree+delta").
package treedelta

import (
	"context"
	"sort"
	"sync"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/mining"
	"repro/internal/subiso"
)

// Defaults from §4.1 of the paper.
const (
	DefaultMaxFeatureSize = 10
	DefaultSupportRatio   = 0.1
	// DefaultDiscriminativeRatio is Tree+Δ's threshold (paper: 0.1): a Δ
	// feature is discriminative when its posting prunes at least this
	// fraction of the tree-based candidate set.
	DefaultDiscriminativeRatio = 0.1
	// DefaultQuerySupportToAdd is the fraction of processed queries that
	// must contain a Δ structure before it is admitted to the index
	// (paper: 0.8).
	DefaultQuerySupportToAdd = 0.8
	// DefaultMaxCycleLen bounds the simple cycles considered as Δ seeds.
	DefaultMaxCycleLen = 6
	// DefaultFragmentBudget caps query subtree enumeration.
	DefaultFragmentBudget = 20000
)

// Options configures a Tree+Δ index.
type Options struct {
	MaxFeatureSize      int
	SupportRatio        float64
	DiscriminativeRatio float64
	QuerySupportToAdd   float64
	MaxCycleLen         int
	FragmentBudget      int
	MaxPatterns         int
}

func (o *Options) fill() {
	if o.MaxFeatureSize <= 0 {
		o.MaxFeatureSize = DefaultMaxFeatureSize
	}
	if o.SupportRatio <= 0 {
		o.SupportRatio = DefaultSupportRatio
	}
	if o.DiscriminativeRatio <= 0 {
		o.DiscriminativeRatio = DefaultDiscriminativeRatio
	}
	if o.QuerySupportToAdd <= 0 {
		o.QuerySupportToAdd = DefaultQuerySupportToAdd
	}
	if o.MaxCycleLen <= 0 {
		o.MaxCycleLen = DefaultMaxCycleLen
	}
	if o.FragmentBudget <= 0 {
		o.FragmentBudget = DefaultFragmentBudget
	}
}

// Index is a built Tree+Δ index. Create with New, then Build. Query
// processing mutates the Δ part of the index and is serialized internally.
type Index struct {
	opts Options
	// graphs holds the graph in each slot the index covers, nil for a
	// tombstoned one. Build and LoadIndex take them from their dataset, and
	// maintenance keeps them in step with the live one, so Δ admission
	// always sweeps the live graphs — never a dataset view frozen at load.
	graphs []*graph.Graph

	trees canon.Postings // frequent tree features
	match canon.Matcher

	mu      sync.Mutex
	deltas  canon.Postings    // admitted Δ features (full postings)
	seen    map[canon.Key]int // Δ candidates: queries containing them
	queries int               // queries processed
	protos  map[canon.Key]*graph.Graph

	built bool
}

// New returns an unbuilt Tree+Δ index.
func New(opts Options) *Index {
	opts.fill()
	return &Index{opts: opts}
}

// Name implements core.Method.
func (ix *Index) Name() string { return "Tree+Delta" }

// Build implements core.Method: trees-only gSpan mining; every frequent tree
// is indexed (Tree+Δ has no build-time discriminative pruning — the Δ
// mechanism plays that role at query time).
func (ix *Index) Build(ctx context.Context, ds *graph.Dataset) error {
	ix.graphs = liveGraphs(ds)
	ix.trees = make(canon.Postings)
	ix.deltas = make(canon.Postings)
	ix.seen = make(map[canon.Key]int)
	ix.protos = make(map[canon.Key]*graph.Graph)
	cfg := mining.Config{
		MinSupportRatio: ix.opts.SupportRatio,
		MaxEdges:        ix.opts.MaxFeatureSize,
		TreesOnly:       true,
		MaxPatterns:     ix.opts.MaxPatterns,
	}
	err := mining.Mine(ctx, ds, cfg, func(p *mining.Pattern) bool {
		key, ok := canon.TreeKey(p.Code.Graph())
		if ok {
			ix.trees[key] = p.Support
		}
		return true
	})
	if err != nil {
		return err
	}
	ix.built = true
	return nil
}

// liveGraphs returns the graph in each slot of ds, nil for a tombstoned one.
func liveGraphs(ds *graph.Dataset) []*graph.Graph {
	gs := make([]*graph.Graph, ds.Len())
	for i := range gs {
		gs[i] = ds.Graph(graph.ID(i))
	}
	return gs
}

// AddGraphToIndex implements core.Method: g joins the posting of every
// tree and admitted Δ feature it contains, and the graphs later Δ
// admissions sweep. The Δ admission statistics are workload state and
// stay as they are.
func (ix *Index) AddGraphToIndex(g *graph.Graph) error {
	if !ix.built {
		return core.ErrNotBuilt
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if err := ix.match.Add(g, ix.trees, ix.deltas); err != nil {
		return err
	}
	if n := int(g.ID()) + 1; n > len(ix.graphs) {
		ix.graphs = append(ix.graphs, make([]*graph.Graph, n-len(ix.graphs))...)
	}
	ix.graphs[g.ID()] = g
	return nil
}

// RemoveGraphFromIndex implements core.Method: id leaves every posting and
// the graphs Δ admission sweeps.
func (ix *Index) RemoveGraphFromIndex(id graph.ID) error {
	if !ix.built {
		return core.ErrNotBuilt
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	canon.Remove(id, ix.trees, ix.deltas)
	if int(id) < len(ix.graphs) {
		ix.graphs[id] = nil
	}
	return nil
}

// chunkSize is the producer's emission granularity.
const chunkSize = 512

// Analyze implements core.Method: the compiled query. Tree+Δ grows the
// query's subtrees only as far as this index's features reach, and its Δ
// state learns per index, so everything else of its planning runs in
// Probe.
func (ix *Index) Analyze(q *graph.Graph) core.Analysis {
	return subiso.Compile(q, subiso.Options{})
}

// Probe implements core.Method: tree-based filtering, then Δ-based
// refinement and learning, verified against whole graphs. Tree+Δ cannot
// defer its filtering: Δ admission learns from the *complete* tree-based
// candidate set of every processed query (a lazily truncated set would
// corrupt the admission statistics and the discriminative test), so the
// candidate set is computed eagerly — once per plan, not per iteration,
// since filtering mutates the Δ state — and emitted in chunks. The
// verifier stage downstream is still lazy, which is where Tree+Δ's
// streaming win lives.
func (ix *Index) Probe(ctx context.Context, ds *graph.Dataset, a core.Analysis) (core.QueryPlan, error) {
	if !ix.built {
		return nil, core.ErrNotBuilt
	}
	prep, ok := a.(*subiso.Prepared)
	if !ok {
		return nil, core.ErrForeignAnalysis
	}
	q := prep.Query()
	cands := ix.applyDeltas(q, ix.treeCandidates(q))
	chunks := func(yield func(graph.IDSet) bool) {
		for lo := 0; lo < len(cands); lo += chunkSize {
			hi := min(lo+chunkSize, len(cands))
			if !yield(cands[lo:hi]) {
				return
			}
		}
	}
	return core.WholeGraphPlan(ctx, ds, prep, chunks), nil
}

// treeCandidates grows the query's subtrees level by level, expanding only
// subtrees present in the index, and intersects the postings of the maximal
// indexed subtrees.
func (ix *Index) treeCandidates(q *graph.Graph) graph.IDSet {
	es := features.NewEdgeSet(q)
	type frag struct {
		edgeIDs []int
		posting graph.IDSet
	}
	frontier := map[string]*frag{}
	cands := graph.UniverseIDSet(len(ix.graphs))
	for e := 0; e < es.NumEdges(); e++ {
		ids := []int{e}
		sub, _ := es.Subgraph(ids)
		key, _ := canon.TreeKey(sub)
		post, ok := ix.trees[key]
		if !ok {
			// A single edge not frequent in the dataset: its posting is the
			// (unknown, small) set of graphs containing it; Tree+Δ cannot
			// see it, so no pruning from this edge.
			continue
		}
		frontier[edgeSetKey(ids)] = &frag{edgeIDs: ids, posting: post}
	}
	visited := map[string]bool{}
	budget := ix.opts.FragmentBudget
	for level := 1; level < ix.opts.MaxFeatureSize && len(frontier) > 0 && budget > 0; level++ {
		next := map[string]*frag{}
		keys := make([]string, 0, len(frontier))
		for k := range frontier {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, fk := range keys {
			fr := frontier[fk]
			hasIndexedExt := false
			for _, ext := range treeExtensions(es, fr.edgeIDs) {
				ek := edgeSetKey(ext)
				if visited[ek] {
					hasIndexedExt = true
					continue
				}
				budget--
				if budget <= 0 {
					break
				}
				sub, _ := es.Subgraph(ext)
				key, ok := canon.TreeKey(sub)
				if !ok {
					continue
				}
				post, indexed := ix.trees[key]
				if !indexed {
					continue
				}
				hasIndexedExt = true
				visited[ek] = true
				next[ek] = &frag{edgeIDs: ext, posting: post}
			}
			if !hasIndexedExt || budget <= 0 {
				cands = cands.Intersect(fr.posting)
				if len(cands) == 0 {
					return cands
				}
			}
		}
		frontier = next
	}
	keys := make([]string, 0, len(frontier))
	for k := range frontier {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, fk := range keys {
		cands = cands.Intersect(frontier[fk].posting)
		if len(cands) == 0 {
			break
		}
	}
	return cands
}

// applyDeltas intersects admitted Δ postings for Δ structures found in the
// query and updates the Δ admission statistics, possibly admitting new Δ
// features (computing their full-dataset postings by subgraph isomorphism —
// the expensive step Tree+Δ amortizes over the query workload).
func (ix *Index) applyDeltas(q *graph.Graph, cands graph.IDSet) graph.IDSet {
	structs := ix.deltaStructures(q)
	if len(structs) == 0 {
		return cands
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.queries++
	for key, proto := range structs {
		if post, ok := ix.deltas[key]; ok {
			cands = cands.Intersect(post)
			continue
		}
		ix.seen[key]++
		if _, ok := ix.protos[key]; !ok {
			ix.protos[key] = proto
		}
		if float64(ix.seen[key]) < ix.opts.QuerySupportToAdd*float64(ix.queries) {
			continue
		}
		// Candidate for admission: compute the full posting, admit if
		// discriminative against the current candidate estimate.
		post := ix.fullPosting(proto)
		pruned := len(cands) - len(cands.Intersect(post))
		if len(cands) > 0 && float64(pruned) >= ix.opts.DiscriminativeRatio*float64(len(cands)) {
			ix.deltas[key] = post
			delete(ix.seen, key)
			delete(ix.protos, key)
			cands = cands.Intersect(post)
		}
	}
	return cands
}

// deltaStructures returns the Δ structures of the query: its simple cycles
// and each cycle extended by one adjacent edge, keyed canonically.
func (ix *Index) deltaStructures(q *graph.Graph) map[canon.Key]*graph.Graph {
	out := map[canon.Key]*graph.Graph{}
	add := func(vertices []int32, extra [2]int32) {
		set := append([]int32(nil), vertices...)
		if extra[0] >= 0 {
			found := false
			for _, v := range set {
				if v == extra[1] {
					found = true
					break
				}
			}
			if !found {
				set = append(set, extra[1])
			}
		}
		sub, _, err := q.InducedSubgraph(set)
		if err != nil {
			return
		}
		// Keep only the cycle plus the one extension edge: induced subgraphs
		// may pull in chords, which is fine — chords only make the feature
		// more specific, and the key is canonical either way.
		key, ok := canon.FeatureKey(sub)
		if !ok {
			return
		}
		if _, dup := out[key]; !dup {
			out[key] = sub
		}
	}
	features.VisitCycles(q, ix.opts.MaxCycleLen, func(vs []int32) bool {
		add(vs, [2]int32{-1, -1})
		// Extensions: one adjacent edge from any cycle vertex.
		for _, v := range vs {
			for _, w := range q.Neighbors(v) {
				on := false
				for _, x := range vs {
					if x == w {
						on = true
						break
					}
				}
				if !on {
					add(vs, [2]int32{v, w})
				}
			}
		}
		return true
	})
	return out
}

// fullPosting computes the exact dataset posting of a Δ structure by
// subgraph isomorphism over every graph. Postings stored in the index must
// be complete — partial postings would cause false negatives for later
// queries — so the sweep runs uncancellable.
func (ix *Index) fullPosting(proto *graph.Graph) graph.IDSet {
	var out graph.IDSet
	prep := subiso.Compile(proto, subiso.Options{})
	for _, g := range ix.graphs {
		if g == nil {
			continue // tombstoned graphs never join a Δ posting
		}
		if prep.Exists(context.Background(), g) {
			out = append(out, g.ID())
		}
	}
	return out
}

func edgeSetKey(ids []int) string {
	buf := make([]byte, 0, len(ids)*3)
	for _, id := range ids {
		buf = append(buf, byte(id), byte(id>>8), byte(id>>16))
	}
	return string(buf)
}

// treeExtensions returns edge sets obtained by adding one adjacent edge that
// keeps the subgraph acyclic (one endpoint new).
func treeExtensions(es *features.EdgeSet, ids []int) [][]int {
	in := make(map[int]bool, len(ids))
	vs := make(map[int32]bool, len(ids)+1)
	for _, id := range ids {
		in[id] = true
		e := es.Edge(id)
		vs[e[0]] = true
		vs[e[1]] = true
	}
	var out [][]int
	for e := 0; e < es.NumEdges(); e++ {
		if in[e] {
			continue
		}
		ep := es.Edge(e)
		// Exactly one endpoint inside: adding keeps it a tree.
		if vs[ep[0]] == vs[ep[1]] {
			continue
		}
		ext := make([]int, 0, len(ids)+1)
		ext = append(ext, ids...)
		ext = append(ext, e)
		sort.Ints(ext)
		out = append(out, ext)
	}
	return out
}

// SizeBytes implements core.Method.
func (ix *Index) SizeBytes() int64 {
	var sz int64
	for key, post := range ix.trees {
		sz += int64(len(key)) + int64(len(post))*4 + 48
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for key, post := range ix.deltas {
		sz += int64(len(key)) + int64(len(post))*4 + 48
	}
	return sz
}

// NumTreeFeatures returns the number of indexed tree features.
func (ix *Index) NumTreeFeatures() int { return len(ix.trees) }

// NumDeltaFeatures returns the number of admitted Δ features.
func (ix *Index) NumDeltaFeatures() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return len(ix.deltas)
}
