// Package gindex implements gIndex (Yan, Yu, Han, SIGMOD 2004): frequent
// subgraph features are mined from the dataset with gSpan; among the
// frequent features, only the discriminative ones — those whose posting list
// is substantially smaller than the intersection of their indexed
// sub-features' postings — are kept. Queries are answered by enumerating the
// query's fragments smallest-first, expanding only fragments present in the
// index (a fragment absent from the index never spawns supergraph
// fragments), and intersecting the postings of the maximal indexed fragments
// along each expansion path.
//
// gIndex is one of the six indexed subgraph query processing methods
// compared in the reproduced paper (Katsarou, Ntarmos, Triantafillou,
// PVLDB 2015), where its mining-bound build cost is a central scalability
// finding; register.go exposes it to the engine registry as "gindex".
package gindex

import (
	"context"
	"iter"
	"sort"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/mining"
	"repro/internal/subiso"
)

// Defaults from §4.1 of the paper.
const (
	DefaultMaxFeatureSize     = 10
	DefaultSupportRatio       = 0.1
	DefaultDiscriminativeGate = 2.0
	// DefaultFragmentBudget bounds query-time fragment enumeration; it is
	// this reproduction's analogue of the paper's experiment kill switch
	// (stopping expansion early only weakens filtering, never correctness).
	DefaultFragmentBudget = 20000
)

// Options configures a gIndex.
type Options struct {
	// MaxFeatureSize is the maximum mined feature size in edges (paper: 10).
	MaxFeatureSize int
	// SupportRatio is the frequent-mining support threshold (paper: 0.1).
	SupportRatio float64
	// DiscriminativeGate is the minimum ratio |∩ sub-feature postings| /
	// |feature posting| for a frequent feature to be indexed (paper: 2.0).
	DiscriminativeGate float64
	// FragmentBudget caps query fragment enumeration (0 = default).
	FragmentBudget int
	// MaxPatterns caps mining (0 = unlimited); mirrors the 8-hour limit.
	MaxPatterns int
}

func (o *Options) fill() {
	if o.MaxFeatureSize <= 0 {
		o.MaxFeatureSize = DefaultMaxFeatureSize
	}
	if o.SupportRatio <= 0 {
		o.SupportRatio = DefaultSupportRatio
	}
	if o.DiscriminativeGate <= 0 {
		o.DiscriminativeGate = DefaultDiscriminativeGate
	}
	if o.FragmentBudget <= 0 {
		o.FragmentBudget = DefaultFragmentBudget
	}
}

// Index is a built gIndex. Create with New, then Build.
type Index struct {
	opts     Options
	nGraphs  int
	postings canon.Postings
	match    canon.Matcher
	built    bool
}

// New returns an unbuilt gIndex.
func New(opts Options) *Index {
	opts.fill()
	return &Index{opts: opts}
}

// Name implements core.Method.
func (ix *Index) Name() string { return "gIndex" }

// Build implements core.Method: gSpan mining with on-the-fly discriminative
// selection. chainInter carries, down each mining branch, the intersection
// of the postings of the selected ancestors of the current pattern; a
// pattern is selected when that intersection is at least DiscriminativeGate
// times larger than its own posting (i.e., the feature meaningfully shrinks
// the candidate estimate). Size-1 features are always selected.
func (ix *Index) Build(ctx context.Context, ds *graph.Dataset) error {
	ix.nGraphs = ds.Len()
	ix.postings = make(canon.Postings)

	universe := graph.UniverseIDSet(ds.Len())
	chain := map[*mining.Pattern]graph.IDSet{}

	cfg := mining.Config{
		MinSupportRatio: ix.opts.SupportRatio,
		MaxEdges:        ix.opts.MaxFeatureSize,
		MaxPatterns:     ix.opts.MaxPatterns,
	}
	err := mining.Mine(ctx, ds, cfg, func(p *mining.Pattern) bool {
		var inter graph.IDSet
		if p.Parent == nil {
			inter = universe
		} else {
			inter = chain[p.Parent]
		}
		selected := false
		if len(p.Code) == 1 {
			selected = true
		} else if float64(len(inter)) >= ix.opts.DiscriminativeGate*float64(len(p.Support)) {
			selected = true
		}
		if selected {
			key, ok := canon.GraphKey(p.Code.Graph())
			if ok {
				ix.postings[key] = p.Support
			}
			chain[p] = inter.Intersect(p.Support)
		} else {
			chain[p] = inter
		}
		return true
	})
	// chain entries for finished subtrees are garbage; let the map go.
	if err != nil {
		return err
	}
	ix.built = true
	return nil
}

// AddGraphToIndex implements core.Method: g joins the posting of every
// indexed feature it contains. The features stay those mined at build, so
// filtering power may drift from what a fresh mining would choose, but a
// posting never misses a graph and answers stay exact.
func (ix *Index) AddGraphToIndex(g *graph.Graph) error {
	if !ix.built {
		return core.ErrNotBuilt
	}
	if err := ix.match.Add(g, ix.postings); err != nil {
		return err
	}
	ix.nGraphs = max(ix.nGraphs, int(g.ID())+1)
	return nil
}

// RemoveGraphFromIndex implements core.Method: id leaves every posting.
func (ix *Index) RemoveGraphFromIndex(id graph.ID) error {
	if !ix.built {
		return core.ErrNotBuilt
	}
	canon.Remove(id, ix.postings)
	return nil
}

// fragment is one connected edge subset of the query during filtering.
type fragment struct {
	edgeIDs []int // sorted
	key     canon.Key
	posting graph.IDSet
}

func edgeSetKey(ids []int) string {
	buf := make([]byte, 0, len(ids)*3)
	for _, id := range ids {
		buf = append(buf, byte(id), byte(id>>8), byte(id>>16))
	}
	return string(buf)
}

// chunkSize is the lazy producer's emission granularity.
const chunkSize = 512

// Analyze implements core.Method: the compiled query. gIndex grows the
// query's fragments only as far as this index's features reach, so
// everything else of its planning reads the index and runs in Probe.
func (ix *Index) Analyze(q *graph.Graph) core.Analysis {
	return subiso.Compile(q, subiso.Options{})
}

// Probe implements core.Method: the intersection of the maximal indexed
// fragments' postings, verified against whole graphs. Fragment mining is
// inherently eager — which fragments are maximal is only known once
// expansion finishes — so the mining runs up front, but the posting
// intersection itself streams candidate-major over the smallest maximal
// posting, emitting ascending ID chunks. A query with no indexed fragment
// rules nothing out.
func (ix *Index) Probe(ctx context.Context, ds *graph.Dataset, a core.Analysis) (core.QueryPlan, error) {
	if !ix.built {
		return nil, core.ErrNotBuilt
	}
	prep, ok := a.(*subiso.Prepared)
	if !ok {
		return nil, core.ErrForeignAnalysis
	}
	var chunks iter.Seq[graph.IDSet]
	if posts := ix.maximalPostings(prep.Query()); len(posts) > 0 {
		chunks = intersect(posts)
	} else {
		chunks = core.AllSlots(ix.nGraphs)
	}
	return core.WholeGraphPlan(ctx, ds, prep, chunks), nil
}

// intersect streams the intersection of posts: the smallest posting
// drives, every other is probed by a forward merge cursor.
func intersect(posts []graph.IDSet) iter.Seq[graph.IDSet] {
	drv := 0
	for k := range posts {
		if len(posts[k]) < len(posts[drv]) {
			drv = k
		}
	}
	driver := posts[drv]
	others := append(append([]graph.IDSet(nil), posts[:drv]...), posts[drv+1:]...)
	return func(yield func(graph.IDSet) bool) {
		js := make([]int, len(others))
		var chunk graph.IDSet
		for _, id := range driver {
			ok := true
			for k, p := range others {
				j := js[k]
				for j < len(p) && p[j] < id {
					j++
				}
				js[k] = j
				if j >= len(p) || p[j] != id {
					ok = false
					break
				}
			}
			if ok {
				chunk = append(chunk, id)
			}
			if len(chunk) >= chunkSize {
				if !yield(chunk) {
					return
				}
				chunk = nil
			}
		}
		if len(chunk) > 0 {
			yield(chunk)
		}
	}
}

// maximalPostings mines the query's indexed fragments and returns the
// postings of the maximal ones along each expansion path, in deterministic
// order, without intersecting them.
func (ix *Index) maximalPostings(q *graph.Graph) []graph.IDSet {
	es := features.NewEdgeSet(q)

	// Level 1: single edges.
	frontier := map[string]*fragment{}
	for e := 0; e < es.NumEdges(); e++ {
		ids := []int{e}
		sub, _ := es.Subgraph(ids)
		key, _ := canon.GraphKey(sub)
		if post, ok := ix.postings[key]; ok {
			frontier[edgeSetKey(ids)] = &fragment{edgeIDs: ids, key: key, posting: post}
		}
		// An absent single edge still cannot rule graphs out here: absence
		// from the index only means "infrequent or non-discriminative".
	}

	var posts []graph.IDSet
	visited := map[string]bool{}
	budget := ix.opts.FragmentBudget

	for level := 1; level < ix.opts.MaxFeatureSize && len(frontier) > 0 && budget > 0; level++ {
		next := map[string]*fragment{}
		// Deterministic iteration order.
		keys := make([]string, 0, len(frontier))
		for k := range frontier {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, fk := range keys {
			fr := frontier[fk]
			hasIndexedExt := false
			for _, ext := range extensions(es, fr.edgeIDs) {
				ek := edgeSetKey(ext)
				if visited[ek] {
					hasIndexedExt = true // extension already known indexed
					continue
				}
				budget--
				if budget <= 0 {
					break
				}
				sub, _ := es.Subgraph(ext)
				key, ok := canon.GraphKey(sub)
				if !ok {
					continue
				}
				post, indexed := ix.postings[key]
				if !indexed {
					continue
				}
				hasIndexedExt = true
				visited[ek] = true
				next[ek] = &fragment{edgeIDs: ext, key: key, posting: post}
			}
			if !hasIndexedExt || budget <= 0 {
				// fr is maximal along its expansion paths.
				posts = append(posts, fr.posting)
			}
		}
		frontier = next
	}
	// Any fragments remaining at the final level are maximal.
	keys := make([]string, 0, len(frontier))
	for k := range frontier {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, fk := range keys {
		posts = append(posts, frontier[fk].posting)
	}
	return posts
}

// extensions returns the edge sets obtained by adding one adjacent edge to
// ids (each result sorted).
func extensions(es *features.EdgeSet, ids []int) [][]int {
	in := make(map[int]bool, len(ids))
	vs := make(map[int32]bool, len(ids)+1)
	for _, id := range ids {
		in[id] = true
		e := es.Edge(id)
		vs[e[0]] = true
		vs[e[1]] = true
	}
	seen := map[int]bool{}
	var out [][]int
	for e := 0; e < es.NumEdges(); e++ {
		if in[e] || seen[e] {
			continue
		}
		ep := es.Edge(e)
		if !vs[ep[0]] && !vs[ep[1]] {
			continue
		}
		seen[e] = true
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
	for key, post := range ix.postings {
		sz += int64(len(key)) + int64(len(post))*4 + 48
	}
	return sz
}

// NumFeatures returns the number of indexed (frequent and discriminative)
// features.
func (ix *Index) NumFeatures() int { return len(ix.postings) }
