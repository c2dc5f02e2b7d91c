// Package grapes implements the GRAPES index (Giugno et al., PLoS One 2013):
// exhaustive enumeration of label paths up to a maximum length, organized in
// a trie whose postings carry location information — for every (path, graph)
// pair, the set of start vertices and the occurrence count. Both indexing and
// verification are parallelized across a configurable number of workers, and
// verification runs VF2 against individual connected components selected via
// the location information, rather than whole graphs.
//
// Grapes is one of the six indexed subgraph query processing methods
// compared in the reproduced paper (Katsarou, Ntarmos, Triantafillou,
// PVLDB 2015), where its parallel build makes it the fastest indexer;
// register.go exposes it to the engine registry as "grapes".
package grapes

import (
	"context"
	"iter"
	"runtime"
	"sort"
	"sync"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/subiso"
)

// Defaults from §4.1 of the paper.
const (
	DefaultMaxPathLen = 4
	DefaultWorkers    = 6
)

// Options configures a Grapes index.
type Options struct {
	// MaxPathLen is the maximum path feature size in edges (paper: 4).
	MaxPathLen int
	// Workers is the build/verify parallelism (paper: 6 threads).
	Workers int
	// Storage selects how a persisted index is held when restored:
	// core.StorageHeap (default) decodes eagerly, core.StorageMmap keeps
	// the v2 container mapped and materializes postings lazily.
	Storage string
}

func (o *Options) fill() {
	if o.MaxPathLen <= 0 {
		o.MaxPathLen = DefaultMaxPathLen
	}
	if o.Workers <= 0 {
		o.Workers = DefaultWorkers
	}
	if o.Workers > runtime.NumCPU()*4 {
		o.Workers = runtime.NumCPU() * 4
	}
}

// location is one (graph, path feature) posting entry.
type location struct {
	count  int32
	starts []int32 // sorted vertex ids where the path starts
}

// posting maps graph IDs to their location entry for one path feature.
type posting struct {
	ids  graph.IDSet
	locs []location // parallel to ids
}

// Index is a built Grapes index. Create with New, then Build.
type Index struct {
	opts Options
	ds   *graph.Dataset
	// features maps canonical path keys to postings.
	features map[canon.Key]*posting
	// comps[g] are the connected components of dataset graph g, as a
	// vertex -> component id array, with compCount[g] components.
	comps     [][]int32
	compCount []int
	// lazy, when non-nil, backs the index with a mapped v2 container
	// (storage=mmap): features/comps/compCount above are nil and every
	// access goes through the indirection helpers below.
	lazy  *lazyStore
	built bool
}

// postingCard returns a feature's posting cardinality (0 when absent)
// without materializing the posting in lazy mode.
func (ix *Index) postingCard(key canon.Key) int {
	if ix.lazy != nil {
		return ix.lazy.card(key)
	}
	if p := ix.features[key]; p != nil {
		return len(p.ids)
	}
	return 0
}

// getPosting resolves a feature's posting, materializing it on first
// touch in lazy mode. A nil posting with nil error means "absent".
func (ix *Index) getPosting(key canon.Key) (*posting, error) {
	if ix.lazy != nil {
		return ix.lazy.posting(key)
	}
	return ix.features[key], nil
}

// compsOf returns graph id's vertex→component table and component count.
func (ix *Index) compsOf(id graph.ID) ([]int32, int) {
	if ix.lazy != nil {
		return ix.lazy.compsOf(id)
	}
	if int(id) < 0 || int(id) >= len(ix.comps) {
		return nil, 0
	}
	return ix.comps[id], ix.compCount[id]
}

// New returns an unbuilt Grapes index.
func New(opts Options) *Index {
	opts.fill()
	return &Index{opts: opts}
}

// Name implements core.Method.
func (ix *Index) Name() string { return "Grapes" }

// buildShard is the per-worker accumulation of postings.
type buildShard struct {
	features map[canon.Key]map[graph.ID]*location
}

// Build implements core.Method. Graphs are partitioned across workers, each
// of which builds a private feature map; shards are merged at the end,
// mirroring the paper's synchronization-free parallel trie construction.
func (ix *Index) Build(ctx context.Context, ds *graph.Dataset) error {
	ix.ds = ds
	n := ds.Len()
	ix.comps = make([][]int32, n)
	ix.compCount = make([]int, n)

	workers := ix.opts.Workers
	if workers > n && n > 0 {
		workers = n
	}
	if workers == 0 {
		workers = 1
	}
	shards := make([]*buildShard, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shard := &buildShard{features: make(map[canon.Key]map[graph.ID]*location)}
			shards[w] = shard
			for i := w; i < n; i += workers {
				if err := ctx.Err(); err != nil {
					errs[w] = err
					return
				}
				if !ds.Alive(graph.ID(i)) {
					continue // tombstoned slots index nothing
				}
				ix.indexGraph(shard, ds.Graphs[i])
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Merge shards into sorted postings.
	ix.features = make(map[canon.Key]*posting)
	for _, shard := range shards {
		for key, byGraph := range shard.features {
			p := ix.features[key]
			if p == nil {
				p = &posting{}
				ix.features[key] = p
			}
			for id, loc := range byGraph {
				p.ids = append(p.ids, id)
				p.locs = append(p.locs, *loc)
			}
		}
	}
	for _, p := range ix.features {
		sortPosting(p)
	}
	ix.built = true
	return nil
}

func sortPosting(p *posting) {
	idx := make([]int, len(p.ids))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return p.ids[idx[a]] < p.ids[idx[b]] })
	ids := make(graph.IDSet, len(idx))
	locs := make([]location, len(idx))
	for i, j := range idx {
		ids[i] = p.ids[j]
		locs[i] = p.locs[j]
	}
	p.ids, p.locs = ids, locs
}

// indexGraph extracts all path features of one graph into the shard, and
// records the graph's connected components for verification.
func (ix *Index) indexGraph(shard *buildShard, g *graph.Graph) {
	id := g.ID()
	var labelBuf []graph.Label
	features.VisitPaths(g, ix.opts.MaxPathLen, func(vs []int32) bool {
		labelBuf = features.PathLabels(g, vs, labelBuf)
		key := canon.PathKey(labelBuf)
		byGraph := shard.features[key]
		if byGraph == nil {
			byGraph = make(map[graph.ID]*location)
			shard.features[key] = byGraph
		}
		loc := byGraph[id]
		if loc == nil {
			loc = &location{}
			byGraph[id] = loc
		}
		loc.count++
		start := vs[0]
		i := sort.Search(len(loc.starts), func(i int) bool { return loc.starts[i] >= start })
		if i == len(loc.starts) || loc.starts[i] != start {
			loc.starts = append(loc.starts, 0)
			copy(loc.starts[i+1:], loc.starts[i:])
			loc.starts[i] = start
		}
		return true
	})

	comp := make([]int32, g.NumVertices())
	comps := g.ConnectedComponents()
	for ci, members := range comps {
		for _, v := range members {
			comp[v] = int32(ci)
		}
	}
	ix.comps[id] = comp
	ix.compCount[id] = len(comps)
}

// queryFeature is one distinct path feature of the query.
type queryFeature struct {
	key   canon.Key
	count int32
}

// extractQueryFeatures enumerates the query's path features with counts.
func (ix *Index) extractQueryFeatures(q *graph.Graph) []queryFeature {
	acc := make(map[canon.Key]int32)
	var labelBuf []graph.Label
	features.VisitPaths(q, ix.opts.MaxPathLen, func(vs []int32) bool {
		labelBuf = features.PathLabels(q, vs, labelBuf)
		acc[canon.PathKey(labelBuf)]++
		return true
	})
	out := make([]queryFeature, 0, len(acc))
	for k, c := range acc {
		out = append(out, queryFeature{key: k, count: c})
	}
	// Deterministic order, rarest feature first for cheap intersections.
	// Cardinalities come from the posting directory, so in lazy mode this
	// never materializes a posting.
	sort.Slice(out, func(a, b int) bool {
		la, lb := ix.postingCard(out[a].key), ix.postingCard(out[b].key)
		if la != lb {
			return la < lb
		}
		return out[a].key < out[b].key
	})
	return out
}

// Candidates implements core.Method (used when the caller does not go
// through PlanQuery).
func (ix *Index) Candidates(q *graph.Graph) (graph.IDSet, error) {
	plan, err := ix.PlanQuery(q)
	if err != nil {
		return nil, err
	}
	return plan.Candidates(), nil
}

// PlanQuery implements core.Planner: query features are extracted and their
// postings resolved eagerly; the count-dominance intersection itself runs
// lazily, candidate-major, when the plan's candidates are pulled (the plan
// implements core.ChunkedPlan), retaining per emitted candidate the
// components touched by matched path locations.
func (ix *Index) PlanQuery(q *graph.Graph) (core.QueryPlan, error) {
	if !ix.built {
		return nil, core.ErrNotBuilt
	}
	plan := &queryPlan{ix: ix, prep: subiso.Compile(q, subiso.Options{}), states: make(map[graph.ID][]bool)}
	qf := ix.extractQueryFeatures(q)
	if len(qf) == 0 {
		plan.empty = true // no path features: Grapes filters everything out
		return plan, nil
	}
	plan.qf = qf
	plan.postings = make([]*posting, len(qf))
	for k, f := range qf {
		p, err := ix.getPosting(f.key)
		if err != nil {
			return nil, err
		}
		if p == nil {
			plan.empty = true // some feature absent everywhere: no candidates
			return plan, nil
		}
		plan.postings[k] = p
	}
	return plan, nil
}

func markComponents(dst []bool, comp []int32, starts []int32) {
	for _, v := range starts {
		dst[comp[v]] = true
	}
}

func anyTrue(bs []bool) bool {
	for _, b := range bs {
		if b {
			return true
		}
	}
	return false
}

// chunkSize is the lazy producer's emission granularity.
const chunkSize = 256

// queryPlan holds one query's resolved feature postings and, as candidates
// are produced, their viable components. It implements core.ChunkedPlan:
// the dominance intersection is evaluated candidate-major over the rarest
// feature's posting list, so an early-terminated stream walks a prefix of
// one posting instead of intersecting all of them up front.
type queryPlan struct {
	ix       *Index
	prep     *subiso.Prepared // the query, compiled once for every candidate
	qf       []queryFeature
	postings []*posting // parallel to qf; qf[0] is the rarest (the driver)
	empty    bool
	// mu guards states: the producer inserts while verifier workers read.
	mu     sync.Mutex
	states map[graph.ID][]bool
	// cands caches the materialized candidate set for one-shot consumers.
	cands        graph.IDSet
	materialized bool
}

var _ core.ChunkedPlan = (*queryPlan)(nil)

// Candidates implements core.QueryPlan, materializing the chunk sequence
// once for one-shot consumers.
func (p *queryPlan) Candidates() graph.IDSet {
	if !p.materialized {
		var cands graph.IDSet
		for chunk := range p.Chunks() {
			cands = append(cands, chunk...)
		}
		p.cands = cands
		p.materialized = true
	}
	return p.cands
}

// Chunks implements core.ChunkedPlan: candidates stream out in ascending ID
// order by walking the rarest feature's posting and checking the remaining
// features through monotonic merge cursors, AND-ing viable components
// feature by feature exactly as the eager intersection did. Each emitted
// candidate's surviving components are recorded for Verify.
func (p *queryPlan) Chunks() iter.Seq[graph.IDSet] {
	return func(yield func(graph.IDSet) bool) {
		if p.empty {
			return
		}
		first := p.postings[0]
		js := make([]int, len(p.qf))
		var chunk graph.IDSet
		for i, id := range first.ids {
			if first.locs[i].count < p.qf[0].count {
				continue
			}
			comp, compCount := p.ix.compsOf(id)
			viable := make([]bool, compCount)
			markComponents(viable, comp, first.locs[i].starts)
			if !anyTrue(viable) {
				continue
			}
			ok := true
			var touched []bool
			for k := 1; k < len(p.qf); k++ {
				pp := p.postings[k]
				j := js[k]
				for j < len(pp.ids) && pp.ids[j] < id {
					j++
				}
				js[k] = j
				if j >= len(pp.ids) || pp.ids[j] != id || pp.locs[j].count < p.qf[k].count {
					ok = false
					break
				}
				touched = touched[:0]
				touched = append(touched, make([]bool, compCount)...)
				markComponents(touched, comp, pp.locs[j].starts)
				still := false
				for c := range viable {
					viable[c] = viable[c] && touched[c]
					still = still || viable[c]
				}
				if !still {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			p.mu.Lock()
			p.states[id] = viable
			p.mu.Unlock()
			chunk = append(chunk, id)
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

// Verify implements core.QueryPlan: the query is tested against each viable
// connected component of the candidate, in parallel when there are several,
// first match wins.
func (p *queryPlan) Verify(id graph.ID) bool {
	g := p.ix.ds.Graph(id)
	if g == nil {
		return false
	}
	p.mu.Lock()
	viable := p.states[id]
	p.mu.Unlock()
	comp, _ := p.ix.compsOf(id)
	var targets []int
	for c, ok := range viable {
		if ok {
			targets = append(targets, c)
		}
	}
	if len(targets) == 0 {
		return false
	}
	if len(targets) == 1 {
		return p.verifyComponent(g, comp, targets[0])
	}
	// Parallel per-component verification, first match wins.
	workers := p.ix.opts.Workers
	if workers > len(targets) {
		workers = len(targets)
	}
	found := make(chan bool, len(targets))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for _, c := range targets {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			found <- p.verifyComponent(g, comp, c)
		}(c)
	}
	wg.Wait()
	close(found)
	for ok := range found {
		if ok {
			return true
		}
	}
	return false
}

func (p *queryPlan) verifyComponent(g *graph.Graph, comp []int32, c int) bool {
	return p.prep.ExistsRestricted(context.TODO(), g, comp, int32(c))
}

// SizeBytes implements core.Method. A lazily-opened index reports only
// what has been materialized into the heap, which is the point of
// storage=mmap: the mapped file is the OS page cache's problem.
func (ix *Index) SizeBytes() int64 {
	if ix.lazy != nil {
		return ix.lazy.residentBytes()
	}
	var sz int64
	for key, p := range ix.features {
		sz += int64(len(key)) + 48
		sz += int64(len(p.ids)) * 4
		for _, loc := range p.locs {
			sz += 4 + int64(len(loc.starts))*4 + 24
		}
	}
	for _, comp := range ix.comps {
		sz += int64(len(comp)) * 4
	}
	return sz
}

// NumFeatures returns the number of distinct indexed path features.
func (ix *Index) NumFeatures() int {
	if ix.lazy != nil {
		return ix.lazy.numFeatures()
	}
	return len(ix.features)
}
