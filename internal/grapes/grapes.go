// Package grapes implements the GRAPES index (Giugno et al., PLoS One 2013):
// exhaustive enumeration of label paths up to a maximum length, one posting
// per canonical path in pathkey's key directory, and postings that carry
// location information — for every (path, graph) pair, the set of start
// vertices and the occurrence count. Both indexing and verification are
// parallelized across a configurable number of workers, and verification
// runs VF2 against individual connected components selected via the
// location information, rather than whole graphs.
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
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pathkey"
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
	// features maps canonical path keys to postings.
	features map[canon.Key]*posting
	// comps[g] are the connected components of dataset graph g, as a
	// vertex -> component id array, with compCount[g] components.
	comps     [][]int32
	compCount []int
	// graphs[g] is the dataset's graph g while the index holds it, nil
	// for a slot it holds nothing of: RemoveGraphFromIndex re-walks its
	// paths. Build, LoadIndex and AddGraphToIndex fill it in every
	// storage mode.
	graphs []*graph.Graph
	// lazy, when non-nil, backs the index with a mapped v2 container
	// (storage=mmap): features/comps/compCount above are nil, and resolve
	// and compsOf read through it.
	lazy  *lazyStore
	built bool
}

// compsOf returns graph id's vertex→component table and component count.
// Only a mapped table can fail to decode.
func (ix *Index) compsOf(id graph.ID) ([]int32, int, error) {
	if ix.lazy != nil {
		return ix.lazy.compsOf(id)
	}
	if int(id) < 0 || int(id) >= len(ix.comps) {
		return nil, 0, nil
	}
	return ix.comps[id], ix.compCount[id], nil
}

// New returns an unbuilt Grapes index.
func New(opts Options) *Index {
	opts.fill()
	return &Index{opts: opts}
}

// Name implements core.Method.
func (ix *Index) Name() string { return "Grapes" }

// Build implements core.Method by sorting rather than hashing. Workers
// take contiguous graph-id ranges and append one fixed-width record per
// path visit (packed key, graph id, start vertex) to slices of their own,
// which one stable radix sort on the key puts in (key, id, start) order;
// one pass over its runs then writes every posting once, at its final size.
// Ranks are over the dataset's label alphabet, so records sort as their
// canonical keys do.
func (ix *Index) Build(ctx context.Context, ds *graph.Dataset) error {
	n := ds.Len()
	ix.graphs = liveGraphs(ds)
	ix.comps = make([][]int32, n)
	ix.compCount = make([]int, n)

	// One allocation for every component table.
	nVerts := 0
	for _, g := range ix.graphs {
		if g != nil {
			nVerts += g.NumVertices()
		}
	}
	var pk pathkey.Packing
	pk.Reset(pathkey.Alphabet(ds), ix.opts.MaxPathLen)
	compArena := make([]int32, nVerts)
	for i, g := range ix.graphs {
		if g != nil {
			nv := g.NumVertices()
			ix.comps[i], compArena = compArena[:nv:nv], compArena[nv:]
		}
	}

	workers := max(min(ix.opts.Workers, n), 1)
	parts := make([][]uint64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rc := pathkey.Recorder{Pk: &pk}
			for i := w * n / workers; i < (w+1)*n/workers; i++ {
				if err := ctx.Err(); err != nil {
					errs[w] = err
					return
				}
				g := ix.graphs[i]
				if g == nil {
					continue
				}
				rc.Record(g)
				ix.compCount[g.ID()] = componentTable(g, ix.comps[g.ID()])
			}
			parts[w] = rc.Recs
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	recs, err := pk.SortRecords(ctx, parts)
	if err != nil {
		return err
	}
	keys, posts, err := postings(ctx, &pk, recs)
	if err != nil {
		return err
	}
	ix.features = make(map[canon.Key]*posting, len(keys))
	for i, key := range keys {
		ix.features[key] = &posts[i]
	}
	ix.built = true
	return nil
}

// liveGraphs returns ds's graphs by slot, nil at a tombstoned one: the
// graphs an index built or loaded over ds holds.
func liveGraphs(ds *graph.Dataset) []*graph.Graph {
	gs := make([]*graph.Graph, ds.Len())
	for i, g := range ds.Graphs {
		if ds.Alive(graph.ID(i)) {
			gs[i] = g
		}
	}
	return gs
}

// componentTable writes each vertex's connected component into comp, which
// holds one entry per vertex of g, and returns the number of components.
func componentTable(g *graph.Graph, comp []int32) int {
	comps := g.ConnectedComponents()
	for ci, members := range comps {
		for _, v := range members {
			comp[v] = int32(ci)
		}
	}
	return len(comps)
}

// queryPaths is Grapes's analysis of a query (Analyze): its distinct
// canonical path keys with their visit counts, and the compiled query.
type queryPaths struct {
	pathkey.Query
	prep *subiso.Prepared
}

// feature is one distinct query path resolved against one index.
type feature = pathkey.Feature[posting]

// resolve looks every distinct query path up exactly once — one map probe
// on the heap, one directory search under mmap — and returns the features
// rarest first (see pathkey.Resolve). It returns none when the query has
// no path or one of them is in no indexed graph.
func (ix *Index) resolve(qp *queryPaths) ([]feature, error) {
	var keys *pathkey.Mapped[posting]
	if lz := ix.lazy; lz != nil {
		// Decoding a posting checks its starts against the component
		// directory.
		if err := lz.fetch(); err != nil {
			return nil, err
		}
		keys = lz.keys
	}
	feats, _, err := pathkey.Resolve(&qp.Query, ix.features, cardinality, keys)
	return feats, err
}

func cardinality(p *posting) int { return len(p.ids) }

// Analyze implements core.Method: the query's paths and the compiled
// query.
func (ix *Index) Analyze(q *graph.Graph) core.Analysis {
	return &queryPaths{Query: pathkey.Extract(q, ix.opts.MaxPathLen), prep: subiso.Compile(q, subiso.Options{})}
}

// Probe implements core.Method: the analysis's paths are resolved against
// this index eagerly; the count-dominance intersection itself runs lazily,
// candidate-major, when the plan's chunks are pulled, retaining per
// emitted candidate the components touched by matched path locations.
// Verify tests the graphs of ds under ctx.
func (ix *Index) Probe(ctx context.Context, ds *graph.Dataset, a core.Analysis) (core.QueryPlan, error) {
	if !ix.built {
		return nil, core.ErrNotBuilt
	}
	qp, ok := a.(*queryPaths)
	if !ok {
		return nil, core.ErrForeignAnalysis
	}
	feats, err := ix.resolve(qp)
	if err != nil {
		return nil, err
	}
	return &queryPlan{ix: ix, ctx: ctx, ds: ds, prep: qp.prep, feats: feats}, nil
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

// cleared returns b resliced to n false values, reusing its array.
func cleared(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// seekGE returns the first index j >= from with ids[j] >= id, or len(ids):
// it gallops from from in doubling steps, then binary-searches the last
// step, so a cursor that skips d ids pays O(log d).
func seekGE(ids graph.IDSet, from int, id graph.ID) int {
	if from >= len(ids) || ids[from] >= id {
		return from
	}
	lo, step := from, 1 // ids[lo] < id throughout
	for lo+step < len(ids) && ids[lo+step] < id {
		lo += step
		step <<= 1
	}
	hi := min(lo+step, len(ids))
	for lo++; lo < hi; {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// chunkSize is the lazy producer's emission granularity.
const chunkSize = 256

// queryPlan holds one query's resolved features and, as candidates are
// produced, their viable components. The dominance intersection is
// evaluated candidate-major over the rarest feature's posting list, so an
// early-terminated stream walks a prefix of one posting instead of
// intersecting all of them up front.
type queryPlan struct {
	ix    *Index
	ctx   context.Context  // bounds every verification
	ds    *graph.Dataset   // the candidates' graphs
	prep  *subiso.Prepared // the query, compiled once for every candidate
	feats []feature        // rarest first, feats[0] walked; none: no candidates
	// mu guards states: the producer inserts while verifier workers read.
	// A candidate's entry is its viable components, or nil when its
	// component table could not be read and Verify tests the whole graph.
	mu     sync.Mutex
	states map[graph.ID][]bool
}

// Chunks implements core.QueryPlan: candidates stream out in ascending ID
// order by walking the rarest feature's posting and seeking every other
// feature's posting to the same id, AND-ing viable components feature by
// feature. The component masks are one scratch pair per iteration; only an
// emitted candidate's mask is copied into the plan's states for Verify.
func (p *queryPlan) Chunks() iter.Seq[graph.IDSet] {
	return func(yield func(graph.IDSet) bool) {
		if len(p.feats) == 0 {
			return
		}
		rarest := p.feats[0].Post
		at := make([]int, len(p.feats)) // cursor per feature posting
		var viable, touched []bool
		var chunk graph.IDSet
		for i, id := range rarest.ids {
			if rarest.locs[i].count < p.feats[0].Count {
				continue
			}
			comp, cc, err := p.ix.compsOf(id)
			// An unreadable component table keeps the candidate on its
			// posting and count checks alone; Verify tests the whole graph.
			whole := err != nil
			if !whole {
				viable = cleared(viable, cc)
				markComponents(viable, comp, rarest.locs[i].starts)
				if !anyTrue(viable) {
					continue
				}
			}
			ok := true
			for k := 1; ok && k < len(p.feats); k++ {
				f := &p.feats[k]
				j := seekGE(f.Post.ids, at[k], id)
				at[k] = j
				switch {
				case j == len(f.Post.ids) || f.Post.ids[j] != id || f.Post.locs[j].count < f.Count:
					ok = false
				case !whole:
					touched = cleared(touched, cc)
					markComponents(touched, comp, f.Post.locs[j].starts)
					ok = false
					for c := range viable {
						viable[c] = viable[c] && touched[c]
						ok = ok || viable[c]
					}
				}
			}
			if !ok {
				continue
			}
			var state []bool
			if !whole {
				state = slices.Clone(viable)
			}
			p.mu.Lock()
			if p.states == nil {
				p.states = make(map[graph.ID][]bool)
			}
			p.states[id] = state
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
// first match wins — or against the whole graph when the candidate's
// component table could not be read or does not fit it.
func (p *queryPlan) Verify(id graph.ID) bool {
	g := p.ds.Graph(id)
	if g == nil {
		return false
	}
	p.mu.Lock()
	viable, emitted := p.states[id]
	p.mu.Unlock()
	if !emitted {
		return false
	}
	comp, _, err := p.ix.compsOf(id)
	if viable == nil || err != nil || len(comp) != g.NumVertices() {
		// A mapped table is only validated against its own sections; one
		// that does not fit the graph restricts nothing.
		return p.prep.Exists(p.ctx, g)
	}
	var targets []int
	for c, ok := range viable {
		if ok {
			targets = append(targets, c)
		}
	}
	if len(targets) == 1 {
		return p.prep.ExistsRestricted(p.ctx, g, comp, int32(targets[0]))
	}
	// Parallel per-component verification: the first match cancels the
	// searches still running and those still waiting for a worker.
	ctx, cancel := context.WithCancel(p.ctx)
	defer cancel()
	sem := make(chan struct{}, min(p.ix.opts.Workers, len(targets)))
	var found atomic.Bool
	var wg sync.WaitGroup
	for _, c := range targets {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				return
			}
			defer func() { <-sem }()
			if p.prep.ExistsRestricted(ctx, g, comp, int32(c)) {
				found.Store(true)
				cancel()
			}
		}(c)
	}
	wg.Wait()
	return found.Load()
}

// SizeBytes implements core.Method. A lazily-opened index reports only
// what has been materialized into the heap, which is the point of
// storage=mmap: the mapped file is the OS page cache's problem. The graph
// slots point at the dataset's own graphs and are not counted.
func (ix *Index) SizeBytes() int64 {
	if ix.lazy != nil {
		return ix.lazy.keys.Resident()
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
		return ix.lazy.keys.Len()
	}
	return len(ix.features)
}
