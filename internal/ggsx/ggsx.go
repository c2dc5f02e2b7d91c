// Package ggsx implements GraphGrepSX (Bonnici et al., PRIB 2010): all label
// paths up to a maximum length are enumerated by depth-first search, and
// each path keeps, per graph, the number of its occurrences. Filtering
// keeps graphs whose occurrence counts dominate the query's on every path.
//
// The original stores the paths in a suffix trie that holds each direction
// of a path as its own node. Here a path and its reverse, which always
// carry equal counts, share one canonical key and one posting, in the key
// directory of package pathkey that Grapes uses too: the same filter from
// half the postings.
//
// GraphGrepSX is one of the six indexed subgraph query processing methods
// compared in the reproduced paper (Katsarou, Ntarmos, Triantafillou,
// PVLDB 2015); register.go exposes it to the engine registry as "ggsx".
package ggsx

import (
	"context"
	"iter"
	"math/bits"
	"slices"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pathkey"
	"repro/internal/subiso"
)

// DefaultMaxPathLen is the paper's §4.1 setting for GGSX.
const DefaultMaxPathLen = 4

// Options configures a GGSX index.
type Options struct {
	// MaxPathLen is the maximum path feature size in edges (paper: 4).
	MaxPathLen int
	// Storage selects how a persisted index is held when restored:
	// core.StorageHeap (default) decodes eagerly, core.StorageMmap keeps
	// the container mapped and decodes postings on first touch.
	Storage string
}

func (o *Options) fill() {
	if o.MaxPathLen <= 0 {
		o.MaxPathLen = DefaultMaxPathLen
	}
}

// posting is one path key's occurrences: ascending graph ids and the
// count of each, in path visits. A dense posting also carries a rank bitmap — words has bit
// id set for every id, and rank[w] counts the ids below word w — so finding
// a graph is a bit test plus a popcount instead of a merge step.
type posting struct {
	ids    graph.IDSet
	counts []int32
	words  []uint64
	rank   []int32
}

// index gives p its rank bitmap when the bitmap costs no more than the id
// slice: 12 bytes per 64 ids of span against 4 bytes per id. ids must be
// strictly ascending and non-negative.
func (p *posting) index() {
	n := len(p.ids)
	if n == 0 {
		return
	}
	nw := int(p.ids[n-1])/64 + 1
	if 3*nw > n {
		return
	}
	p.words = make([]uint64, nw)
	p.rank = make([]int32, nw)
	for _, id := range p.ids {
		p.words[id/64] |= 1 << (uint(id) % 64)
	}
	var r int32
	for w, x := range p.words {
		p.rank[w] = r
		r += int32(bits.OnesCount64(x))
	}
}

// rankOf is find for a dense posting.
func (p *posting) rankOf(id graph.ID) (int, bool) {
	w := int(id) / 64
	if w >= len(p.words) {
		return len(p.ids), false
	}
	x, bit := p.words[w], uint64(1)<<(uint(id)%64)
	return int(p.rank[w]) + bits.OnesCount64(x&(bit-1)), x&bit != 0
}

// find returns id's index in p.ids, or where it would be inserted.
func (p *posting) find(id graph.ID) (int, bool) {
	if p.words != nil {
		return p.rankOf(id)
	}
	return slices.BinarySearch(p.ids, id)
}

// add sets id's count, inserting id when absent. A dense posting keeps its
// bitmap in step: it grows when id lands past the span, and every later
// word's rank counts the new id.
func (p *posting) add(id graph.ID, count int32) {
	i, ok := p.find(id)
	if ok {
		p.counts[i] = count
		return
	}
	p.ids = slices.Insert(p.ids, i, id)
	p.counts = slices.Insert(p.counts, i, count)
	if p.words == nil {
		return
	}
	w := int(id) / 64
	for len(p.words) <= w {
		// Every other id lies below a word past the old span.
		p.words = append(p.words, 0)
		p.rank = append(p.rank, int32(len(p.ids)-1))
	}
	p.words[w] |= 1 << (uint(id) % 64)
	for k := w + 1; k < len(p.rank); k++ {
		p.rank[k]++
	}
}

// remove drops id from p, if present.
func (p *posting) remove(id graph.ID) {
	i, ok := p.find(id)
	if !ok {
		return
	}
	p.ids = slices.Delete(p.ids, i, i+1)
	p.counts = slices.Delete(p.counts, i, i+1)
	if p.words == nil {
		return
	}
	w := int(id) / 64
	p.words[w] &^= 1 << (uint(id) % 64)
	for k := w + 1; k < len(p.rank); k++ {
		p.rank[k]--
	}
}

// size estimates p's heap bytes.
func (p *posting) size() int64 {
	return int64(len(p.ids))*4 + int64(len(p.counts))*4 + int64(len(p.words))*8 + int64(len(p.rank))*4
}

// finalize copies p to its exact length and gives it its rank bitmap.
func (p *posting) finalize() {
	p.ids = append(make(graph.IDSet, 0, len(p.ids)), p.ids...)
	p.counts = append(make([]int32, 0, len(p.counts)), p.counts...)
	p.index()
}

// Index is a built GraphGrepSX index. Create with New, then Build.
type Index struct {
	opts Options
	// features maps canonical path keys to postings.
	features map[canon.Key]*posting
	// lazy, when non-nil, backs the index with a mapped container
	// (storage=mmap): features is nil, and postings resolve through it.
	lazy  *pathkey.Mapped[posting]
	nGr   int
	built bool
}

// New returns an unbuilt GGSX index.
func New(opts Options) *Index {
	opts.fill()
	return &Index{opts: opts}
}

// Name implements core.Method.
func (ix *Index) Name() string { return "GGSX" }

// Build implements core.Method: every label path of every live graph is
// counted by its canonical key, numbered over the dataset's alphabet in
// one pathkey.Counter. Graphs are visited in ascending id order, so each
// key's posting is built by appends.
func (ix *Index) Build(ctx context.Context, ds *graph.Dataset) error {
	c := pathkey.NewCounter(pathkey.Alphabet(ds), ix.opts.MaxPathLen)
	var posts []posting
	for _, g := range ds.Graphs {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !ds.Alive(g.ID()) {
			continue // tombstoned slots index nothing
		}
		c.Count(g)
		for _, k := range c.Seen {
			if int(k) == len(posts) {
				posts = append(posts, posting{})
			}
			p := &posts[k]
			p.ids = append(p.ids, g.ID())
			p.counts = append(p.counts, c.Visits[k])
		}
	}
	ix.features = make(map[canon.Key]*posting, len(posts))
	for k := range posts {
		posts[k].finalize()
		ix.features[canon.Key(c.KeyBytes(k))] = &posts[k]
	}
	ix.lazy = nil
	ix.nGr = ds.Len()
	ix.built = true
	return nil
}

// queryPaths is GGSX's analysis of a query (Analyze): its distinct
// canonical path keys with their visit counts, and the compiled query.
type queryPaths struct {
	pathkey.Query
	prep *subiso.Prepared
}

// feature is one distinct query path resolved against one index.
type feature = pathkey.Feature[posting]

// dominates reports whether graph id holds every feature's path at least
// as often as the query does. js are the sparse postings' merge cursors,
// which only move forward: ids are probed in ascending order.
func dominates(feats []feature, js []int, id graph.ID) bool {
	for k := range feats {
		f := &feats[k]
		p := f.Post
		if p.words != nil {
			i, ok := p.rankOf(id)
			if !ok || p.counts[i] < f.Count {
				return false
			}
			continue
		}
		j := js[k]
		for j < len(p.ids) && p.ids[j] < id {
			j++
		}
		js[k] = j
		if j == len(p.ids) || p.ids[j] != id || p.counts[j] < f.Count {
			return false
		}
	}
	return true
}

// chunkSize is the lazy producer's emission granularity.
const chunkSize = 256

// Analyze implements core.Method: the query's paths and the compiled query.
func (ix *Index) Analyze(q *graph.Graph) core.Analysis {
	return &queryPaths{Query: pathkey.Extract(q, ix.opts.MaxPathLen), prep: subiso.Compile(q, subiso.Options{})}
}

// Probe implements core.Method: graphs whose counts dominate the query's
// on every query path, verified against whole graphs. Each distinct query
// path is looked up once, and the features are ordered by this index's
// posting cardinalities; then candidates stream out in ascending ID order
// by walking the rarest feature's posting and probing the others, rarest
// first, until one rejects — in O(1) for a dense posting, by a forward
// merge cursor for a sparse one. An early-terminated stream touches a
// prefix of the driving posting. A query path absent from the index
// empties the candidate set.
func (ix *Index) Probe(ctx context.Context, ds *graph.Dataset, a core.Analysis) (core.QueryPlan, error) {
	if !ix.built {
		return nil, core.ErrNotBuilt
	}
	qp, ok := a.(*queryPaths)
	if !ok {
		return nil, core.ErrForeignAnalysis
	}
	feats, ok, err := pathkey.Resolve(&qp.Query, ix.features, cardinality, ix.lazy)
	if err != nil {
		return nil, err
	}
	var chunks iter.Seq[graph.IDSet]
	switch {
	case !ok:
		chunks = func(yield func(graph.IDSet) bool) {}
	case len(feats) == 0:
		// A query with no enumerable paths constrains nothing.
		chunks = core.AllSlots(ix.nGr)
	default:
		chunks = probe(feats)
	}
	return core.WholeGraphPlan(ctx, ds, qp.prep, chunks), nil
}

func cardinality(p *posting) int { return len(p.ids) }

// probe streams the graphs that meet every feature, which come rarest
// first: the rarest drives, the others are probed in order until one
// rejects.
func probe(feats []feature) iter.Seq[graph.IDSet] {
	driver, others := feats[0], feats[1:]
	return func(yield func(graph.IDSet) bool) {
		js := make([]int, len(others))
		var chunk graph.IDSet
		for i, id := range driver.Post.ids {
			if driver.Post.counts[i] < driver.Count || !dominates(others, js, id) {
				continue
			}
			chunk = append(chunk, id)
			if len(chunk) == chunkSize {
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

// SizeBytes implements core.Method. A lazily-opened index reports only
// the decoded postings.
func (ix *Index) SizeBytes() int64 {
	if ix.lazy != nil {
		return ix.lazy.Resident()
	}
	var sz int64
	for key, p := range ix.features {
		sz += int64(len(key)) + 48 + p.size()
	}
	return sz
}

// NumFeatures returns the number of distinct indexed path features, one
// per path and its reverse.
func (ix *Index) NumFeatures() int {
	if ix.lazy != nil {
		return ix.lazy.Len()
	}
	return len(ix.features)
}
