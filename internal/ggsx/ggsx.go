// Package ggsx implements GraphGrepSX (Bonnici et al., PRIB 2010): all label
// paths up to a maximum length are enumerated by depth-first search and
// organized in a suffix-tree-like trie; each trie node stores, per graph, the
// number of occurrences of the corresponding label path. Filtering matches
// the query's path trie against the index trie and keeps graphs whose
// occurrence counts dominate the query's on every path.
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

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/graph"
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
	// the v2 container mapped and materializes trie nodes lazily.
	Storage string
}

func (o *Options) fill() {
	if o.MaxPathLen <= 0 {
		o.MaxPathLen = DefaultMaxPathLen
	}
}

// posting is one trie node's occurrences: ascending graph ids and the
// count of each. A dense posting also carries a rank bitmap — words has bit
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

// add increments id's count, inserting id with a count of 1 when absent.
// A dense posting keeps its bitmap in step: it grows when id lands past the
// span, and every later word's rank counts the new id.
func (p *posting) add(id graph.ID) {
	i, ok := p.find(id)
	if ok {
		p.counts[i]++
		return
	}
	p.ids = slices.Insert(p.ids, i, id)
	p.counts = slices.Insert(p.counts, i, 1)
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

// node is one trie node: the label path from the root to the node is the
// feature; its posting counts the path's occurrences per graph.
type node struct {
	// labels holds the child edge labels, ascending, and kids[i] is the
	// child under labels[i].
	labels []graph.Label
	kids   []*node
	posting
}

// child returns the child under label l, creating an empty one if absent.
func (n *node) child(l graph.Label) *node {
	i, ok := slices.BinarySearch(n.labels, l)
	if !ok {
		n.labels = slices.Insert(n.labels, i, l)
		n.kids = slices.Insert(n.kids, i, &node{})
	}
	return n.kids[i]
}

// lookup returns the child under label l, or nil.
func (n *node) lookup(l graph.Label) *node {
	if i, ok := slices.BinarySearch(n.labels, l); ok {
		return n.kids[i]
	}
	return nil
}

// finalize copies every posting of n's subtree to its exact length and
// gives it its rank bitmap.
func (n *node) finalize() {
	n.ids = append(make(graph.IDSet, 0, len(n.ids)), n.ids...)
	n.counts = append(make([]int32, 0, len(n.counts)), n.counts...)
	n.index()
	for _, c := range n.kids {
		c.finalize()
	}
}

// Index is a built GraphGrepSX index. Create with New, then Build.
type Index struct {
	opts Options
	root *node
	// lazy, when non-nil, backs the trie with a mapped v2 container
	// (storage=mmap): root is nil and nodes resolve through rootRef/child.
	lazy  *lazyTrie
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

// Build implements core.Method: DFS path enumeration per graph, inserted
// into the shared trie with occurrence counting. Graphs are visited in
// ascending id order, so a path's occurrence in graph id either bumps the
// last count of its node's posting or appends (id, 1) to it.
func (ix *Index) Build(ctx context.Context, ds *graph.Dataset) error {
	ix.root = &node{}
	ix.nGr = ds.Len()
	for _, g := range ds.Graphs {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !ds.Alive(g.ID()) {
			continue // tombstoned slots index nothing
		}
		id := g.ID()
		visitTrie(ix.root, g, ix.opts.MaxPathLen, func(n *node) {
			if last := len(n.ids) - 1; last >= 0 && n.ids[last] == id {
				n.counts[last]++
			} else {
				n.ids = append(n.ids, id)
				n.counts = append(n.counts, 1)
			}
		})
	}
	ix.root.finalize()
	ix.built = true
	return nil
}

// visitTrie walks the path enumeration of g keeping a trie cursor stack in
// lockstep with the DFS, so each emitted path costs one child lookup, and
// calls fn on the path's node, created if absent.
func visitTrie(root *node, g *graph.Graph, maxLen int, fn func(*node)) {
	stack := make([]*node, 1, maxLen+2)
	stack[0] = root
	features.VisitPaths(g, maxLen, func(vs []int32) bool {
		depth := len(vs) // trie depth of this path (one level per vertex)
		stack = stack[:depth]
		cur := stack[depth-1].child(g.Label(vs[depth-1]))
		fn(cur)
		stack = append(stack, cur)
		return true
	})
}

// queryTrie is GGSX's analysis of a query (Analyze): the query's label
// paths in the index trie's shape, in one arena, plus its compiled matcher.
// nodes[0] is the root, and a node's children form a sibling list. labels
// holds every node's whole label path.
type queryTrie struct {
	nodes  []qnode
	labels []graph.Label
	// canon counts the canonical nodes, the constraints a match gathers.
	canon int
	prep  *subiso.Prepared
}

// qnode is one query path.
type qnode struct {
	label graph.Label
	count int32 // occurrences of the path in the query
	// first and next are the first child and the next sibling; 0 ends a list.
	first, next int32
	// The path's labels are labels[path : path+depth].
	path, depth int32
	// canon marks a path no greater than its reverse. VisitPaths visits
	// every path from both ends, so a path and its reverse have equal
	// counts in the query and in every indexed graph: one of the two
	// constrains exactly what both do.
	canon bool
}

func buildQueryTrie(q *graph.Graph, maxLen int) *queryTrie {
	qt := &queryTrie{nodes: make([]qnode, 1, 64), labels: make([]graph.Label, 0, 256)}
	stack := make([]int32, 1, maxLen+2)
	features.VisitPaths(q, maxLen, func(vs []int32) bool {
		depth := len(vs)
		stack = stack[:depth]
		parent := stack[depth-1]
		l := q.Label(vs[depth-1])
		c := qt.nodes[parent].first
		for c != 0 && qt.nodes[c].label != l {
			c = qt.nodes[c].next
		}
		if c == 0 {
			c = int32(len(qt.nodes))
			at := len(qt.labels)
			for _, v := range vs {
				qt.labels = append(qt.labels, q.Label(v))
			}
			canon := isCanonical(qt.labels[at:])
			if canon {
				qt.canon++
			}
			qt.nodes = append(qt.nodes, qnode{label: l, next: qt.nodes[parent].first,
				path: int32(at), depth: int32(depth), canon: canon})
			qt.nodes[parent].first = c
		}
		qt.nodes[c].count++
		stack = append(stack, c)
		return true
	})
	return qt
}

// isCanonical reports whether path is lexicographically no greater than its
// reverse.
func isCanonical(path []graph.Label) bool {
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		if path[i] != path[j] {
			return path[i] < path[j]
		}
	}
	return true
}

// pathConstraint is one canonical query path's dominance requirement: a
// candidate must hold the path at least need times.
type pathConstraint struct {
	p    *posting
	need int32
	path []graph.Label
}

// byRarity orders constraints by ascending posting cardinality, then label
// path, so the rarest drives and the likeliest to reject is probed first.
func byRarity(a, b pathConstraint) int {
	if la, lb := len(a.p.ids), len(b.p.ids); la != lb {
		return la - lb
	}
	return slices.Compare(a.path, b.path)
}

// gather appends the constraint of every canonical query path below query
// node qn, whose index counterpart is ixn, and reports false as soon as a
// query path is missing from the index (no graph can contain the query).
// In lazy mode this materializes exactly the index nodes the query reaches.
func (qt *queryTrie) gather(qn int32, ixn trieRef, cons []pathConstraint) ([]pathConstraint, bool, error) {
	for c := qt.nodes[qn].first; c != 0; c = qt.nodes[c].next {
		n := &qt.nodes[c]
		ic, ok, err := ixn.child(n.label)
		if err != nil || !ok {
			return cons, false, err
		}
		if n.canon {
			cons = append(cons, pathConstraint{p: ic.posting(), need: n.count, path: qt.labels[n.path : n.path+n.depth]})
		}
		if cons, ok, err = qt.gather(c, ic, cons); err != nil || !ok {
			return cons, false, err
		}
	}
	return cons, true, nil
}

// dominates reports whether graph id holds every constraint's path at least
// as often as the query does. js are the sparse postings' merge cursors,
// which only move forward: ids are probed in ascending order.
func dominates(cons []pathConstraint, js []int, id graph.ID) bool {
	for k := range cons {
		c := &cons[k]
		p := c.p
		if p.words != nil {
			i, ok := p.rankOf(id)
			if !ok || p.counts[i] < c.need {
				return false
			}
			continue
		}
		j := js[k]
		for j < len(p.ids) && p.ids[j] < id {
			j++
		}
		js[k] = j
		if j == len(p.ids) || p.ids[j] != id || p.counts[j] < c.need {
			return false
		}
	}
	return true
}

// chunkSize is the lazy producer's emission granularity.
const chunkSize = 256

// Analyze implements core.Method: the query trie and the compiled query.
func (ix *Index) Analyze(q *graph.Graph) core.Analysis {
	qt := buildQueryTrie(q, ix.opts.MaxPathLen)
	qt.prep = subiso.Compile(q, subiso.Options{})
	return qt
}

// Probe implements core.Method: graphs whose counts dominate the query's
// on every query path, verified against whole graphs. One constraint per
// path direction is gathered from the index eagerly and sorted by this
// index's posting cardinalities, then candidates stream out in ascending
// ID order by walking the rarest constraint's posting and probing the
// others, rarest first, until one rejects — in O(1) for a dense posting,
// by a forward merge cursor for a sparse one. An early-terminated stream
// touches a prefix of the driving posting. A query path absent from the
// index empties the candidate set.
func (ix *Index) Probe(ctx context.Context, ds *graph.Dataset, a core.Analysis) (core.QueryPlan, error) {
	if !ix.built {
		return nil, core.ErrNotBuilt
	}
	qt, ok := a.(*queryTrie)
	if !ok {
		return nil, core.ErrForeignAnalysis
	}
	root, err := ix.rootRef()
	if err != nil {
		return nil, err
	}
	cons, ok, err := qt.gather(0, root, make([]pathConstraint, 0, qt.canon))
	if err != nil {
		return nil, err
	}
	var chunks iter.Seq[graph.IDSet]
	switch {
	case !ok:
		chunks = func(yield func(graph.IDSet) bool) {}
	case len(cons) == 0:
		// A query with no enumerable paths constrains nothing.
		chunks = core.AllSlots(ix.nGr)
	default:
		chunks = probe(cons)
	}
	return core.WholeGraphPlan(ctx, ds, qt.prep, chunks), nil
}

// probe streams the graphs that meet every constraint: the rarest drives,
// the others are probed rarest first until one rejects.
func probe(cons []pathConstraint) iter.Seq[graph.IDSet] {
	slices.SortFunc(cons, byRarity)
	driver, others := cons[0], cons[1:]
	return func(yield func(graph.IDSet) bool) {
		js := make([]int, len(others))
		var chunk graph.IDSet
		for i, id := range driver.p.ids {
			if driver.p.counts[i] < driver.need || !dominates(others, js, id) {
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
// the materialized nodes.
func (ix *Index) SizeBytes() int64 {
	if ix.lazy != nil {
		return ix.lazy.residentBytes()
	}
	var walk func(n *node) int64
	walk = func(n *node) int64 {
		sz := n.size() + 64
		for _, c := range n.kids {
			sz += 12 + walk(c)
		}
		return sz
	}
	if ix.root == nil {
		return 0
	}
	return walk(ix.root)
}

// NumNodes returns the number of trie nodes (excluding the root).
func (ix *Index) NumNodes() int {
	if ix.lazy != nil {
		return ix.lazy.nodeCount
	}
	var walk func(n *node) int
	walk = func(n *node) int {
		total := 0
		for _, c := range n.kids {
			total += 1 + walk(c)
		}
		return total
	}
	if ix.root == nil {
		return 0
	}
	return walk(ix.root)
}
