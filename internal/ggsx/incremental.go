package ggsx

import (
	"repro/internal/core"
	"repro/internal/graph"
)

// AddGraphToIndex implements core.Method: the graph's label
// paths are enumerated with the same DFS as Build and folded into the
// finalized trie. Dataset IDs are append-only, so the sorted-postings
// insert at each node is an append in practice. A node created here starts
// without a rank bitmap and keeps it that way until the next build or load.
func (ix *Index) AddGraphToIndex(g *graph.Graph) error {
	if !ix.built {
		return core.ErrNotBuilt
	}
	// Mutation splices postings in place; a mapped trie materializes into
	// heap form first so the splice has somewhere to live.
	if err := ix.materializeAll(); err != nil {
		return err
	}
	id := g.ID()
	visitTrie(ix.root, g, ix.opts.MaxPathLen, func(n *node) { n.add(id) })
	if int(id) >= ix.nGr {
		ix.nGr = int(id) + 1
	}
	return nil
}

// RemoveGraphFromIndex implements core.Method: graph id's
// postings are cut from every trie node, and subtrees left without any
// postings are pruned. One trie walk is O(index), far below a rebuild's
// path re-enumeration over every graph.
func (ix *Index) RemoveGraphFromIndex(id graph.ID) error {
	if !ix.built {
		return core.ErrNotBuilt
	}
	if err := ix.materializeAll(); err != nil {
		return err
	}
	pruneID(ix.root, id)
	return nil
}

// pruneID removes id from n's postings and recurses, deleting child
// subtrees that end up empty. It reports whether n itself is now empty
// (no postings, no children).
func pruneID(n *node, id graph.ID) bool {
	n.remove(id)
	keep := 0
	for i, c := range n.kids {
		if !pruneID(c, id) {
			n.labels[keep], n.kids[keep] = n.labels[i], c
			keep++
		}
	}
	clear(n.kids[keep:])
	n.labels, n.kids = n.labels[:keep], n.kids[:keep]
	return len(n.ids) == 0 && len(n.kids) == 0
}
