package ggsx

import (
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pathkey"
)

// AddGraphToIndex implements core.Method: the graph's label paths are
// counted as Build counts them, over the graph's own labels, and each
// path's visit count is spliced into its posting. Dataset IDs are
// append-only, so the sorted-postings insert is an append in practice. A
// posting created here starts without a rank bitmap and keeps it that way
// until the next build or load.
func (ix *Index) AddGraphToIndex(g *graph.Graph) error {
	if !ix.built {
		return core.ErrNotBuilt
	}
	// Mutation splices postings in place; a mapped index materializes into
	// heap form first so the splice has somewhere to live.
	if err := ix.materializeAll(); err != nil {
		return err
	}
	c := pathkey.NewCounter(g.Labels(), ix.opts.MaxPathLen)
	c.Count(g)
	for _, k := range c.Seen {
		key := c.KeyBytes(int(k))
		p := ix.features[canon.Key(key)]
		if p == nil {
			p = &posting{}
			ix.features[canon.Key(key)] = p
		}
		p.add(g.ID(), c.Visits[k])
	}
	ix.nGr = max(ix.nGr, int(g.ID())+1)
	return nil
}

// RemoveGraphFromIndex implements core.Method: graph id is cut from every
// posting, and paths left without any graph are dropped. One sweep is
// O(index), far below a rebuild's path re-enumeration over every graph.
func (ix *Index) RemoveGraphFromIndex(id graph.ID) error {
	if !ix.built {
		return core.ErrNotBuilt
	}
	if err := ix.materializeAll(); err != nil {
		return err
	}
	for key, p := range ix.features {
		p.remove(id)
		if len(p.ids) == 0 {
			delete(ix.features, key)
		}
	}
	return nil
}
