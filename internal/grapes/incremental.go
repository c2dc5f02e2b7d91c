package grapes

import (
	"context"
	"slices"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pathkey"
)

// AddGraphToIndex implements core.Method: the graph's path
// visits are recorded and sorted as Build does, with ranks over the
// graph's own labels, and each of its postings is spliced into the
// existing one. Dataset IDs are append-only, so a freshly added graph's id
// sorts at (or past) the tail of every posting it joins and the
// sorted-postings invariant is kept by a binary-search insert that is an
// append in practice.
func (ix *Index) AddGraphToIndex(g *graph.Graph) error {
	if !ix.built {
		return core.ErrNotBuilt
	}
	// A lazily-opened index materializes fully before its first mutation:
	// the splice below mutates heap postings, which mapped sections cannot
	// back. The engine's next compaction writes the whole index afresh.
	if err := ix.materializeAll(); err != nil {
		return err
	}
	id := g.ID()
	for int(id) >= len(ix.comps) {
		ix.graphs = append(ix.graphs, nil)
		ix.comps = append(ix.comps, nil)
		ix.compCount = append(ix.compCount, 0)
	}
	var pk pathkey.Packing
	pk.Reset(g.Labels(), ix.opts.MaxPathLen)
	rc := pathkey.Recorder{Pk: &pk}
	rc.Record(g)
	ctx := context.Background()
	recs, err := pk.SortRecords(ctx, [][]uint64{rc.Recs})
	if err != nil {
		return err
	}
	keys, posts, err := postings(ctx, &pk, recs)
	if err != nil {
		return err
	}
	for i, key := range keys {
		if p := ix.features[key]; p != nil {
			insertPosting(p, id, posts[i].locs[0])
		} else {
			ix.features[key] = &posts[i]
		}
	}
	comp := make([]int32, g.NumVertices())
	ix.compCount[id] = componentTable(g, comp)
	ix.comps[id] = comp
	ix.graphs[id] = g
	return nil
}

// RemoveGraphFromIndex implements core.Method: the index re-walks the
// label paths of the graph it holds in slot id, cuts id from the posting
// of each distinct one (dropping a posting it empties) and releases the
// graph's component table, so a removal costs the graph's paths, not the
// index. A slot that holds no graph was never indexed: removing it is a
// no-op.
func (ix *Index) RemoveGraphFromIndex(id graph.ID) error {
	if !ix.built {
		return core.ErrNotBuilt
	}
	if int(id) < 0 || int(id) >= len(ix.graphs) || ix.graphs[id] == nil {
		return nil
	}
	if err := ix.materializeAll(); err != nil {
		return err
	}
	g := ix.graphs[id]
	c := pathkey.NewCounter(g.Labels(), ix.opts.MaxPathLen)
	c.Count(g)
	for _, k := range c.Seen {
		key := c.KeyBytes(int(k))
		p := ix.features[canon.Key(key)]
		if p == nil {
			continue
		}
		i, ok := slices.BinarySearch(p.ids, id)
		if !ok {
			continue
		}
		p.ids = slices.Delete(p.ids, i, i+1)
		p.locs = slices.Delete(p.locs, i, i+1)
		if len(p.ids) == 0 {
			delete(ix.features, canon.Key(key))
		}
	}
	ix.graphs[id] = nil
	ix.comps[id] = nil
	ix.compCount[id] = 0
	return nil
}

// insertPosting splices (id, loc) into p keeping ids sorted; refreshing an
// existing entry overwrites it.
func insertPosting(p *posting, id graph.ID, loc location) {
	i, found := slices.BinarySearch(p.ids, id)
	if found {
		p.locs[i] = loc
		return
	}
	p.ids = slices.Insert(p.ids, i, id)
	p.locs = slices.Insert(p.locs, i, loc)
}
