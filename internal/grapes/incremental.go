package grapes

import (
	"context"
	"sort"

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
	return nil
}

// RemoveGraphFromIndex implements core.Method: graph id's
// entries are cut from every posting (features left with no graphs are
// dropped) and its component table released. A full posting sweep is
// O(index), far below a rebuild's feature re-enumeration over every graph.
func (ix *Index) RemoveGraphFromIndex(id graph.ID) error {
	if !ix.built {
		return core.ErrNotBuilt
	}
	if err := ix.materializeAll(); err != nil {
		return err
	}
	for key, p := range ix.features {
		i := sort.Search(len(p.ids), func(i int) bool { return p.ids[i] >= id })
		if i >= len(p.ids) || p.ids[i] != id {
			continue
		}
		p.ids = append(p.ids[:i], p.ids[i+1:]...)
		p.locs = append(p.locs[:i], p.locs[i+1:]...)
		if len(p.ids) == 0 {
			delete(ix.features, key)
		}
	}
	if int(id) < len(ix.comps) {
		ix.comps[id] = nil
		ix.compCount[id] = 0
	}
	return nil
}

// insertPosting splices (id, loc) into p keeping ids sorted; refreshing an
// existing entry overwrites it.
func insertPosting(p *posting, id graph.ID, loc location) {
	i := sort.Search(len(p.ids), func(i int) bool { return p.ids[i] >= id })
	if i < len(p.ids) && p.ids[i] == id {
		p.locs[i] = loc
		return
	}
	p.ids = append(p.ids, 0)
	copy(p.ids[i+1:], p.ids[i:])
	p.ids[i] = id
	p.locs = append(p.locs, location{})
	copy(p.locs[i+1:], p.locs[i:])
	p.locs[i] = loc
}
