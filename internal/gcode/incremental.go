package gcode

import (
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
)

// codeLess is the index's sort order: (labelBits, id).
func codeLess(a, b *graphCode) bool {
	if a.labelBits != b.labelBits {
		return a.labelBits < b.labelBits
	}
	return a.id < b.id
}

// AddGraphToIndex implements core.Method: the graph is encoded
// exactly as during Build and its code spliced into the sorted structure
// and into its id order.
func (ix *Index) AddGraphToIndex(g *graph.Graph) error {
	if !ix.built {
		return core.ErrNotBuilt
	}
	// Mutation splices the sorted code table in place; a mapped table
	// materializes into heap form first so the splice has somewhere to live.
	if err := ix.materializeAll(); err != nil {
		return err
	}
	gc := ix.encode(g)
	i := sort.Search(len(ix.codes), func(i int) bool { return !codeLess(&ix.codes[i], &gc) })
	ix.codes = slices.Insert(ix.codes, i, gc)
	for k, pos := range ix.byID {
		if pos >= int32(i) {
			ix.byID[k] = pos + 1
		}
	}
	ix.byID = slices.Insert(ix.byID, ix.idRank(gc.id), int32(i))
	return nil
}

// RemoveGraphFromIndex implements core.Method: graph id's code is found
// through the id order and cut out of the structure and the id order. The
// shifts are linear in the number of graphs but touch only the fixed-size
// codes and positions, not the graphs.
func (ix *Index) RemoveGraphFromIndex(id graph.ID) error {
	if !ix.built {
		return core.ErrNotBuilt
	}
	if err := ix.materializeAll(); err != nil {
		return err
	}
	k := ix.idRank(id)
	if k == len(ix.byID) || ix.codes[ix.byID[k]].id != id {
		return nil // already absent: removal is idempotent
	}
	i := ix.byID[k]
	ix.codes = slices.Delete(ix.codes, int(i), int(i)+1)
	ix.byID = slices.Delete(ix.byID, k, k+1)
	for k, pos := range ix.byID {
		if pos > i {
			ix.byID[k] = pos - 1
		}
	}
	return nil
}
