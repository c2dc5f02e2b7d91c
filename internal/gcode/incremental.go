package gcode

import (
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
// exactly as during Build and its code spliced into the sorted structure.
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
	ix.codes = append(ix.codes, graphCode{})
	copy(ix.codes[i+1:], ix.codes[i:])
	ix.codes[i] = gc
	return nil
}

// RemoveGraphFromIndex implements core.Method: graph id's code
// is cut out of the structure. The scan is linear in the number of graphs
// — the sort key leads with labelBits, not id — but touches only the
// fixed-size codes, not the graphs.
func (ix *Index) RemoveGraphFromIndex(id graph.ID) error {
	if !ix.built {
		return core.ErrNotBuilt
	}
	if err := ix.materializeAll(); err != nil {
		return err
	}
	for i := range ix.codes {
		if ix.codes[i].id == id {
			ix.codes = append(ix.codes[:i], ix.codes[i+1:]...)
			return nil
		}
	}
	return nil // already absent: removal is idempotent
}
