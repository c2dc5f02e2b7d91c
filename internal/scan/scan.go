// Package scan implements the paper's naive baseline: no index at all,
// every query is tested for subgraph isomorphism against every graph in the
// dataset. The introduction motivates the six indexing methods against
// exactly this method; the benchmark harness includes it so the speedups
// the indexes buy are visible in every figure. It is the baseline of the
// reproduced paper (Katsarou, Ntarmos, Triantafillou, PVLDB 2015);
// register.go exposes it to the engine registry as "noindex".
package scan

import (
	"context"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/subiso"
)

// Index is the no-op "index" of the sequential-scan baseline.
type Index struct {
	n     int
	built bool
}

// New returns the baseline method.
func New() *Index { return &Index{} }

// Name implements core.Method.
func (ix *Index) Name() string { return "NoIndex" }

// Build implements core.Method; the scan baseline has no build work.
func (ix *Index) Build(ctx context.Context, ds *graph.Dataset) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ix.n = ds.Len()
	ix.built = true
	return nil
}

// Analyze implements core.Method: the compiled query.
func (ix *Index) Analyze(q *graph.Graph) core.Analysis {
	return subiso.Compile(q, subiso.Options{})
}

// Probe implements core.Method: every graph slot is a candidate, emitted by
// the all-slots producer, so the verification stage performs the full scan.
func (ix *Index) Probe(ctx context.Context, ds *graph.Dataset, a core.Analysis) (core.QueryPlan, error) {
	if !ix.built {
		return nil, core.ErrNotBuilt
	}
	prep, ok := a.(*subiso.Prepared)
	if !ok {
		return nil, core.ErrForeignAnalysis
	}
	return core.WholeGraphPlan(ctx, ds, prep, core.AllSlots(ix.n)), nil
}

// AddGraphToIndex implements core.Method: the scan covers every slot up to
// the added graph's.
func (ix *Index) AddGraphToIndex(g *graph.Graph) error {
	if !ix.built {
		return core.ErrNotBuilt
	}
	ix.n = max(ix.n, int(g.ID())+1)
	return nil
}

// RemoveGraphFromIndex implements core.Method: the tombstone filter drops
// the slot, and the scan holds nothing else.
func (ix *Index) RemoveGraphFromIndex(id graph.ID) error {
	if !ix.built {
		return core.ErrNotBuilt
	}
	return nil
}

// SizeBytes implements core.Method: the baseline stores nothing.
func (ix *Index) SizeBytes() int64 { return 0 }
