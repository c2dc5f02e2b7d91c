package router

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/graph"
)

// Epoch implements engine.Mutable: the shared dataset's version counter.
func (m *Multi) Epoch() uint64 { return m.ds.Epoch() }

// Counts implements engine.Mutable: the shared dataset's live and removed
// graph counts.
func (m *Multi) Counts() (live, removed int) { return m.ds.Counts() }

// AddGraph implements engine.Mutable for the router: g joins the shared
// dataset once, then every sub-engine folds it into its own index, all
// inside exclusive. The label-frequency extractor is refreshed so routing
// features track the mutated label distribution.
// If any sub-index fails its maintenance, the added graph is tombstoned
// again: a dataset the sub-indexes disagree on could otherwise answer
// differently depending on where a query routes.
func (m *Multi) AddGraph(ctx context.Context, g *graph.Graph) (graph.ID, error) {
	if g == nil || g.NumVertices() == 0 {
		return 0, errors.New("router: cannot add an empty graph")
	}
	m.mutMu.Lock()
	defer m.mutMu.Unlock()
	var id graph.ID
	err := m.exclusive(func() error {
		id = m.ds.Add(g)
		for i, mt := range m.maints {
			if err := mt.ApplyAdd(ctx, g); err != nil {
				m.ds.Remove(id)
				// Roll the sub-indexes back too: a sharded sub that
				// already re-homed the graph live into its shard
				// sub-dataset would otherwise keep answering with it
				// (shard queries filter against the sub-dataset, not the
				// parent). ApplyRemove tombstones the shard copy / drops
				// postings; best-effort, since the parent tombstone
				// already covers flat engines.
				for j := 0; j <= i; j++ {
					_ = m.maints[j].ApplyRemove(ctx, id)
				}
				return fmt.Errorf("router: adding graph to %s: %w", m.names[i], err)
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	m.ext.observeAdd(g)
	m.writeManifestLocked()
	return id, nil
}

// RemoveGraph implements engine.Mutable for the router: the shared dataset
// tombstones the graph once, then every sub-engine drops it from its own
// index, all inside exclusive.
func (m *Multi) RemoveGraph(ctx context.Context, id graph.ID) error {
	m.mutMu.Lock()
	defer m.mutMu.Unlock()
	err := m.exclusive(func() error {
		if !m.ds.Remove(id) {
			return fmt.Errorf("router: removing graph %d: %w", id, engine.ErrNoSuchGraph)
		}
		// The tombstoned slot retains the graph, so its labels can be
		// subtracted from the routing statistics without a dataset rescan.
		m.ext.observeRemove(m.ds.Graphs[id])
		for i, mt := range m.maints {
			if err := mt.ApplyRemove(ctx, id); err != nil {
				// The tombstone already guarantees the graph never
				// surfaces from any sub-index; the failed maintenance
				// only cost this sub-index its space reclamation.
				return fmt.Errorf("router: removing graph from %s: %w", m.names[i], err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.writeManifestLocked()
	return nil
}

// exclusive runs f, which mutates the shared dataset and every sub-index,
// with every sub-engine's write lock held: a sub streams under its own
// lock alone (the router's is held only for the routing decision), so a
// sub never sees the dataset it shares moved before its own index folded
// the change. The subs then compact with every lock released.
func (m *Multi) exclusive(f func() error) error {
	var hold func(i int) error
	hold = func(i int) error {
		if i == len(m.maints) {
			return f()
		}
		return m.maints[i].Exclusive(func() error { return hold(i + 1) })
	}
	err := hold(0)
	for _, mt := range m.maints {
		mt.CompactIfDue()
	}
	return err
}

// writeManifestLocked refreshes the persisted manifest, whose graph
// count, epoch, and tag the mutation moved. Best-effort like the model
// save on drain: the sub-engines have already rewritten their own files;
// a failed manifest write only costs a rebuild on the next open.
func (m *Multi) writeManifestLocked() {
	if m.indexPath != "" {
		_ = writeManifest(m.indexPath, m.names, m.ds, m.shardsHint())
	}
}
