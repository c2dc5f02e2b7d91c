package engine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/graph"
)

// ErrNoSuchGraph is returned by RemoveGraph when the id names no live
// graph — out of range, or already removed.
var ErrNoSuchGraph = errors.New("engine: no live graph with that id")

// ErrUnavailable marks a mutation that no replica could apply right now —
// a cluster shard with no reachable owner. Nothing was applied, so the
// client may retry; the serving layer answers it with 503.
var ErrUnavailable = errors.New("engine: no replica available")

// Mutable is the online-mutation capability of an engine: live datasets
// grow and shrink without a full offline rebuild. Every Querier embeds it.
//
// AddGraph appends a graph under a fresh dataset ID and folds it into the
// index (a sharded engine's owning shard); no method rebuilds on a
// mutation. RemoveGraph tombstones the graph: the dataset slot is
// retained, the query pipeline filters the id out of every candidate set,
// and the index drops it. Epoch returns the dataset's monotonically
// increasing version, bumped by every mutation — the stamp the serving
// layer's result cache and the persisted index files validate against.
// Counts returns the live and removed graph counts; like Epoch it never
// waits on a running mutation, so /stats stays responsive during one.
//
// Mutations are serialized against in-flight queries; answers observed
// after a mutation returns reflect it exactly (no eventual consistency
// window).
type Mutable interface {
	AddGraph(ctx context.Context, g *graph.Graph) (graph.ID, error)
	RemoveGraph(ctx context.Context, id graph.ID) error
	Epoch() uint64
	Counts() (live, removed int)
}

// indexAddLocked folds g, already in the dataset, into the index and
// journals it. A failed fold leaves the index unchanged (the
// core.Method contract); a failed append drops g from the index again.
// Either failure leaves the journal due: the caller tombstones g, and the
// dataset then moved with no record, so the next mutation compacts.
func (e *Engine) indexAddLocked(g *graph.Graph) error {
	if err := e.method.AddGraphToIndex(g); err != nil {
		e.jr.due = true
		return err
	}
	if err := e.journalLocked(recAdd, g.ID()); err != nil {
		_ = e.method.RemoveGraphFromIndex(g.ID())
		return fmt.Errorf("engine: journaling the add of graph %d: %w", g.ID(), err)
	}
	return nil
}

// indexRemoveLocked drops id, already tombstoned, from the index and
// journals the removal. On failure the tombstone stays committed — the
// removal is already query-correct, and un-removing would be worse than a
// stale file — and the next mutation compacts.
func (e *Engine) indexRemoveLocked(id graph.ID) error {
	if err := e.method.RemoveGraphFromIndex(id); err != nil {
		e.jr.due = true
		return err
	}
	if err := e.journalLocked(recRemove, id); err != nil {
		return fmt.Errorf("engine: journaling the removal of graph %d: %w", id, err)
	}
	return nil
}
