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

// IndexMaintainer is the index-only half of Mutable, for a composite
// engine (the adaptive router) whose sub-engines share its dataset. The
// composite changes the dataset itself, inside Exclusive, which runs f with
// the engine's write lock held: none of the engine's queries or streams
// then sees the shared dataset moved before its index folded the change.
// Inside f, ApplyAdd folds in a graph already in the dataset under its
// assigned ID, and ApplyRemove drops a graph id the dataset has already
// tombstoned. With every lock released, the composite calls CompactIfDue.
type IndexMaintainer interface {
	Exclusive(f func() error) error
	ApplyAdd(ctx context.Context, g *graph.Graph) error
	ApplyRemove(ctx context.Context, id graph.ID) error
	CompactIfDue()
}

var (
	_ IndexMaintainer = (*Engine)(nil)
	_ IndexMaintainer = (*Sharded)(nil)
)

// Epoch implements Mutable: the dataset's version counter.
func (e *Engine) Epoch() uint64 { return e.ds.Epoch() }

// Counts implements Mutable: the dataset's live and removed graph counts.
func (e *Engine) Counts() (live, removed int) { return e.ds.Counts() }

// errEmptyAdd refuses a graph with no vertices.
var errEmptyAdd = errors.New("engine: cannot add an empty graph")

// AddGraph implements Mutable: g joins the dataset under a fresh ID, the
// method folds it into the index and, with an index path, the add is
// journaled. If maintenance or the journal append fails, the add is undone
// before the call returns, so an error never leaves a half-applied add
// live.
func (e *Engine) AddGraph(ctx context.Context, g *graph.Graph) (graph.ID, error) {
	if g == nil || g.NumVertices() == 0 {
		return 0, errEmptyAdd
	}
	id, err := e.applyAdd(ctx, g)
	if err != nil {
		return 0, err
	}
	e.CompactIfDue()
	return id, nil
}

// RemoveGraph implements Mutable: the graph is tombstoned (its ID is never
// reused) and dropped from the index. Removal is correct even without
// index maintenance — the pipeline filters candidates against the
// tombstones — so a failed maintenance step costs index space only.
func (e *Engine) RemoveGraph(ctx context.Context, id graph.ID) error {
	if err := e.applyRemove(ctx, id); err != nil {
		return err
	}
	e.CompactIfDue()
	return nil
}

// Exclusive implements IndexMaintainer: f under the engine's write lock.
func (e *Engine) Exclusive(f func() error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return f()
}

// ApplyAdd implements IndexMaintainer: index-only maintenance, inside
// Exclusive, for a graph already added to the dataset by a composite
// engine. On error the index no longer holds g; the composite tombstones
// it.
func (e *Engine) ApplyAdd(ctx context.Context, g *graph.Graph) error {
	return e.indexAddLocked(g)
}

// ApplyRemove implements IndexMaintainer: index-only maintenance, inside
// Exclusive, for a graph the dataset has already tombstoned.
func (e *Engine) ApplyRemove(ctx context.Context, id graph.ID) error {
	return e.indexRemoveLocked(id)
}

// A mutation is one journaled apply under the write lock (applyAdd,
// applyRemove): dataset change, index maintenance, journal append, and on
// failure the undo, all in one lock hold. Engine, Sharded and cluster.Node
// all compose it the same way, then call CompactIfDue with their own lock
// released. An owner holding its own lock takes it before the engine's.

// applyAdd appends g to the dataset under a fresh ID and maintains and
// journals the index. The ID is consumed even on failure: the slot is
// tombstoned again.
func (e *Engine) applyAdd(ctx context.Context, g *graph.Graph) (graph.ID, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	id := e.ds.Add(g)
	if err := e.indexAddLocked(g); err != nil {
		e.ds.Remove(id)
		return id, err
	}
	return id, nil
}

// applyRemove tombstones id and maintains and journals the index.
func (e *Engine) applyRemove(ctx context.Context, id graph.ID) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.ds.Remove(id) {
		return fmt.Errorf("engine: removing graph %d: %w", id, ErrNoSuchGraph)
	}
	return e.indexRemoveLocked(id)
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
	e.build.SizeBytes = e.method.SizeBytes()
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
	e.build.SizeBytes = e.method.SizeBytes()
	if err := e.journalLocked(recRemove, id); err != nil {
		return fmt.Errorf("engine: journaling the removal of graph %d: %w", id, err)
	}
	return nil
}
