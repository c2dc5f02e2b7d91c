package engine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// ErrNoSuchGraph is returned by RemoveGraph when the id names no live
// graph — out of range, or already removed.
var ErrNoSuchGraph = errors.New("engine: no live graph with that id")

// ErrNotMutable is returned by a Querier that cannot apply a mutation: a
// composite whose sub-engine lacks index maintenance.
var ErrNotMutable = errors.New("engine: engine does not support mutation")

// ErrUnavailable marks a mutation that no replica could apply right now —
// a cluster shard with no reachable owner. Nothing was applied, so the
// client may retry; the serving layer answers it with 503.
var ErrUnavailable = errors.New("engine: no replica available")

// Mutable is the online-mutation capability of an engine: live datasets
// grow and shrink without a full offline rebuild. Every Querier embeds it.
//
// AddGraph appends a graph under a fresh dataset ID and folds it into the
// index — incrementally when the method implements core.IncrementalIndexer,
// by rebuilding the affected structures otherwise (a sharded engine
// rebuilds only the owning shard). RemoveGraph tombstones the graph: the
// dataset slot is retained, the query pipeline filters the id out of every
// candidate set, and incremental indexers additionally drop its postings.
// Epoch returns the dataset's monotonically increasing version, bumped by
// every mutation — the stamp the serving layer's result cache and the
// persisted index files validate against. Counts returns the live and
// removed graph counts; like Epoch it never waits on a running mutation,
// so /stats stays responsive during a slow rebuild.
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

// IndexMaintainer is the index-only half of Mutable: maintenance for a
// graph a composite engine (the adaptive router) already added to — or
// removed from — the shared dataset itself. ApplyAdd must be given a graph
// that is already in the engine's dataset under its assigned ID;
// ApplyRemove a graph id the dataset has already tombstoned.
type IndexMaintainer interface {
	ApplyAdd(ctx context.Context, g *graph.Graph) error
	ApplyRemove(ctx context.Context, id graph.ID) error
}

var (
	_ IndexMaintainer = (*Engine)(nil)
	_ IndexMaintainer = (*Sharded)(nil)
)

// Epoch implements Mutable: the dataset's version counter.
func (e *Engine) Epoch() uint64 { return e.ds.Epoch() }

// Counts implements Mutable: the dataset's live and removed graph counts.
func (e *Engine) Counts() (live, removed int) { return e.ds.Counts() }

// AddGraph implements Mutable: g joins the dataset under a fresh ID and the
// index is maintained — incrementally for core.IncrementalIndexer methods,
// by rebuild otherwise. If index maintenance fails, the added graph is
// tombstoned again so a half-applied add can never surface wrong answers.
func (e *Engine) AddGraph(ctx context.Context, g *graph.Graph) (graph.ID, error) {
	if g == nil || g.NumVertices() == 0 {
		return 0, errors.New("engine: cannot add an empty graph")
	}
	e.mu.Lock()
	id := e.ds.Add(g)
	if err := e.applyAddLocked(ctx, g); err != nil {
		e.ds.Remove(id)
		e.mu.Unlock()
		return 0, err
	}
	e.mu.Unlock()
	if err := e.persist(); err != nil {
		// Keep "error => no live mutation": the add committed in memory
		// but its persistence failed, so roll it back (tombstone + posting
		// drop). The stale on-disk file fails its epoch/tag check on the
		// next open and rebuilds.
		e.mu.Lock()
		e.ds.Remove(id)
		if inc, ok := e.method.(core.IncrementalIndexer); ok {
			_ = inc.RemoveGraphFromIndex(id)
		}
		e.mu.Unlock()
		return 0, err
	}
	return id, nil
}

// RemoveGraph implements Mutable: the graph is tombstoned (its ID is never
// reused) and, for incremental indexers, its postings dropped from the
// index. Removal is correct even without index maintenance — the pipeline
// filters candidates against the tombstones — so a failed maintenance step
// falls back to a rebuild only to reclaim index space.
func (e *Engine) RemoveGraph(ctx context.Context, id graph.ID) error {
	e.mu.Lock()
	if !e.ds.Remove(id) {
		e.mu.Unlock()
		return fmt.Errorf("engine: removing graph %d: %w", id, ErrNoSuchGraph)
	}
	if err := e.applyRemoveLocked(ctx, id); err != nil {
		e.mu.Unlock()
		return err
	}
	e.mu.Unlock()
	// A persist failure surfaces, but the tombstone stays committed: the
	// removal is already query-correct, and un-removing would be the one
	// thing worse than a stale file (which the epoch/tag check catches).
	return e.persist()
}

// ApplyAdd implements IndexMaintainer: index-only maintenance for a graph
// already added to the dataset by a composite engine.
func (e *Engine) ApplyAdd(ctx context.Context, g *graph.Graph) error {
	e.mu.Lock()
	if err := e.applyAddLocked(ctx, g); err != nil {
		e.mu.Unlock()
		return err
	}
	e.mu.Unlock()
	return e.persist()
}

// ApplyRemove implements IndexMaintainer: index-only maintenance for a
// graph the dataset has already tombstoned.
func (e *Engine) ApplyRemove(ctx context.Context, id graph.ID) error {
	e.mu.Lock()
	if err := e.applyRemoveLocked(ctx, id); err != nil {
		e.mu.Unlock()
		return err
	}
	e.mu.Unlock()
	return e.persist()
}

func (e *Engine) applyAddLocked(ctx context.Context, g *graph.Graph) error {
	if inc, ok := e.method.(core.IncrementalIndexer); ok {
		if err := inc.AddGraphToIndex(g); err == nil {
			e.build.SizeBytes = e.method.SizeBytes()
			return nil
		}
		// An incremental failure falls through to the rebuild: the index
		// may be half-mutated and cannot be trusted.
	}
	return e.rebuildLocked(ctx)
}

func (e *Engine) applyRemoveLocked(ctx context.Context, id graph.ID) error {
	if inc, ok := e.method.(core.IncrementalIndexer); ok {
		if err := inc.RemoveGraphFromIndex(id); err != nil {
			return e.rebuildLocked(ctx)
		}
	}
	// Non-incremental methods need no index work: the tombstone filter
	// already guarantees the removed graph never surfaces.
	e.build.SizeBytes = e.method.SizeBytes()
	return nil
}

// rebuildLocked rebuilds the whole index over the current dataset — the
// fallback for methods without incremental maintenance. The rebuild always
// happens on a pristine instance, installed only after its Build succeeds:
// rebuilding the held instance in place would wipe the live index first,
// and a mid-rebuild failure (context cancellation) would then leave a
// silently empty index serving empty answers. Engines opened with
// WithMethod have no way to construct a pristine instance, so their
// rebuild path errors out with the live index untouched; the caller rolls
// the dataset mutation back.
func (e *Engine) rebuildLocked(ctx context.Context) error {
	if e.fresh == nil {
		return fmt.Errorf("engine: %s needs a rebuild to apply this mutation, but the engine was opened with WithMethod and cannot construct a pristine instance; open by spec, or use a method with incremental maintenance", e.method.Name())
	}
	m, err := e.fresh()
	if err != nil {
		return err
	}
	st, err := core.BuildTimed(ctx, m, e.ds)
	if err != nil {
		return fmt.Errorf("engine: rebuilding %s after mutation: %w", e.method.Name(), err)
	}
	e.method = m
	e.build = st
	e.restored = false
	e.proc = &core.Processor{Method: m, DS: e.ds, VerifyWorkers: e.verifyWorkers}
	return nil
}

// persist re-persists the index at the configured path with the current
// epoch+tag stamp, so a process that reopens the *same dataset state* (an
// in-process reopen, or a data file that already reflects the mutations)
// restores the mutated index instead of rebuilding. A restart that
// reloads a pre-mutation data file will not match the stamp and rebuilds
// — by design: restoring mutation-era postings against a dataset that
// lacks the mutations would answer wrongly.
//
// The O(index) file write runs under the *read* lock: concurrent queries
// proceed during it, and only other mutations wait. That is safe because
// SaveIndex only reads a heap-resident index — the mutation that leads
// here already materialized a storage=mmap one under the write lock —
// and Tree+Δ, whose queries write to the index, locks itself. If another
// mutation slipped in between the write-locked apply and this snapshot,
// the file simply captures the newer — still consistent — state. Engines
// opened without WithIndexPath skip it.
func (e *Engine) persist() error {
	if e.indexPath == "" {
		return nil
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return writeIndexFile(e.indexPath, e.method, stampOf(e.ds, e.method.Name()))
}

// Epoch implements Mutable: the dataset's version counter.
func (s *Sharded) Epoch() uint64 { return s.ds.Epoch() }

// Counts implements Mutable: the parent dataset's live and removed counts.
func (s *Sharded) Counts() (live, removed int) { return s.ds.Counts() }

// AddGraph implements Mutable for the sharded engine: g joins the parent
// dataset under a fresh ID, is re-homed into its ShardOf shard, and only
// that shard's index is maintained (incrementally when the method supports
// it). With persistence configured, only the owning shard's file and the
// manifest are rewritten.
func (s *Sharded) AddGraph(ctx context.Context, g *graph.Graph) (graph.ID, error) {
	if g == nil || g.NumVertices() == 0 {
		return 0, errors.New("engine: cannot add an empty graph")
	}
	s.mu.Lock()
	id := s.ds.Add(g)
	if err := s.applyAddLocked(ctx, g); err != nil {
		s.rollbackAddLocked(id)
		s.mu.Unlock()
		return 0, err
	}
	si := ShardOf(id, len(s.shards))
	s.mu.Unlock()
	if err := s.persistShard(si); err != nil {
		// Keep "error => no live mutation", mirroring the flat engine.
		s.mu.Lock()
		s.rollbackAddLocked(id)
		s.mu.Unlock()
		return 0, err
	}
	return id, nil
}

// rollbackAddLocked undoes a (possibly half-applied) add of id: the
// parent tombstone, the shard sub-dataset tombstone of the re-homed copy,
// and its postings when the shard index is incremental.
func (s *Sharded) rollbackAddLocked(id graph.ID) {
	s.ds.Remove(id)
	sh := s.shards[ShardOf(id, len(s.shards))]
	local, ok := sh.localOf(id)
	if !ok {
		return // the failure hit before re-homing
	}
	if sh.sub.Remove(local) {
		if inc, ok := sh.method.(core.IncrementalIndexer); ok {
			_ = inc.RemoveGraphFromIndex(local)
		}
	}
}

// RemoveGraph implements Mutable for the sharded engine: the graph is
// tombstoned in both the parent dataset and its shard's sub-dataset, the
// shard's index postings dropped when the method is incremental, and only
// that shard's file (plus the manifest) rewritten under persistence.
func (s *Sharded) RemoveGraph(ctx context.Context, id graph.ID) error {
	s.mu.Lock()
	if !s.ds.Remove(id) {
		s.mu.Unlock()
		return fmt.Errorf("engine: removing graph %d: %w", id, ErrNoSuchGraph)
	}
	if err := s.applyRemoveLocked(ctx, id); err != nil {
		s.mu.Unlock()
		return err
	}
	s.mu.Unlock()
	// The tombstone stays committed on a persist failure, like the flat
	// engine: the removal is already query-correct.
	return s.persistShard(ShardOf(id, len(s.shards)))
}

// ApplyAdd implements IndexMaintainer: shard re-homing and index
// maintenance for a graph already added to the parent dataset.
func (s *Sharded) ApplyAdd(ctx context.Context, g *graph.Graph) error {
	s.mu.Lock()
	if err := s.applyAddLocked(ctx, g); err != nil {
		s.mu.Unlock()
		return err
	}
	si := ShardOf(g.ID(), len(s.shards))
	s.mu.Unlock()
	return s.persistShard(si)
}

// ApplyRemove implements IndexMaintainer: shard-local tombstone and index
// maintenance for a graph the parent dataset has already tombstoned.
func (s *Sharded) ApplyRemove(ctx context.Context, id graph.ID) error {
	s.mu.Lock()
	if err := s.applyRemoveLocked(ctx, id); err != nil {
		s.mu.Unlock()
		return err
	}
	s.mu.Unlock()
	return s.persistShard(ShardOf(id, len(s.shards)))
}

func (s *Sharded) applyAddLocked(ctx context.Context, g *graph.Graph) error {
	si := ShardOf(g.ID(), len(s.shards))
	sh := s.shards[si]
	// A still-deferred shard loads now: incremental maintenance needs the
	// restored index, not an unbuilt instance (which would force a rebuild).
	if err := s.ensureShard(ctx, si); err != nil {
		return err
	}
	wasEmpty := sh.empty()
	sh.global = append(sh.global, g.ID()) // parent ids stay ascending, so toGlobal stays monotonic
	local := sh.sub.Add(g.ShallowWithID(0))
	if !wasEmpty {
		// A shard that was empty at open time never built its index, so it
		// takes the rebuild path below regardless of the method.
		if inc, ok := sh.method.(core.IncrementalIndexer); ok {
			if err := inc.AddGraphToIndex(sh.sub.Graphs[local]); err == nil {
				s.refreshSizeLocked()
				return nil
			}
		}
	}
	return s.rebuildShardLocked(ctx, si)
}

func (s *Sharded) applyRemoveLocked(ctx context.Context, id graph.ID) error {
	si := ShardOf(id, len(s.shards))
	sh := s.shards[si]
	if err := s.ensureShard(ctx, si); err != nil {
		return err
	}
	local, ok := sh.localOf(id)
	if !ok {
		return fmt.Errorf("engine: graph %d not re-homed in shard %d", id, si)
	}
	if !sh.sub.Remove(local) {
		return fmt.Errorf("engine: removing graph %d from shard %d: %w", id, si, ErrNoSuchGraph)
	}
	if inc, ok := sh.method.(core.IncrementalIndexer); ok {
		if err := inc.RemoveGraphFromIndex(local); err != nil {
			return s.rebuildShardLocked(ctx, si)
		}
	}
	s.refreshSizeLocked()
	return nil
}

// localOf maps a parent-dataset id to the shard-local id of its re-homed
// copy, via binary search over the ascending global mapping.
func (sh *shard) localOf(id graph.ID) (graph.ID, bool) {
	lo, hi := 0, len(sh.global)
	for lo < hi {
		mid := (lo + hi) / 2
		if sh.global[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(sh.global) && sh.global[lo] == id {
		return graph.ID(lo), true
	}
	return 0, false
}

// rebuildShardLocked rebuilds shard si's index alone over its current
// sub-dataset, from a pristine method instance.
func (s *Sharded) rebuildShardLocked(ctx context.Context, si int) error {
	sh := s.shards[si]
	fresh, err := s.desc.New(s.params)
	if err != nil {
		return err
	}
	st, err := core.BuildTimed(ctx, fresh, sh.sub)
	if err != nil {
		return fmt.Errorf("engine: rebuilding shard %d/%d after mutation: %w", si, len(s.shards), err)
	}
	sh.method = fresh
	sh.build = st
	sh.restored = false
	s.refreshSizeLocked()
	return nil
}

// refreshSizeLocked recomputes the aggregate index size after a mutation.
func (s *Sharded) refreshSizeLocked() {
	var size int64
	for _, sh := range s.shards {
		size += sh.method.SizeBytes()
	}
	s.build.SizeBytes = size
}

// persistShard rewrites shard si's index file and the manifest (the epoch
// moved) when persistence is configured — the shard-local rewrite that
// keeps mutation IO proportional to one shard, not the dataset. Like
// Engine.persist it runs under the read lock, so queries proceed during
// the file write and only other mutations wait.
func (s *Sharded) persistShard(si int) error {
	if s.indexPath == "" {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.saveShardIndex(s.indexPath, si); err != nil {
		return err
	}
	return s.writeManifest(s.indexPath)
}
