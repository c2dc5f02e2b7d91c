package engine

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"sort"

	"repro/internal/graph"
)

// Shard is one horizontal partition of a sharded index: an Engine over the
// shard's re-homed sub-dataset (see PartitionShard) plus the ascending map
// from its local ids to parent ids. Sharded and cluster.Node are both built
// from it, so restore or build, warm-up, maintenance, journaling and
// compaction exist once, in Engine.
//
// A Shard is also a leg of the merge behind every stream and sharded query
// (Drain, MergeStream); a flat engine streams as one identity leg.
//
// The owner serializes a shard: Add and Remove run under its write lock,
// Graphs, Drain and MergeStream under its read lock, and it takes that lock
// before the shard engine's. CompactIfDue needs no owner lock: it holds the
// shard engine's read lock alone for the file write.
type Shard struct {
	eng      *Engine
	global   []graph.ID // local id -> parent id, ascending
	identity bool       // a flat engine's leg: local ids are parent ids, global unused
}

// OpenShard opens the shard over sub, whose local id i is parent id
// global[i], the way Open opens a flat engine: the WithSpec method is
// restored from WithIndexPath when a loadable file is there, and built and
// saved there otherwise. The file is stamped with the canonical spec rather
// than the method name, so a file written under other build parameters
// never restores into a shard.
func OpenShard(ctx context.Context, sub *graph.Dataset, global []graph.ID, opts ...Option) (*Shard, error) {
	cfg := newConfig(opts)
	_, spec, err := shardSpec(cfg)
	if err != nil {
		return nil, err
	}
	persisted := cfg.indexPath != ""
	e, err := openEngine(ctx, sub, cfg, spec, persisted, persisted)
	if err != nil {
		return nil, err
	}
	return &Shard{eng: e, global: global}, nil
}

// shardSpec resolves the method every shard of cfg is constructed from,
// and its canonical spec. A single WithMethod instance cannot back several
// shards, so shards take a spec.
func shardSpec(cfg config) (*Descriptor, string, error) {
	if cfg.method != nil {
		return nil, "", errors.New("engine: shards construct one method each; select it with WithSpec, not WithMethod")
	}
	d, p, err := ParseSpec(cfg.spec)
	if err != nil {
		return nil, "", err
	}
	return d, p.canonicalSpec(), nil
}

// Engine returns the engine over the shard's sub-dataset; its ids are
// shard-local.
func (sh *Shard) Engine() *Engine { return sh.eng }

func (sh *Shard) empty() bool { return !sh.identity && len(sh.global) == 0 }

// LocalOf maps a parent id to the local id of its re-homed copy. When an
// add rolled back and the same id was re-added, the id is held twice and
// the later copy is returned.
func (sh *Shard) LocalOf(id graph.ID) (graph.ID, bool) {
	i := sh.firstAfter(id) - 1
	if i >= 0 && sh.global[i] == id {
		return graph.ID(i), true
	}
	return 0, false
}

// firstAfter returns the first local id whose parent id exceeds id, by
// binary search over the ascending map.
func (sh *Shard) firstAfter(id graph.ID) int {
	if sh.identity {
		return int(id) + 1
	}
	return sort.Search(len(sh.global), func(i int) bool { return sh.global[i] > id })
}

// Graphs yields the shard's live graphs with their parent ids, ascending.
func (sh *Shard) Graphs() iter.Seq2[graph.ID, *graph.Graph] {
	return func(yield func(graph.ID, *graph.Graph) bool) {
		for local, id := range sh.global {
			if g := sh.eng.ds.Graph(graph.ID(local)); g != nil && !yield(id, g) {
				return
			}
		}
	}
}

// Add re-homes g into the shard as parent id id and maintains the shard's
// index, journaling the add. Parent ids must arrive in ascending order. The
// local slot is taken even when the apply fails; the copy is then
// tombstoned again and dropped from the index.
func (sh *Shard) Add(ctx context.Context, id graph.ID, g *graph.Graph) error {
	if n := len(sh.global); n > 0 && id < sh.global[n-1] {
		return fmt.Errorf("engine: graph %d arrived after graph %d; shard ids must ascend", id, sh.global[n-1])
	}
	sh.global = append(sh.global, id)
	_, err := sh.eng.applyAdd(ctx, g.ShallowWithID(0))
	return err
}

// Remove tombstones the re-homed copy of parent id id and maintains the
// shard's index.
func (sh *Shard) Remove(ctx context.Context, id graph.ID) error {
	local, ok := sh.LocalOf(id)
	if !ok {
		return fmt.Errorf("engine: removing graph %d: %w", id, ErrNoSuchGraph)
	}
	return sh.eng.applyRemove(ctx, local)
}

// CompactIfDue rewrites the shard's index file and starts its journal
// afresh when the last mutation left it due (see Engine.CompactIfDue). The
// owner calls it after every mutation with its own lock released, so its
// queries proceed during the file write.
func (sh *Shard) CompactIfDue() { sh.eng.CompactIfDue() }

// ShardFanout is how many shards a merge plans at once under a
// verification budget — a budget of 1 plans them one at a time, the
// paper's serial measurement mode.
func ShardFanout(budget int) int {
	return max(min(budget, runtime.GOMAXPROCS(0)), 1)
}
