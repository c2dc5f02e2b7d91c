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
// (Drain, MergeStream), and the Maintainer of its engine's index: a flat
// engine streams as, and is maintained through, one identity leg.
//
// The sub-dataset keeps its own tombstones: the pipeline filters each leg
// against its own dataset, and the shard's index file is stamped with the
// sub-dataset's epoch and tag. They are derived from the owner's:
// PartitionShard copies them at open, and afterwards only the shard's own
// add and remove write them, under the lock of the Store its engine
// belongs to — a Sharded engine's Store, which calls Added and Removed, or,
// for a shard opened alone (OpenShard), its own, which Add and Remove take.
type Shard struct {
	eng      *Engine
	global   []graph.ID // local id -> parent id, ascending
	identity bool       // a flat engine's leg: local ids are parent ids, global unused
	// part and of place the shard in a partition of `of` shards: as a
	// Maintainer it takes the graphs ShardOf(id, of) == part. With of 0 it
	// takes every graph it is given.
	part, of int
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
	e, err := openEngine(ctx, &Store{ds: sub}, sub, cfg, spec, persisted, persisted)
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

// Add re-homes g into a shard opened alone (OpenShard) as parent id id and
// maintains and journals the shard's index, under the lock of the shard's
// Store. Parent ids must arrive in ascending order. The local slot is
// taken even when the add fails; the copy is then tombstoned again.
func (sh *Shard) Add(ctx context.Context, id graph.ID, g *graph.Graph) error {
	st := sh.eng.root()
	st.mu.Lock()
	defer st.mu.Unlock()
	return sh.add(id, g)
}

// Remove tombstones the re-homed copy of parent id id in a shard opened
// alone and maintains and journals the shard's index, under the lock of
// the shard's Store.
func (sh *Shard) Remove(ctx context.Context, id graph.ID) error {
	st := sh.eng.root()
	st.mu.Lock()
	defer st.mu.Unlock()
	return sh.remove(id)
}

// Added implements Maintainer: the graph joins the shard if the shard's
// partition places it here.
func (sh *Shard) Added(g *graph.Graph) error {
	if !sh.places(g.ID()) {
		return nil
	}
	return sh.add(g.ID(), g)
}

// Removed implements Maintainer: the graph leaves the shard if the shard's
// partition places it here.
func (sh *Shard) Removed(g *graph.Graph) error {
	if !sh.places(g.ID()) {
		return nil
	}
	return sh.remove(g.ID())
}

// Compact implements Maintainer: the shard's index file is rewritten and
// its journal started afresh when the last mutation left it due (see
// Engine.compact).
func (sh *Shard) Compact() { sh.eng.compact() }

func (sh *Shard) places(id graph.ID) bool {
	return sh.of == 0 || ShardOf(id, sh.of) == sh.part
}

// add folds parent id id into the shard: an identity leg's dataset already
// holds g, a partition shard re-homes it first.
func (sh *Shard) add(id graph.ID, g *graph.Graph) error {
	if sh.identity {
		return sh.eng.indexAddLocked(g)
	}
	if n := len(sh.global); n > 0 && id < sh.global[n-1] {
		return fmt.Errorf("engine: graph %d arrived after graph %d; shard ids must ascend", id, sh.global[n-1])
	}
	sh.global = append(sh.global, id)
	local := g.ShallowWithID(0)
	sh.eng.ds.Add(local)
	if err := sh.eng.indexAddLocked(local); err != nil {
		sh.eng.ds.Remove(local.ID())
		return err
	}
	return nil
}

// remove drops parent id id from the shard: an identity leg's dataset has
// already tombstoned it, a partition shard tombstones its copy first.
func (sh *Shard) remove(id graph.ID) error {
	if sh.identity {
		return sh.eng.indexRemoveLocked(id)
	}
	local, ok := sh.LocalOf(id)
	if !ok || !sh.eng.ds.Remove(local) {
		return fmt.Errorf("engine: removing graph %d: %w", id, ErrNoSuchGraph)
	}
	return sh.eng.indexRemoveLocked(local)
}

// ShardFanout is how many shards a merge plans at once under a
// verification budget — a budget of 1 plans them one at a time, the
// paper's serial measurement mode.
func ShardFanout(budget int) int {
	return max(min(budget, runtime.GOMAXPROCS(0)), 1)
}
