package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/graph"
)

// Store is the one owner of a served dataset: the graph.Dataset (its ids,
// epoch and tombstones), the one lock every query and mutation of it takes,
// and the ordered maintainers whose indexes follow it. Its AddGraph and
// RemoveGraph are the only code that changes a served dataset: Engine,
// Sharded and router.Multi embed their Store, so its Mutable methods are
// theirs. Each changes the dataset and calls every maintainer under the
// write lock, with one rollback rule, and then lets every maintainer
// compact with the lock released:
//
//   - a failed add tombstones the id again and removes it from every
//     maintainer that already took it, so an error leaves no live add;
//   - a failed remove keeps its tombstone, which is already correct for
//     queries; the maintainers after the failing one still drop the graph.
//
// A flat Engine's Store has one maintainer, its index. A Sharded engine's
// has one per shard, each taking the graphs ShardOf places in it. The
// adaptive router joins its sub-engines' Stores into one (Join), and its
// label statistics maintain that Store too.
type Store struct {
	mu     sync.RWMutex
	ds     *graph.Dataset
	maints []Maintainer
	// joined is the Store this one was merged into (Join), nil while this
	// Store serves itself. Every use goes through root.
	joined *Store
}

// Maintainer is an index a Store keeps in step with its dataset. Added and
// Removed run under the Store's write lock, in registration order.
type Maintainer interface {
	// Added folds g, which the dataset just took under g.ID(). On error
	// the maintainer holds nothing of g.
	Added(g *graph.Graph) error
	// Removed drops g, which the dataset just tombstoned: a removal, or
	// the undo of an add this maintainer took. On error the tombstone
	// stands.
	Removed(g *graph.Graph) error
	// Compact runs after every mutation with the write lock released. It
	// takes the read lock itself for whatever file write the mutations
	// left due, so queries proceed during it and writers wait.
	Compact()
}

// root returns the Store st was merged into, or st itself.
func (st *Store) root() *Store {
	for st.joined != nil {
		st = st.joined
	}
	return st
}

// RLock takes the Store's read lock, as every query of its dataset does.
func (st *Store) RLock() { st.root().mu.RLock() }

// RUnlock releases the read lock RLock took.
func (st *Store) RUnlock() { st.root().mu.RUnlock() }

// Dataset returns the served dataset. Engine overrides it with its own
// dataset, which for a shard engine is the shard's sub-dataset.
func (st *Store) Dataset() *graph.Dataset { return st.root().ds }

// errEmptyAdd refuses a graph with no vertices.
var errEmptyAdd = errors.New("engine: cannot add an empty graph")

var _ Mutable = (*Store)(nil)

// Epoch implements Mutable: the dataset's version counter.
func (st *Store) Epoch() uint64 { return st.root().ds.Epoch() }

// Counts implements Mutable: the dataset's live and removed graph counts.
func (st *Store) Counts() (live, removed int) { return st.root().ds.Counts() }

// AddGraph implements Mutable: g joins the dataset under a fresh ID and
// every maintainer folds it in. The ID is consumed even on failure: the
// slot is tombstoned again.
func (st *Store) AddGraph(ctx context.Context, g *graph.Graph) (graph.ID, error) {
	if g == nil || g.NumVertices() == 0 {
		return 0, errEmptyAdd
	}
	st = st.root()
	st.mu.Lock()
	id := st.ds.Add(g)
	var err error
	for i, m := range st.maints {
		if err = m.Added(g); err != nil {
			st.ds.Remove(id)
			for _, took := range st.maints[:i] {
				// A failed undo cannot fail the add more: its tombstone
				// stands, and the journal it failed to append is due.
				_ = took.Removed(g)
			}
			break
		}
	}
	maints := st.maints
	st.mu.Unlock()
	compact(maints)
	if err != nil {
		return 0, err
	}
	return id, nil
}

// RemoveGraph implements Mutable: id is tombstoned (it is never reused) and
// every maintainer drops it. The first maintainer error is returned; the
// tombstone stays.
func (st *Store) RemoveGraph(ctx context.Context, id graph.ID) error {
	st = st.root()
	st.mu.Lock()
	if !st.ds.Remove(id) {
		st.mu.Unlock()
		return fmt.Errorf("engine: removing graph %d: %w", id, ErrNoSuchGraph)
	}
	g := st.ds.Graphs[id]
	var err error
	for _, m := range st.maints {
		if merr := m.Removed(g); merr != nil && err == nil {
			err = merr
		}
	}
	maints := st.maints
	st.mu.Unlock()
	compact(maints)
	return err
}

func compact(maints []Maintainer) {
	for _, m := range maints {
		m.Compact()
	}
}

// Maintain appends m to the Store's maintainers: from the next mutation
// on, m follows the dataset.
func (st *Store) Maintain(m Maintainer) {
	st = st.root()
	st.mu.Lock()
	defer st.mu.Unlock()
	st.maints = append(st.maints, m)
}

// Join makes qs, engines already open over ds, members of one Store and
// returns it: every other Store among them merges into the first engine's,
// its maintainers appended in order, and forwards to it from then on, so
// a write through any member reaches every member's index under one lock.
// Only an Engine or a Sharded engine over ds can join; Join refuses
// anything else before it merges anything. Join while no call is in
// flight on the engines: a call holds the lock of the Store it started on.
func Join(ds *graph.Dataset, qs ...Querier) (*Store, error) {
	stores := make([]*Store, len(qs))
	for i, q := range qs {
		switch e := q.(type) {
		case *Engine:
			stores[i] = e.Store
		case *Sharded:
			stores[i] = e.Store
		default:
			return nil, fmt.Errorf("engine: %T cannot join a Store", q)
		}
		if stores[i].root().ds != ds {
			return nil, fmt.Errorf("engine: %T serves another dataset", q)
		}
	}
	if len(stores) == 0 {
		return nil, errors.New("engine: nothing to join")
	}
	into := stores[0].root()
	for _, st := range stores[1:] {
		if st = st.root(); st == into {
			continue
		}
		into.mu.Lock()
		st.mu.Lock()
		into.maints = append(into.maints, st.maints...)
		st.maints, st.joined = nil, into
		st.mu.Unlock()
		into.mu.Unlock()
	}
	return into, nil
}
