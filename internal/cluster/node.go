package cluster

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
)

// ErrNotOwned is returned when a request addresses a shard the node does
// not currently serve; the coordinator treats it as a failed leg and fails
// over to another owner.
var ErrNotOwned = errors.New("cluster: shard not served by this node")

// NodeConfig configures a shard node.
type NodeConfig struct {
	// Name is the node's identity; it must match a manifest entry.
	Name string
	// Spec is the concrete method spec every shard index is built with.
	// Composite specs (the router) are rejected — routing composes above
	// the cluster, not inside a node.
	Spec string
	// ShardCount is the cluster's logical shard count (the ShardOf
	// modulus); it must agree across all nodes and the coordinator.
	ShardCount int
	// Shards are the logical shards this node initially serves.
	Shards []int
	// IndexPath is the persistence base ("" = none): shard k persists at
	// "<IndexPath>.node-shard-<k>", stamped like a sharded engine's shard
	// file and journaled beside it, so a restart restores unmutated shards
	// instead of rebuilding.
	IndexPath string
	// VerifyWorkers is the node's total verification budget: a stream
	// verifies with all of it (0 = GOMAXPROCS).
	VerifyWorkers int
}

// nodeShard is one logical shard a node serves: an engine.Shard plus the
// shard's cluster state, all guarded by Node.mu. The shard's global ids
// ascend: the initial partition re-homes in parent order, and the
// coordinator assigns fresh ids monotonically and serializes mutations.
type nodeShard struct {
	*engine.Shard
	// epoch is the cluster epoch of the last mutation applied to the
	// shard; 0 since build.
	epoch uint64
	// maxID is the largest global id ever acked into the shard, dead or
	// alive; -1 when none. Fresh-id allocation state for the coordinator,
	// and the re-delivery test: an add of an id at or below it was acked
	// before.
	maxID int64
}

// Node is one cluster member: a set of logical shards, each an
// engine.Shard — the shard type the in-process sharded engine is built
// from, partitioned by the same engine.PartitionShard — a shared label
// dictionary, and the mutation/dump/load surface the coordinator drives.
// All methods are safe for concurrent use: queries take the read side,
// mutations and shard installs the write side (a mutation releases it
// before a compaction of the shard file).
//
// A node is not an engine.Store: the coordinator assigns its graph ids and
// per-shard cluster epochs, and a Store assigns ids by appending to its
// dataset. Each shard is opened alone (engine.OpenShard) with a Store of
// its own, and a mutation takes the node's write lock, then that Store's.
type Node struct {
	mu     sync.RWMutex
	cfg    NodeConfig
	spec   string // canonical
	src    *graph.Dataset
	shards map[int]*nodeShard
	// fanout is how many shards a stream plans at once, as in the
	// in-process sharded engine (engine.ShardFanout).
	fanout int
}

// NewNode builds (or restores) the node's initial shards from its local
// copy of the dataset.
func NewNode(ctx context.Context, src *graph.Dataset, cfg NodeConfig) (*Node, error) {
	if src == nil {
		return nil, errors.New("cluster: nil dataset")
	}
	if cfg.ShardCount < 1 {
		return nil, fmt.Errorf("cluster: shard count %d < 1", cfg.ShardCount)
	}
	if cfg.Spec == "" {
		cfg.Spec = "grapes"
	}
	if cfg.VerifyWorkers <= 0 {
		cfg.VerifyWorkers = runtime.GOMAXPROCS(0)
	}
	d, p, err := engine.ParseSpec(cfg.Spec)
	if err != nil {
		return nil, err
	}
	if d.OpenQuerier != nil {
		return nil, fmt.Errorf("cluster: node requires a concrete indexing method, not composite %q", d.Name)
	}
	n := &Node{cfg: cfg, spec: p.Spec(), src: src, shards: make(map[int]*nodeShard, len(cfg.Shards)),
		fanout: engine.ShardFanout(cfg.VerifyWorkers)}
	seen := make(map[int]bool, len(cfg.Shards))
	for _, k := range cfg.Shards {
		if k < 0 || k >= cfg.ShardCount {
			return nil, fmt.Errorf("cluster: shard %d outside [0, %d)", k, cfg.ShardCount)
		}
		if seen[k] {
			return nil, fmt.Errorf("cluster: duplicate shard %d", k)
		}
		seen[k] = true
		sh, err := n.buildLocal(ctx, k)
		if err != nil {
			return nil, err
		}
		n.shards[k] = sh
	}
	return n, nil
}

// shardIndexPath is shard k's persistence path under the node's base.
func (n *Node) shardIndexPath(k int) string {
	return fmt.Sprintf("%s.node-shard-%d", n.cfg.IndexPath, k)
}

// buildLocal partitions shard k out of the node's local dataset copy and
// opens (with persistence, restores) it.
func (n *Node) buildLocal(ctx context.Context, k int) (*nodeShard, error) {
	sub, global := engine.PartitionShard(n.src, n.cfg.ShardCount, k)
	return n.open(ctx, k, sub, global)
}

// open opens shard k over an assembled sub-dataset.
func (n *Node) open(ctx context.Context, k int, sub *graph.Dataset, global []graph.ID) (*nodeShard, error) {
	opts := []engine.Option{engine.WithSpec(n.cfg.Spec)}
	if n.cfg.IndexPath != "" {
		opts = append(opts, engine.WithIndexPath(n.shardIndexPath(k)))
	}
	sh, err := engine.OpenShard(ctx, sub, global, opts...)
	if err != nil {
		return nil, fmt.Errorf("cluster: opening shard %d: %w", k, err)
	}
	maxID := int64(-1)
	if len(global) > 0 {
		maxID = int64(global[len(global)-1])
	}
	return &nodeShard{Shard: sh, maxID: maxID}, nil
}

// Name returns the node's identity.
func (n *Node) Name() string { return n.cfg.Name }

// Ready reports whether every shard the node serves is ready: a shard
// restored with storage=mmap is not ready while its index is still
// materializing first-touch sections in the background. /readyz reports
// 503 until this turns true, so the coordinator keeps routing to warmed
// replicas.
func (n *Node) Ready() bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	for _, sh := range n.shards {
		if !sh.Engine().Ready() {
			return false
		}
	}
	return true
}

// Spec returns the canonical method spec the node indexes with.
func (n *Node) Spec() string { return n.spec }

// Info reports the node's identity and per-shard serving state.
func (n *Node) Info() InfoResponse {
	n.mu.RLock()
	defer n.mu.RUnlock()
	info := InfoResponse{
		Name:        n.cfg.Name,
		Spec:        n.spec,
		ShardCount:  n.cfg.ShardCount,
		MaxGlobalID: -1,
		Labels:      n.src.Dict.Names(),
	}
	keys := make([]int, 0, len(n.shards))
	for k := range n.shards {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		sh := n.shards[k]
		info.Shards = append(info.Shards, ShardInfo{
			Shard:      k,
			Graphs:     sh.Engine().Dataset().NumAlive(),
			Epoch:      sh.epoch,
			IndexBytes: sh.Engine().Method().SizeBytes(),
		})
		if sh.maxID > info.MaxGlobalID {
			info.MaxGlobalID = sh.maxID
		}
	}
	return info
}

// StaleShardError refuses a stream leg over a shard the node serves below
// the cluster epoch the leg needs (it missed mutations, or was reloaded
// from its dataset file); on the wire it is a 409 with this body.
type StaleShardError struct {
	Shard int    `json:"shard"`
	Epoch uint64 `json:"epoch"`
}

func (e *StaleShardError) Error() string {
	return fmt.Sprintf("cluster: shard %d is at epoch %d, below the leg's need", e.Shard, e.Epoch)
}

// StreamStats yields matching global graph ids across the requested shards
// in ascending order, verifying lazily — the node-local half of the
// cluster's streamed k-way merge — and counting into stats (nil = none).
// Ids <= after are skipped before verification, so a coordinator resuming a
// failed-over stream pays no duplicate verify work. A shard below its
// needed epoch need[i] (need nil: any) refuses the stream with a
// *StaleShardError; q nil (a label no graph on the node carries) matches
// nothing. A filtering failure or context cancellation is yielded once as
// a non-nil error, then the sequence ends.
//
// The node streams through engine.MergeStream with its whole VerifyWorkers
// budget, so its read lock is NOT held across yields and a slow consumer
// never stalls mutations or shard installs. The shard instances are pinned
// at open: a mutation landing mid-stream re-plans them after the stream's
// frontier, and a shard replaced mid-stream (Install, LoadLocal) is still
// read from its pinned instance, which nothing writes to after the swap.
func (n *Node) StreamStats(ctx context.Context, shards []int, need []uint64, q *graph.Graph, after graph.ID, stats *core.PipelineStats) iter.Seq2[graph.ID, error] {
	return engine.MergeStream(ctx, &n.mu, stats, q, after, n.fanout, n.cfg.VerifyWorkers, func() ([]*engine.Shard, error) {
		pinned := make([]*engine.Shard, len(shards))
		for i, k := range shards {
			sh, ok := n.shards[k]
			if !ok {
				return nil, fmt.Errorf("%w: shard %d on node %s", ErrNotOwned, k, n.cfg.Name)
			}
			if need != nil && sh.epoch < need[i] {
				return nil, &StaleShardError{Shard: k, Epoch: sh.epoch}
			}
			pinned[i] = sh.Shard
		}
		if q == nil {
			return nil, nil
		}
		return pinned, nil
	})
}

// Add applies a coordinator-routed add: the graph joins shard
// ShardOf(id, ShardCount) under the coordinator-assigned global id and the
// shard index is maintained online and journaled. Re-delivery of an
// already-acked id acks success without re-indexing, so coordinator retries
// are safe.
func (n *Node) Add(ctx context.Context, id graph.ID, epoch uint64, g *graph.Graph) (MutateAck, error) {
	return n.mutate(id, epoch, func(sh *nodeShard) error {
		if int64(id) <= sh.maxID {
			return nil
		}
		// A failed add is undone and not acked, and maxID stays: the
		// coordinator may assign id again, and that add applies.
		if err := sh.Add(ctx, id, g); err != nil {
			return err
		}
		sh.maxID = int64(id)
		return nil
	})
}

// Remove applies a coordinator-routed removal: the graph is tombstoned in
// its shard and the shard index drops its postings. Removing an id the
// node has already tombstoned acks success (idempotent retry); removing an
// id never homed here returns engine.ErrNoSuchGraph.
func (n *Node) Remove(ctx context.Context, id graph.ID, epoch uint64) (MutateAck, error) {
	return n.mutate(id, epoch, func(sh *nodeShard) error {
		local, known := sh.LocalOf(id)
		if !known {
			return fmt.Errorf("cluster: removing graph %d: %w", id, engine.ErrNoSuchGraph)
		}
		if !sh.Engine().Dataset().Alive(local) {
			return nil
		}
		// On error the tombstone stays committed, as in the engine: the
		// removal is already query-correct.
		return sh.Remove(ctx, id)
	})
}

// mutate applies op to the shard owning id under the node's write lock and
// acks it at epoch, then lets the shard compact its index file with the
// lock released, so the node's queries and streams proceed during that
// file write.
func (n *Node) mutate(id graph.ID, epoch uint64, op func(*nodeShard) error) (MutateAck, error) {
	k := engine.ShardOf(id, n.cfg.ShardCount)
	n.mu.Lock()
	sh, ok := n.shards[k]
	if !ok {
		n.mu.Unlock()
		return MutateAck{}, fmt.Errorf("%w: shard %d on node %s", ErrNotOwned, k, n.cfg.Name)
	}
	if err := op(sh); err != nil {
		n.mu.Unlock()
		return MutateAck{}, err
	}
	ack := n.ackLocked(k, sh, epoch)
	n.mu.Unlock()
	sh.Compact()
	return ack, nil
}

// ackLocked moves shard k to the mutation's epoch and acknowledges it.
func (n *Node) ackLocked(k int, sh *nodeShard, epoch uint64) MutateAck {
	sh.epoch = max(sh.epoch, epoch)
	return MutateAck{Node: n.cfg.Name, Shard: k, Epoch: sh.epoch, Graphs: sh.Engine().Dataset().NumAlive()}
}

// DumpGraph is one live graph of a shard dump, in ascending global-id order.
type DumpGraph struct {
	ID    graph.ID
	Graph *graph.Graph
}

// Dump snapshots shard k for re-replication: its live graphs in ascending
// global-id order, the shard's epoch, and the largest id ever homed to it.
// The returned graphs are shared references — they are immutable once in a
// dataset.
func (n *Node) Dump(k int) ([]DumpGraph, uint64, int64, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	sh, ok := n.shards[k]
	if !ok {
		return nil, 0, 0, fmt.Errorf("%w: shard %d on node %s", ErrNotOwned, k, n.cfg.Name)
	}
	out := make([]DumpGraph, 0, sh.Engine().Dataset().NumAlive())
	for id, g := range sh.Graphs() {
		out = append(out, DumpGraph{ID: id, Graph: g})
	}
	return out, sh.epoch, sh.maxID, nil
}

// Install builds shard k from dumped graphs (ascending global ids) and
// installs it at the given epoch, replacing any prior instance — the
// re-replication path. The build runs outside the node's lock; the swap is
// atomic under it.
func (n *Node) Install(ctx context.Context, k int, epoch uint64, maxID int64, graphs []DumpGraph) error {
	if k < 0 || k >= n.cfg.ShardCount {
		return fmt.Errorf("cluster: shard %d outside [0, %d)", k, n.cfg.ShardCount)
	}
	sub := graph.NewDataset(fmt.Sprintf("%s/shard-%d", n.src.Name, k))
	sub.Dict.CopyFrom(&n.src.Dict)
	global := make([]graph.ID, 0, len(graphs))
	var prev graph.ID = -1
	for _, dg := range graphs {
		if dg.ID <= prev {
			return fmt.Errorf("cluster: shard %d dump not ascending (%d after %d)", k, dg.ID, prev)
		}
		if engine.ShardOf(dg.ID, n.cfg.ShardCount) != k {
			return fmt.Errorf("cluster: graph %d does not hash to shard %d", dg.ID, k)
		}
		prev = dg.ID
		global = append(global, dg.ID)
		sub.Add(dg.Graph.ShallowWithID(0))
	}
	sh, err := n.open(ctx, k, sub, global)
	if err != nil {
		return err
	}
	sh.epoch, sh.maxID = epoch, max(sh.maxID, maxID)
	n.mu.Lock()
	n.shards[k] = sh
	n.mu.Unlock()
	return nil
}

// LoadLocal builds shard k from the node's local dataset copy and serves
// it — valid only for shards at epoch 0 (no mutations to miss). The
// coordinator uses it to re-replicate a never-mutated shard without
// streaming a dump.
func (n *Node) LoadLocal(ctx context.Context, k int) error {
	if k < 0 || k >= n.cfg.ShardCount {
		return fmt.Errorf("cluster: shard %d outside [0, %d)", k, n.cfg.ShardCount)
	}
	sh, err := n.buildLocal(ctx, k)
	if err != nil {
		return err
	}
	n.mu.Lock()
	n.shards[k] = sh
	n.mu.Unlock()
	return nil
}
