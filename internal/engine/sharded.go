package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"iter"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// ShardOf returns the shard (in [0, shards)) that graph id is assigned to.
// The assignment is a pure function of the id — an FNV-1a hash of its bytes
// reduced modulo the shard count — so a dataset always partitions the same
// way and persisted shard files remain valid across runs.
func ShardOf(id graph.ID, shards int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	x := uint32(id)
	for i := 0; i < 4; i++ {
		h ^= uint64(byte(x >> (8 * i)))
		h *= prime64
	}
	return int(h % uint64(shards))
}

// ShardIndexPath returns the file path of shard i of a sharded index rooted
// at base: "<base>.shard-<i>". The manifest lives at base itself.
func ShardIndexPath(base string, i int) string {
	return fmt.Sprintf("%s.shard-%d", base, i)
}

// shardManifestMagic heads the manifest file of a persisted sharded index;
// bump the version when the layout changes. v2 added the dataset epoch; v4
// dropped v3's per-shard format list, which one file format made constant;
// v5 dropped the dataset size, epoch and tag, because each shard file's own
// stamps and journal decide whether it restores, so a mutation never
// rewrites the manifest. A manifest of another version mismatches and
// everything rebuilds once.
const shardManifestMagic = "repro-shards v5"

// Sharded is a horizontally partitioned engine over one dataset: the graphs
// are hash-partitioned into N shards, each a Shard — an Engine over its
// re-homed sub-dataset — opened concurrently on a pool bounded by
// GOMAXPROCS, and every query is one k-way merge over the shards' candidate
// cursors (Drain, MergeStream), serving the same QueryResult / iter.Seq2
// surface the unsharded Engine serves. Construct with OpenSharded.
//
// The engine's Store owns the parent dataset and its one lock, which every
// shard engine shares; the shards are its maintainers, in shard order, each
// taking the graphs ShardOf places in it.
//
// Because filtering never produces false negatives and subgraph-isomorphism
// answers depend on each dataset graph alone, a sharded engine returns
// exactly the unsharded engine's answer set for every method (candidate sets
// may differ for the frequent-mining methods, whose feature selection is
// dataset-global).
type Sharded struct {
	*Store      // the unpartitioned dataset's
	shards      []*Shard
	name        string        // method display name
	spec        string        // canonical spec all shards were constructed from
	buildTime   time.Duration // the parallel open's wall time; zero when nothing was built
	restored    int           // non-empty shards restored from disk
	allRestored bool          // every non-empty shard restored (nothing built)
	fanout      int           // shards planned at once (see ShardFanout)
	workers     int           // the verify budget every query's merge verifies with
}

// OpenSharded hash-partitions ds into the given number of shards, builds (or
// restores) one index of the configured method per shard, and returns the
// fan-out engine over them.
//
// Shards open concurrently on a pool bounded by GOMAXPROCS; the first
// failure (or ctx cancellation) stops the remaining opens. With
// WithIndexPath(base), each shard persists independently at
// ShardIndexPath(base, i), with its own journal, under a manifest at base,
// so a corrupt, missing or stale shard file rebuilds alone while the
// healthy shards restore. A manifest that does not match the shard count or
// method spec invalidates all shard files and rebuilds everything.
//
// The method must be selected with WithSpec: OpenSharded constructs one
// instance per shard, so WithMethod's single pre-built instance is rejected.
func OpenSharded(ctx context.Context, ds *graph.Dataset, shards int, opts ...Option) (*Sharded, error) {
	if ds == nil {
		return nil, errors.New("engine: nil dataset")
	}
	if shards < 1 {
		return nil, fmt.Errorf("engine: shard count %d < 1", shards)
	}
	cfg := newConfig(opts)
	d, spec, err := shardSpec(cfg)
	if err != nil {
		return nil, err
	}
	st := &Store{ds: ds}
	s := &Sharded{Store: st, shards: make([]*Shard, shards), name: d.Display, spec: spec, workers: cfg.verifyWorkers}
	s.fanout = ShardFanout(cfg.verifyWorkers)
	manifestOK := false
	if cfg.indexPath != "" {
		if manifestOK, err = s.manifestMatches(cfg.indexPath); err != nil {
			return nil, err
		}
	}

	t0 := time.Now()
	err = ForEachBounded(ctx, shards, runtime.GOMAXPROCS(0), func(ctx context.Context, i int) error {
		sub, global := PartitionShard(ds, shards, i)
		c := cfg
		if c.indexPath != "" {
			c.indexPath = ShardIndexPath(cfg.indexPath, i)
		}
		// A shard file restores only under the manifest that endorses it;
		// an empty shard has nothing to restore. Saves wait until the timed
		// phase is over, so build stats compare like for like with Open's.
		e, err := openEngine(ctx, st, sub, c, spec, manifestOK && len(global) > 0, false)
		if err != nil {
			return fmt.Errorf("engine: shard %d/%d: %w", i, shards, err)
		}
		s.shards[i] = &Shard{eng: e, global: global, part: i, of: shards}
		return nil
	})
	wall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	nonEmpty := 0
	for i, sh := range s.shards {
		st.maints = append(st.maints, sh)
		if sh.empty() {
			continue
		}
		nonEmpty++
		if sh.eng.restored {
			s.restored++
			continue
		}
		s.buildTime = wall
		if cfg.indexPath == "" {
			continue
		}
		if err := sh.eng.Save(sh.eng.indexPath); err != nil {
			return nil, fmt.Errorf("engine: shard %d/%d: %w", i, shards, err)
		}
	}
	s.allRestored = nonEmpty > 0 && s.restored == nonEmpty
	if cfg.indexPath != "" && !manifestOK {
		if err := s.writeManifest(cfg.indexPath); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Ready reports whether every shard engine is ready: false only while a
// restored storage=mmap shard still warms in the background. Queries are
// correct either way.
func (s *Sharded) Ready() bool {
	for _, sh := range s.shards {
		if !sh.eng.Ready() {
			return false
		}
	}
	return true
}

// PartitionShard extracts shard i of an n-way hash partition of ds: a
// sub-dataset of shallow re-homed graphs (with a copy of the parent's label
// dictionary) plus the shard-local -> parent id mapping, ascending. A graph
// the parent has tombstoned is re-homed and immediately tombstoned in the
// sub-dataset, so the mapping stays positional and a removed graph can
// never resurface from a partition built after its removal. The in-process
// Sharded engine and the multi-node cluster tier partition through this one
// function, so a cluster node owning shard i indexes exactly the graphs the
// single-process engine's shard i does.
func PartitionShard(ds *graph.Dataset, n, i int) (*graph.Dataset, []graph.ID) {
	sub := graph.NewDataset(fmt.Sprintf("%s/shard-%d", ds.Name, i))
	sub.Dict.CopyFrom(&ds.Dict)
	var global []graph.ID
	for _, g := range ds.Graphs {
		if ShardOf(g.ID(), n) != i {
			continue
		}
		global = append(global, g.ID())
		local := sub.Add(g.ShallowWithID(0)) // Add assigns the shard-local id
		if !ds.Alive(g.ID()) {
			sub.Remove(local)
		}
	}
	return sub, global
}

// manifest renders the sharded-index manifest: a short text file binding
// the shard files to the shard count and canonical method spec they were
// written for. Manifests compare by string equality.
func (s *Sharded) manifest() string {
	return fmt.Sprintf("%s\nshards %d\nspec %s\n", shardManifestMagic, len(s.shards), s.spec)
}

// manifestMatches reports whether the manifest at base matches this engine's
// partitioning. A missing manifest is a mismatch (rebuild everything); a
// present-but-unreadable one is an error, mirroring Open.
func (s *Sharded) manifestMatches(base string) (bool, error) {
	data, err := os.ReadFile(base)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("engine: opening shard manifest at %s: %w", base, err)
	}
	return string(data) == s.manifest(), nil
}

// writeManifest atomically writes the manifest at base, at build and on
// Save, never on a mutation. It is written after every shard file, so a
// crash mid-save leaves either the old manifest (whose shard files restore
// as usual, with any overwritten shard failing its stamps and rebuilding
// alone) or no new manifest (full rebuild) — never a manifest endorsing
// shard files that were not all written.
func (s *Sharded) writeManifest(base string) error {
	return AtomicWriteFile(base, func(w io.Writer) error {
		_, err := io.WriteString(w, s.manifest())
		return err
	})
}

// ForEachBounded runs f(i) for i in [0, n) on a pool of bounded parallelism,
// or inline, in order, when that bound is 1. The first error cancels the
// context passed to the remaining calls and is returned; a parent-context
// cancellation surfaces as ctx.Err().
func ForEachBounded(parent context.Context, n, workers int, f func(ctx context.Context, i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n && parent.Err() == nil; i++ {
			if err := f(parent, i); err != nil {
				return err
			}
		}
		return parent.Err()
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := f(ctx, i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					cancel()
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return parent.Err()
}

// Shards returns the number of shards.
func (s *Sharded) Shards() int { return len(s.shards) }

// Name returns the method's display name.
func (s *Sharded) Name() string { return s.name }

// Spec returns the canonical method spec every shard was constructed from.
func (s *Sharded) Spec() string { return s.spec }

// SizeBytes returns the total in-memory size of all shard indexes.
func (s *Sharded) SizeBytes() int64 {
	s.RLock()
	defer s.RUnlock()
	var size int64
	for _, sh := range s.shards {
		size += sh.eng.method.SizeBytes()
	}
	return size
}

// Restored reports whether every non-empty shard was restored from disk
// (nothing was built). It is false for an empty dataset, where there was
// nothing to restore.
func (s *Sharded) Restored() bool { return s.allRestored }

// RestoredShards returns how many non-empty shards were restored from disk
// rather than built.
func (s *Sharded) RestoredShards() int { return s.restored }

// BuildStats reports aggregate index construction: Elapsed is the wall-clock
// time of the parallel open phase (zero when every shard was restored; the
// saves are not in it) and SizeBytes the current total size of all shard
// indexes. Per-shard figures are available from ShardStats.
func (s *Sharded) BuildStats() core.BuildStats {
	return core.BuildStats{Elapsed: s.buildTime, SizeBytes: s.SizeBytes()}
}

// ShardStats returns each shard engine's BuildStats, indexed by shard:
// restored shards report a zero Elapsed. Summing the Elapsed fields gives
// the serial-equivalent build time; dividing that by BuildStats().Elapsed
// gives the parallel build speedup.
func (s *Sharded) ShardStats() []core.BuildStats {
	out := make([]core.BuildStats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.eng.BuildStats()
	}
	return out
}

// ShardLen returns the number of graphs in shard i.
func (s *Sharded) ShardLen(i int) int { return s.shards[i].eng.ds.Len() }

// Query processes one subgraph query as the merge over every shard, drained
// under the read lock (see Drain): the shards plan s.fanout at a time, the
// candidates verify with the whole verify budget, and TotalTime() is the
// query's wall-clock latency — directly comparable to an unsharded
// engine's.
func (s *Sharded) Query(ctx context.Context, q *graph.Graph) (*core.QueryResult, error) {
	st := s.root()
	st.mu.RLock()
	defer st.mu.RUnlock()
	return Drain(ctx, s.shards, q, s.fanout, s.workers, s.name)
}

// Stream is StreamStats without accounting.
func (s *Sharded) Stream(ctx context.Context, q *graph.Graph) iter.Seq2[graph.ID, error] {
	return s.StreamStats(ctx, q, nil)
}

// StreamStats implements StatsStreamer: the same merge as Query, streamed
// by MergeStream with chunked locking; a mutation landing mid-stream
// re-plans the merge after its frontier.
func (s *Sharded) StreamStats(ctx context.Context, q *graph.Graph, stats *core.PipelineStats) iter.Seq2[graph.ID, error] {
	return MergeStream(ctx, &s.root().mu, stats, q, -1, s.fanout, s.workers, func() ([]*Shard, error) {
		return s.shards, nil
	})
}

// Save persists every shard's index under base — ShardIndexPath(base, i) per
// shard, each written atomically — and then the manifest at base, so a later
// OpenSharded with WithIndexPath(base) restores instead of rebuilding.
func (s *Sharded) Save(base string) error {
	s.RLock()
	defer s.RUnlock()
	for i, sh := range s.shards {
		if sh.empty() {
			continue
		}
		if err := sh.eng.saveRLocked(ShardIndexPath(base, i)); err != nil {
			return fmt.Errorf("engine: shard %d/%d: %w", i, len(s.shards), err)
		}
	}
	return s.writeManifest(base)
}

// String summarizes the engine for logs.
func (s *Sharded) String() string {
	lens := make([]string, len(s.shards))
	for i := range s.shards {
		lens[i] = fmt.Sprint(s.ShardLen(i))
	}
	return fmt.Sprintf("sharded{%s x%d graphs [%s]}", s.spec, len(s.shards), strings.Join(lens, " "))
}
