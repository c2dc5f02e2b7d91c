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
	"sync/atomic"
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
// bump the version when the layout changes. v2 added the dataset epoch, so
// shard files persisted before a mutation can never restore silently
// against the mutated dataset; v4 dropped v3's per-shard format list, which
// one file format made constant. A manifest of another version mismatches
// and everything rebuilds once.
const shardManifestMagic = "repro-shards v4"

// shard is one horizontal partition of a sharded engine: a sub-dataset of
// re-homed graphs, the method index built over it, and the mapping from
// shard-local graph ids back to parent-dataset ids.
type shard struct {
	sub      *graph.Dataset
	global   []graph.ID // local id -> parent dataset id, ascending
	method   core.Method
	restored bool
	build    core.BuildStats
	// Lazy first-touch loading (storage=mmap restores only): loaded flips
	// once the shard's index is restored or rebuilt; until then every
	// access goes through Sharded.ensureShard, serialized on loadMu.
	loaded atomic.Bool
	loadMu sync.Mutex
}

func (sh *shard) empty() bool { return sh.sub.Len() == 0 }

// toGlobal maps a sorted shard-local IDSet to parent-dataset ids. The local
// -> global mapping is monotonic (graphs are assigned to shards in parent
// order), so the result is sorted too.
func (sh *shard) toGlobal(local graph.IDSet) graph.IDSet {
	out := make(graph.IDSet, len(local))
	for i, id := range local {
		out[i] = sh.global[id]
	}
	return out
}

// Sharded is a horizontally partitioned engine over one dataset: the graphs
// are hash-partitioned into N sub-datasets, one method index is built per
// shard (concurrently, on a pool bounded by GOMAXPROCS), and queries fan out
// across the shards with their candidate and answer sets merged back —
// order-preserved — into the same QueryResult / iter.Seq2 surface the
// unsharded Engine serves. Construct with OpenSharded.
//
// Because filtering never produces false negatives and subgraph-isomorphism
// answers depend on each dataset graph alone, a sharded engine returns
// exactly the unsharded engine's answer set for every method (candidate sets
// may differ for the frequent-mining methods, whose feature selection is
// dataset-global).
type Sharded struct {
	// mu serializes mutations (write side) against queries (read side),
	// mirroring Engine.
	mu            sync.RWMutex
	ds            *graph.Dataset
	shards        []*shard
	desc          *Descriptor
	params        Params // resolved params fresh shard instances rebuild from
	spec          string // canonical spec all shards were constructed from
	indexPath     string // persistence base ("" = none); mutated shards rewrite their file + the manifest
	build         core.BuildStats
	restored      int  // non-empty shards restored from disk
	allRestored   bool // every non-empty shard restored (nothing built)
	verifyWorkers int
}

// OpenSharded hash-partitions ds into the given number of shards, builds (or
// restores) one index of the configured method per shard, and returns the
// fan-out engine over them.
//
// Shard indexes build concurrently on a pool bounded by GOMAXPROCS; the
// first failure (or ctx cancellation) stops the remaining builds. With
// WithIndexPath(base), each shard persists independently and atomically at
// ShardIndexPath(base, i) under a manifest at base, so a corrupt or missing
// shard file rebuilds alone while the healthy shards restore. A manifest
// that does not match the dataset, shard count, or method spec invalidates
// all shard files and rebuilds everything.
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
	cfg := config{spec: "grapes", verifyWorkers: runtime.GOMAXPROCS(0)}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.method != nil {
		return nil, errors.New("engine: OpenSharded constructs one method per shard; select it with WithSpec, not WithMethod")
	}
	d, p, err := ParseSpec(cfg.spec)
	if err != nil {
		return nil, err
	}
	s := &Sharded{
		ds:            ds,
		shards:        partition(ds, shards),
		desc:          d,
		params:        p,
		spec:          p.canonicalSpec(),
		indexPath:     cfg.indexPath,
		verifyWorkers: cfg.verifyWorkers,
	}
	for _, sh := range s.shards {
		if sh.method, err = d.New(p); err != nil {
			return nil, err
		}
	}

	manifestOK := false
	if cfg.indexPath != "" {
		// Fail fast before any build, as Open does — not at save time
		// after the full parallel build has already been paid.
		if _, ok := s.shards[0].method.(core.Persistable); !ok {
			return nil, fmt.Errorf("engine: %s does not support index persistence",
				s.shards[0].method.Name())
		}
		if manifestOK, err = s.manifestMatches(cfg.indexPath); err != nil {
			return nil, err
		}
		if manifestOK {
			for i, sh := range s.shards {
				if sh.empty() {
					continue // nothing to load, nothing to build
				}
				if storageModeOf(sh.method) == core.StorageMmap {
					// Lazy first-touch load: the manifest endorses the file,
					// so defer even the O(header) open until a query, a
					// mutation, or the background warmer touches the shard.
					sh.restored = true
					continue
				}
				if s.loadShardIndex(cfg.indexPath, i) {
					sh.restored = true
					sh.loaded.Store(true)
					continue
				}
				// A failed load may have half-mutated the instance; rebuild
				// from a pristine one (same policy as Open).
				if sh.method, err = d.New(p); err != nil {
					return nil, err
				}
			}
		}
	}

	t0 := time.Now()
	err = ForEachBounded(ctx, len(s.shards), runtime.GOMAXPROCS(0), func(ctx context.Context, i int) error {
		sh := s.shards[i]
		if sh.restored || sh.empty() {
			return nil
		}
		st, err := core.BuildTimed(ctx, sh.method, sh.sub)
		if err != nil {
			return fmt.Errorf("engine: building %s shard %d/%d: %w", sh.method.Name(), i, len(s.shards), err)
		}
		sh.build = st
		sh.loaded.Store(true)
		return nil
	})
	buildWall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	built, nonEmpty := false, 0
	for _, sh := range s.shards {
		if sh.empty() {
			sh.loaded.Store(true) // nothing to load: always serviceable
		} else {
			nonEmpty++
			if sh.restored {
				s.restored++
			} else {
				built = true
			}
		}
		s.build.SizeBytes += sh.method.SizeBytes()
		s.build.Features += sh.build.Features
	}
	s.allRestored = nonEmpty > 0 && s.restored == nonEmpty
	if built {
		s.build.Elapsed = buildWall
	}
	// Persistence happens outside the timed build phase, as in Open, so
	// build stats compare like for like between the two engines.
	if cfg.indexPath != "" {
		for i, sh := range s.shards {
			if sh.restored || sh.empty() {
				continue
			}
			if err := s.saveShardIndex(cfg.indexPath, i); err != nil {
				return nil, err
			}
		}
		if !manifestOK {
			if err := s.writeManifest(cfg.indexPath); err != nil {
				return nil, err
			}
		}
	}
	for _, sh := range s.shards {
		if !sh.loaded.Load() {
			// Materialize deferred shards off the open path; Ready() (and
			// /readyz) reports false until the warmer has touched them all.
			go s.warmShards()
			break
		}
	}
	return s, nil
}

// warmShards loads every still-deferred shard in the background so a node
// becomes Ready without waiting for queries to touch each shard.
func (s *Sharded) warmShards() {
	for i := range s.shards {
		_ = s.ensureShard(context.Background(), i)
	}
}

// ensureShard makes shard i's index serviceable, loading it on first touch
// when OpenSharded deferred it (storage=mmap restores). A load failure —
// the file vanished or rotted since the manifest endorsed it — falls back
// to rebuilding that one shard in place.
func (s *Sharded) ensureShard(ctx context.Context, i int) error {
	sh := s.shards[i]
	if sh.loaded.Load() {
		return nil
	}
	sh.loadMu.Lock()
	defer sh.loadMu.Unlock()
	if sh.loaded.Load() {
		return nil
	}
	if s.loadShardIndex(s.indexPath, i) {
		if warm, ok := sh.method.(core.Warmable); ok {
			warm.WarmIndex()
		}
		sh.loaded.Store(true)
		return nil
	}
	fresh, err := s.desc.New(s.params)
	if err != nil {
		return err
	}
	st, err := core.BuildTimed(ctx, fresh, sh.sub)
	if err != nil {
		return fmt.Errorf("engine: rebuilding %s shard %d/%d on first touch: %w",
			fresh.Name(), i, len(s.shards), err)
	}
	sh.method = fresh
	sh.build = st
	sh.restored = false
	if s.indexPath != "" {
		if err := s.saveShardIndex(s.indexPath, i); err != nil {
			return err
		}
	}
	sh.loaded.Store(true)
	return nil
}

// Ready reports whether every shard's index is serviceable without further
// materialization — false only while lazily-deferred shards are still
// loading (first touch or background warm). Queries are correct either
// way: an unloaded shard loads inline when a query reaches it.
func (s *Sharded) Ready() bool {
	for _, sh := range s.shards {
		if !sh.loaded.Load() {
			return false
		}
	}
	return true
}

// partition assigns every graph of ds to its ShardOf shard, re-homing it
// into the shard's sub-dataset as a shallow copy with a shard-local id. The
// sub-datasets carry a copy of the parent's label dictionary. Tombstones propagate:
// a graph the parent has removed is re-homed (so the global mapping stays
// positional) and immediately tombstoned in its sub-dataset, so opening a
// sharded engine over an already-mutated dataset never resurrects it.
func partition(ds *graph.Dataset, n int) []*shard {
	shards := make([]*shard, n)
	for i := range shards {
		sub, global := PartitionShard(ds, n, i)
		shards[i] = &shard{sub: sub, global: global}
	}
	return shards
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
// the shard files to the shard count, dataset size, epoch and structural
// version tag, and canonical method spec they were written for. Manifests
// compare by string equality.
func (s *Sharded) manifest() string {
	return fmt.Sprintf("%s\nshards %d\ngraphs %d\nepoch %d\ntag %x\nspec %s\n",
		shardManifestMagic, len(s.shards), s.ds.Len(), s.ds.Epoch(), s.ds.VersionTag(), s.spec)
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

// writeManifest atomically writes the manifest at base. It is written after
// every shard file, so a crash mid-save leaves either the old manifest
// (whose shard files restore as usual, with any overwritten shard failing
// its load and rebuilding alone) or no new manifest (full rebuild) — never a
// manifest endorsing shard files that were not all written.
func (s *Sharded) writeManifest(base string) error {
	return AtomicWriteFile(base, func(w io.Writer) error {
		_, err := io.WriteString(w, s.manifest())
		return err
	})
}

// saveShardIndex atomically writes shard i's index file under base, stamped
// with the sub-dataset's epoch/tag and the engine's canonical spec —
// partitioning is deterministic, so another process partitioning the same
// parent dataset computes the same stamps and can restore (or ship) the
// file byte-for-byte.
func (s *Sharded) saveShardIndex(base string, i int) error {
	sh := s.shards[i]
	if err := writeIndexFile(ShardIndexPath(base, i), sh.method, stampOf(sh.sub, s.spec)); err != nil {
		return fmt.Errorf("engine: shard %d/%d: %w", i, len(s.shards), err)
	}
	return nil
}

// loadShardIndex tries to restore shard i's index from its file under base,
// reporting success. Any failure — missing file, stamps for another spec or
// sub-dataset version (a file overwritten by a save that crashed before
// its manifest write), corrupt content — just means this one shard
// rebuilds.
func (s *Sharded) loadShardIndex(base string, i int) bool {
	sh := s.shards[i]
	want := stampOf(sh.sub, s.spec)
	_, err := readIndexFile(ShardIndexPath(base, i), sh.method, sh.sub, &want)
	return err == nil
}

// ForEachBounded runs f(i) for i in [0, n) on a pool of bounded parallelism.
// The first error cancels the context passed to the remaining calls and is
// returned; a parent-context cancellation surfaces as ctx.Err().
func ForEachBounded(parent context.Context, n, workers int, f func(ctx context.Context, i int) error) error {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
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

// Dataset returns the (unpartitioned) dataset the engine serves queries over.
func (s *Sharded) Dataset() *graph.Dataset { return s.ds }

// Name returns the method's display name.
func (s *Sharded) Name() string { return s.desc.Display }

// Spec returns the canonical method spec every shard was constructed from.
func (s *Sharded) Spec() string { return s.spec }

// SizeBytes returns the total in-memory size of all shard indexes.
func (s *Sharded) SizeBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.build.SizeBytes
}

// Restored reports whether every non-empty shard was restored from disk
// (nothing was built). It is false for an empty dataset, where there was
// nothing to restore.
func (s *Sharded) Restored() bool { return s.allRestored }

// RestoredShards returns how many non-empty shards were restored from disk
// rather than built.
func (s *Sharded) RestoredShards() int { return s.restored }

// BuildStats reports aggregate index construction: Elapsed is the wall-clock
// time of the parallel build phase (zero when every shard was restored),
// SizeBytes the total size of all shard indexes, and Features the sum over
// built shards. Per-shard figures are available from ShardStats.
func (s *Sharded) BuildStats() core.BuildStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.build
}

// ShardStats returns per-shard build stats, indexed by shard. Restored
// shards report the zero value, mirroring Engine.BuildStats. Summing the
// Elapsed fields gives the serial-equivalent build time; dividing that by
// BuildStats().Elapsed gives the parallel build speedup.
func (s *Sharded) ShardStats() []core.BuildStats {
	out := make([]core.BuildStats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.build
	}
	return out
}

// ShardLen returns the number of graphs in shard i.
func (s *Sharded) ShardLen(i int) int { return s.shards[i].sub.Len() }

// perShardWorkers divides the configured verification parallelism across
// the shard fan-out so a query does not oversubscribe the scheduler.
func (s *Sharded) perShardWorkers() int {
	w := s.verifyWorkers / len(s.shards)
	if w < 1 {
		w = 1
	}
	return w
}

// fanoutWorkers sizes the shard fan-out pool so that the total verification
// concurrency (concurrent shards × perShardWorkers) never exceeds the
// configured WithVerifyWorkers budget — WithVerifyWorkers(1) really is the
// paper's serial measurement mode, shards processed one at a time.
func (s *Sharded) fanoutWorkers() int {
	w := s.verifyWorkers
	if max := runtime.GOMAXPROCS(0); w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Query processes one subgraph query by fanning it out across all shards
// concurrently and merging the per-shard results: Candidates and Answers
// are the sorted unions of the shard sets (mapped back to parent-dataset
// ids). Timings stay truthful even when shards outnumber the fan-out
// pool's workers and run in waves: FilterTime is the slowest shard's
// filter stage, and VerifyTime is the remainder of the fan-out's measured
// wall time, so TotalTime() is the query's real wall-clock latency —
// directly comparable to an unsharded engine's.
func (s *Sharded) Query(ctx context.Context, q *graph.Graph) (*core.QueryResult, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	results := make([]*core.QueryResult, len(s.shards))
	workers := s.perShardWorkers()
	t0 := time.Now()
	err := ForEachBounded(ctx, len(s.shards), s.fanoutWorkers(), func(ctx context.Context, i int) error {
		sh := s.shards[i]
		if sh.empty() {
			results[i] = &core.QueryResult{}
			return nil
		}
		if err := s.ensureShard(ctx, i); err != nil {
			return err
		}
		proc := core.Processor{Method: sh.method, DS: sh.sub, VerifyWorkers: workers}
		r, err := proc.QueryCtx(ctx, q)
		if err != nil {
			return err
		}
		r.Candidates = sh.toGlobal(r.Candidates)
		r.Answers = sh.toGlobal(r.Answers)
		results[i] = r
		return nil
	})
	wall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	merged := &core.QueryResult{Method: s.Name()}
	for _, r := range results {
		merged.Candidates = merged.Candidates.Union(r.Candidates)
		merged.Answers = merged.Answers.Union(r.Answers)
		merged.Produced += r.Produced
		merged.Verified += r.Verified
		merged.FilterTime = max(merged.FilterTime, r.FilterTime)
	}
	if merged.VerifyTime = wall - merged.FilterTime; merged.VerifyTime < 0 {
		merged.VerifyTime = 0
	}
	return merged, nil
}

// Stream is StreamStats without accounting.
func (s *Sharded) Stream(ctx context.Context, q *graph.Graph) iter.Seq2[graph.ID, error] {
	return s.StreamStats(ctx, q, nil)
}

// Save persists every shard's index under base — ShardIndexPath(base, i) per
// shard, each written atomically — and then the manifest at base, so a later
// OpenSharded with WithIndexPath(base) restores instead of rebuilding.
func (s *Sharded) Save(base string) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i, sh := range s.shards {
		if sh.empty() {
			continue
		}
		// A still-deferred shard must materialize before it can serialize.
		if err := s.ensureShard(context.Background(), i); err != nil {
			return err
		}
		if err := s.saveShardIndex(base, i); err != nil {
			return err
		}
	}
	return s.writeManifest(base)
}

// String summarizes the engine for logs.
func (s *Sharded) String() string {
	lens := make([]string, len(s.shards))
	for i, sh := range s.shards {
		lens[i] = fmt.Sprint(sh.sub.Len())
	}
	return fmt.Sprintf("sharded{%s x%d graphs [%s]}", s.spec, len(s.shards), strings.Join(lens, " "))
}
