package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"iter"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/diskfmt"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Option configures Open.
type Option func(*config)

type config struct {
	spec          string
	method        core.Method
	indexPath     string
	verifyWorkers int
}

// WithSpec selects the method by spec string ("grapes",
// "gIndex:maxPatterns=20000", ...). The default is "grapes".
func WithSpec(spec string) Option { return func(c *config) { c.spec = spec } }

// WithMethod supplies an already-constructed (unbuilt) method instead of a
// spec. It overrides WithSpec.
func WithMethod(m core.Method) Option { return func(c *config) { c.method = m } }

// WithIndexPath enables transparent index persistence: Open restores the
// index from path when a loadable copy exists there — replaying the
// mutations journaled at JournalPath(path) since it was written — and
// otherwise builds it and saves it to path atomically. A mutation then
// appends to the journal, and the file is rewritten only when the journal
// is compacted (see journal.go). Corrupt files are rebuilt from a fresh
// instance and overwritten, never trusted (with WithMethod, where no fresh
// instance can be constructed, a corrupt file is an error instead). A
// successfully restored index carries the parameters it was persisted with;
// they take precedence over the spec's.
func WithIndexPath(path string) Option { return func(c *config) { c.indexPath = path } }

// WithVerifyWorkers sets the per-query verification parallelism. The
// default is GOMAXPROCS; pass 1 for the paper's serial measurement mode.
func WithVerifyWorkers(n int) Option { return func(c *config) { c.verifyWorkers = n } }

// Engine is a built (or restored) index over one dataset, serving subgraph
// queries through the plan-based filter-and-verify pipeline. It is safe for
// concurrent queries (Tree+Δ serializes its index mutations internally),
// and implements Mutable through its Store: AddGraph/RemoveGraph change the
// dataset and have the method fold the change into its index, serialized
// against in-flight queries by the Store's lock.
type Engine struct {
	// Store owns the dataset and the lock that serializes its mutations
	// (write side) against queries (read side): the engine's own Store for
	// a flat engine, the owner's for a Sharded engine's shard. Its
	// maintainer of the engine's index is a Shard: a flat engine's is the
	// identity leg.
	*Store
	method core.Method
	ds     *graph.Dataset
	proc   *core.Processor
	// buildTime is the build's wall time, zero when the index was
	// restored rather than built.
	buildTime time.Duration
	restored  bool
	// stampSpec is the spec an index file is stamped with: the method name
	// for a flat engine, the canonical spec for a shard (see OpenShard).
	stampSpec string
	// fresh constructs a pristine unbuilt instance to build over when an
	// open finds the index file stale or damaged mid-load; nil when the
	// engine was opened with WithMethod, where such a file is an error.
	fresh     func() (core.Method, error)
	indexPath string
	// jr is the journal of the index file at indexPath (see journal.go);
	// jmu serializes compactions, which run under the Store's read lock.
	jr            journal
	jmu           sync.Mutex
	verifyWorkers int
	// ready is false only while a lazily-opened (storage=mmap) index is
	// still warming its directory sections in the background; /readyz
	// reports 503 until it flips.
	ready atomic.Bool
}

// storageModeOf resolves how a method wants its persisted index held;
// methods without a storage parameter are always heap.
func storageModeOf(m core.Method) string {
	if ss, ok := m.(core.StorageSelector); ok {
		return ss.StorageMode()
	}
	return core.StorageHeap
}

// stamp is what an index file's container header binds it to: the dataset
// epoch and structural version tag it was built at, and the spec it was
// built with. A file persisted before a mutation — or against a different
// mutation history of the same length, or by another method — therefore
// never restores silently, except as the base its journal continues (see
// Engine.accept). SaveMethod/LoadMethod files carry a zero epoch+tag and
// are loaded without comparing stamps.
type stamp struct {
	epoch, tag uint64
	spec       string
}

func stampOf(ds *graph.Dataset, spec string) stamp {
	return stamp{epoch: ds.Epoch(), tag: ds.VersionTag(), spec: spec}
}

// Open constructs the configured method, then builds its index over ds — or
// transparently restores a previously persisted one when WithIndexPath names
// a loadable file — and returns an Engine serving queries over it.
func Open(ctx context.Context, ds *graph.Dataset, opts ...Option) (*Engine, error) {
	cfg := newConfig(opts)
	persisted := cfg.indexPath != ""
	st := &Store{ds: ds}
	e, err := openEngine(ctx, st, ds, cfg, "", persisted, persisted)
	if err != nil {
		return nil, err
	}
	st.maints = []Maintainer{&Shard{eng: e, identity: true}}
	return e, nil
}

func newConfig(opts []Option) config {
	cfg := config{spec: "grapes", verifyWorkers: runtime.GOMAXPROCS(0)}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// openEngine constructs cfg's method into an engine over ds, guarded by
// st's lock, and makes it servable: with restore, it loads the index from
// cfg's path when a file (plus journal) restorable for ds and stampSpec
// ("": the method's name) is there; otherwise it builds the index and, with
// save, persists it — without save the first mutation does. A restored
// storage=mmap index then warms in the background.
func openEngine(ctx context.Context, st *Store, ds *graph.Dataset, cfg config, stampSpec string, restore, save bool) (*Engine, error) {
	if ds == nil {
		return nil, errors.New("engine: nil dataset")
	}
	m := cfg.method
	if m == nil {
		var err error
		if m, err = New(cfg.spec); err != nil {
			return nil, err
		}
	}
	if _, ok := m.(core.Persistable); !ok && cfg.indexPath != "" {
		// Fail fast, not after a build whose result could not be saved.
		return nil, fmt.Errorf("engine: %s does not support index persistence", m.Name())
	}
	if stampSpec == "" {
		stampSpec = m.Name()
	}
	e := &Engine{Store: st, method: m, ds: ds, stampSpec: stampSpec, indexPath: cfg.indexPath, verifyWorkers: cfg.verifyWorkers}
	if cfg.indexPath != "" {
		e.jr.path = JournalPath(cfg.indexPath)
	}
	if cfg.method == nil {
		spec := cfg.spec
		e.fresh = func() (core.Method, error) { return New(spec) }
	}
	if restore {
		if err := e.restore(); err != nil {
			return nil, err
		}
	}
	if !e.restored {
		st, err := core.BuildTimed(ctx, e.method, ds)
		if err != nil {
			return nil, fmt.Errorf("engine: building %s: %w", e.method.Name(), err)
		}
		e.buildTime = st.Elapsed
		// No file on disk holds this index yet: the first mutation compacts
		// unless the save below writes one.
		e.jr.due = true
		if save {
			if err := e.Save(e.indexPath); err != nil {
				return nil, err
			}
		}
	}
	e.proc = &core.Processor{Method: e.method, DS: ds, VerifyWorkers: e.verifyWorkers}
	e.ready.Store(true)
	if e.restored && storageModeOf(e.method) == core.StorageMmap {
		if warm, ok := e.method.(core.Warmable); ok {
			// Pre-fault the directory sections off the open path: queries
			// are answerable immediately, /readyz flips once the warm lands.
			// The Store's read lock keeps a mutation from releasing the
			// mapping while the warm-up still reads it. It is taken before
			// the open returns, so a Join of the Store waits for it too.
			e.ready.Store(false)
			st.mu.RLock()
			go func() {
				warm.WarmIndex()
				st.mu.RUnlock()
				e.ready.Store(true)
			}()
		}
	}
	return e, nil
}

// restore loads the index file at e.indexPath when its stamps match the
// dataset or its journal carries it there (see accept), replaying the
// journal. A file that is absent, stale or damaged before the load touched
// the method leaves e unrestored, to be built over and overwritten; one
// that failed mid-load or mid-replay swaps in a pristine instance first,
// so its parameters never leak into the build.
func (e *Engine) restore() error {
	start := time.Now()
	var jf *journalFile
	touched, err := readIndexFile(e.indexPath, e.method, func(got stamp) (*graph.Dataset, error) {
		view, accepted, err := e.accept(got)
		jf = accepted
		return view, err
	})
	if err == nil {
		err = e.replay(jf)
	}
	switch {
	case err == nil:
		e.restored = true
		e.jr.base, e.jr.slots, e.jr.records = jf.base, jf.slots, len(jf.recs)
		if len(jf.recs) > 0 {
			e.jr.keep = jf.size()
		}
		storage := storageModeOf(e.method)
		obs.IndexOpenObserve(e.method.Name(), storage, time.Since(start).Seconds())
		obs.IndexResidentSet(e.method.Name(), storage, e.method.SizeBytes())
	case touched:
		if e.fresh == nil {
			return fmt.Errorf("engine: loading %s index from %s: %w", e.method.Name(), e.indexPath, err)
		}
		m, err := e.fresh()
		if err != nil {
			return err
		}
		e.method = m
	case errors.Is(err, fs.ErrNotExist), errors.Is(err, errStaleIndex):
		// Nothing restorable and the instance is untouched.
	default:
		// A present-but-unreadable index is an error, not a silent
		// multi-hour rebuild.
		return fmt.Errorf("engine: opening index at %s: %w", e.indexPath, err)
	}
	return nil
}

// errStaleIndex marks a file that is not a restorable index for this
// open — not a container (any older format, garbage), damaged, or stamped
// for another dataset state or spec. The method instance is untouched, so
// the caller rebuilds over it and overwrites the file.
var errStaleIndex = errors.New("engine: stale index file")

// readIndexFile is the one read path of every index file: open the
// container at path — mapped when m selects storage=mmap — hand its stamps
// to accept, which returns the dataset to load it against (or an error,
// errStaleIndex for a file that does not restore here), and load it into
// m. On success in mmap mode the method owns the reader; in heap mode
// (everything decoded) the reader is closed here. touched reports that
// LoadIndex ran, so on error the instance may be half-restored and must
// not be built over.
func readIndexFile(path string, m core.Method, accept func(stamp) (*graph.Dataset, error)) (touched bool, err error) {
	p, ok := m.(core.Persistable)
	if !ok {
		return false, fmt.Errorf("engine: %s does not support index persistence", m.Name())
	}
	mapped := storageModeOf(m) == core.StorageMmap
	r, err := diskfmt.Open(path, mapped)
	if err != nil {
		if errors.Is(err, diskfmt.ErrNotDiskFmt) || diskfmt.IsCorrupt(err) {
			return false, fmt.Errorf("%w: %v", errStaleIndex, err)
		}
		return false, err
	}
	ds, err := accept(stamp{r.Epoch(), r.Tag(), r.Spec()})
	if err != nil {
		r.Close()
		return false, err
	}
	if err := p.LoadIndex(r, ds); err != nil {
		r.Close()
		return true, err
	}
	if !mapped {
		return true, r.Close()
	}
	return true, nil
}

// writeIndexFile is the one write path of every index file: m's index as
// a container stamped st, written to a temporary file and renamed into
// place so path only ever holds a complete file.
func writeIndexFile(path string, m core.Method, st stamp) error {
	p, ok := m.(core.Persistable)
	if !ok {
		return fmt.Errorf("engine: %s does not support index persistence", m.Name())
	}
	w := diskfmt.NewWriter(st.epoch, st.tag, st.spec)
	if err := p.SaveIndex(w); err != nil {
		return fmt.Errorf("engine: saving %s index: %w", m.Name(), err)
	}
	return AtomicWriteFile(path, func(out io.Writer) error {
		_, err := w.WriteTo(out)
		return err
	})
}

// Method returns the engine's built method.
func (e *Engine) Method() core.Method {
	st := e.root()
	st.mu.RLock()
	defer st.mu.RUnlock()
	return e.method
}

// Dataset returns the dataset the engine serves queries over.
func (e *Engine) Dataset() *graph.Dataset { return e.ds }

// BuildStats reports on index construction: Elapsed is the build's wall
// time, zero when the index was restored from disk rather than built, and
// SizeBytes the index's current size, read from the method on each call.
func (e *Engine) BuildStats() core.BuildStats {
	st := e.root()
	st.mu.RLock()
	defer st.mu.RUnlock()
	return core.BuildStats{Elapsed: e.buildTime, SizeBytes: e.method.SizeBytes()}
}

// Restored reports whether the engine's current index was loaded from a
// persisted file, its journal replayed or not, rather than built.
func (e *Engine) Restored() bool {
	st := e.root()
	st.mu.RLock()
	defer st.mu.RUnlock()
	return e.restored
}

// Ready reports whether the engine is fully open for serving: false only
// while a lazily-opened (storage=mmap) index is still pre-faulting its
// directory sections in the background. Queries are correct either way;
// readiness gates load balancers off a node whose first queries would pay
// the materialization cost.
func (e *Engine) Ready() bool { return e.ready.Load() }

// Processor exposes the engine's underlying pipeline for callers that need
// per-stage control. The snapshot is not updated by later mutations.
func (e *Engine) Processor() *core.Processor {
	st := e.root()
	st.mu.RLock()
	defer st.mu.RUnlock()
	return e.proc
}

// Query processes one subgraph query end to end.
func (e *Engine) Query(ctx context.Context, q *graph.Graph) (*core.QueryResult, error) {
	st := e.root()
	st.mu.RLock()
	defer st.mu.RUnlock()
	return e.proc.QueryCtx(ctx, q)
}

// Stream is StreamStats without accounting.
func (e *Engine) Stream(ctx context.Context, q *graph.Graph) iter.Seq2[graph.ID, error] {
	return e.StreamStats(ctx, q, nil)
}

// Save persists the engine's built index to path, atomically and stamped
// with the dataset's current epoch and tag, in the format Open restores
// from. At the engine's own index path this is the journal's compaction:
// the file then holds every mutation, and the journal starts afresh.
// Elsewhere, a journal beside path belonged to the file Save replaced and
// is removed.
func (e *Engine) Save(path string) error {
	st := e.root()
	st.mu.RLock()
	defer st.mu.RUnlock()
	return e.saveRLocked(path)
}

// saveRLocked is Save under the Store's read lock.
func (e *Engine) saveRLocked(path string) error {
	e.jmu.Lock()
	defer e.jmu.Unlock()
	return e.saveLocked(path)
}

// saveLocked is Save under the Store's read lock and jmu.
func (e *Engine) saveLocked(path string) error {
	st := stampOf(e.ds, e.stampSpec)
	if err := writeIndexFile(path, e.method, st); err != nil {
		return err
	}
	if e.indexPath != "" && filepath.Clean(path) == filepath.Clean(e.indexPath) {
		e.jr.reset(st, e.ds.Len())
	} else {
		// Best effort: a journal that stays binds to the replaced file's
		// stamp, so an open beside the new file ignores it.
		os.Remove(JournalPath(path))
	}
	return nil
}

// SaveMethod persists a built method's index to path, atomically (see
// AtomicWriteFile), in the same container format Open restores from but
// unbound: the file carries a zero epoch+tag, and LoadMethod's only guard
// is the method's own check against the dataset it is given.
func SaveMethod(path string, m core.Method) error {
	return writeIndexFile(path, m, stamp{spec: m.Name()})
}

// AtomicWriteFile streams write's output into a temporary file next to path and
// renames it into place, cleaning up on any failure, so path only ever
// holds a complete file.
func AtomicWriteFile(path string, write func(w io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	if err := write(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// LoadMethod restores a method's persisted index from path. The method must
// be unbuilt and constructed with the same parameters, and ds must be the
// dataset the index was built over; the file's stamps are not compared,
// and no journal is read.
func LoadMethod(path string, m core.Method, ds *graph.Dataset) error {
	if _, err := readIndexFile(path, m, func(stamp) (*graph.Dataset, error) { return ds, nil }); err != nil {
		return fmt.Errorf("engine: loading %s index: %w", m.Name(), err)
	}
	return nil
}
