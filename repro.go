// Package repro is a from-scratch Go reproduction of
//
//	Katsarou, Ntarmos, Triantafillou:
//	"Performance and Scalability of Indexed Subgraph Query Processing
//	Methods", PVLDB 8(12), 2015.
//
// It implements the six filter-and-verify subgraph query indexing methods
// the paper compares — Grapes, GraphGrepSX, CT-Index, gIndex, Tree+Δ, and
// gCode — together with every substrate they need (VF2 subgraph
// isomorphism, canonical labels, gSpan mining, spectral codes), the paper's
// dataset generators and query workloads, and a benchmark harness that
// regenerates every table and figure of the evaluation.
//
// # Quick start
//
// The front door is the engine API: methods are named by spec strings
// ("grapes", "gIndex:maxPatterns=20000", "ctindex:fingerprintBits=1024"),
// resolved through a registry the method packages populate, and served
// through one plan-based filter-and-verify pipeline:
//
//	ds := repro.NewSyntheticDataset(repro.SynthConfig{
//		NumGraphs: 100, MeanNodes: 50, MeanDensity: 0.05, NumLabels: 10,
//	})
//	eng, err := repro.Open(ctx, ds, repro.WithSpec("grapes:workers=8"))
//	if err != nil { ... }
//	res, err := eng.Query(ctx, q) // res.Answers holds the matching graph IDs
//
// Open transparently persists and restores indexes when given
// WithIndexPath, so an expensive build is paid once per dataset; Stream
// yields answers incrementally as verification confirms them.
//
// The underlying packages remain importable for finer control:
// internal/engine defines the registry and lifecycle, internal/core the
// Method contract and pipeline, internal/bench the experiment harness, and
// one package per indexing method holds its implementation.
package repro

import (
	"context"
	"iter"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	_ "repro/internal/engine/std" // register all built-in methods
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/subiso"
	"repro/internal/workload"
)

// Re-exported model types.
type (
	// Graph is a vertex-labelled undirected graph.
	Graph = graph.Graph
	// Dataset is an ordered collection of graphs with a shared label space.
	Dataset = graph.Dataset
	// Label is an interned vertex label.
	Label = graph.Label
	// ID identifies a graph within a dataset.
	ID = graph.ID
	// IDSet is a sorted set of graph IDs (candidate/answer sets).
	IDSet = graph.IDSet
	// Stats summarizes a dataset (Table 1 characteristics).
	Stats = graph.Stats

	// Method is one indexed subgraph query processing method.
	Method = core.Method
	// Processor runs the filter-and-verify pipeline over a built Method.
	Processor = core.Processor
	// QueryResult reports one query's candidates, answers, and timings.
	QueryResult = core.QueryResult
	// BuildStats reports on index construction.
	BuildStats = core.BuildStats
	// BatchOptions configures Processor.QueryBatch, the parallel workload
	// runner.
	BatchOptions = core.BatchOptions
	// BatchResult is one entry of a QueryBatch outcome.
	BatchResult = core.BatchResult
	// WorkloadSummary aggregates a batch into the paper's workload metrics.
	WorkloadSummary = core.WorkloadSummary

	// Engine is a built (or restored) index over one dataset serving
	// subgraph queries; construct with Open.
	Engine = engine.Engine
	// ShardedEngine is a horizontally partitioned engine: the dataset is
	// hash-partitioned, per-shard indexes build in parallel, and queries
	// fan out across the shards and merge; construct with OpenSharded.
	ShardedEngine = engine.Sharded
	// Querier is the one query surface every engine shape — Engine,
	// ShardedEngine, RoutedEngine, CachedEngine — implements: Dataset,
	// Ready, Query, Stream, and StreamStats over one dataset, plus Mutable.
	// Run a batch of queries through any of them with QueryBatchFunc.
	Querier = engine.Querier
	// Mutable is the online-mutation half of Querier: AddGraph/RemoveGraph,
	// which every method folds into its own index (Method's
	// AddGraphToIndex/RemoveGraphFromIndex), a monotonically increasing
	// dataset Epoch, and the live/removed graph Counts.
	Mutable = engine.Mutable
	// Option configures Open.
	Option = engine.Option
	// MethodInfo describes one registered method: naming, typed parameters,
	// defaults.
	MethodInfo = engine.Descriptor

	// RoutedEngine is the adaptive method router: several co-built method
	// indexes over one dataset, each query routed to the predicted-cheapest
	// method by a cost model learned online from observed latencies;
	// construct with OpenRouted (or OpenAny with a "router:..." spec).
	RoutedEngine = router.Multi
	// RouterConfig configures OpenRouted: the method set plus routing
	// policy, exploration, persistence, and shard options.
	RouterConfig = router.Config
	// RouterOptions is the routing-policy part of RouterConfig.
	RouterOptions = router.Options
	// RouterStats is the router's observable state: per-method win rates
	// and the learned cost model's cells.
	RouterStats = router.Snapshot
	// QueryFeatures is the cheap per-query feature vector routing keys on.
	QueryFeatures = router.Features

	// CachedEngine wraps any Querier with an isomorphism-invariant result
	// cache and single-flight deduplication; construct with NewCached.
	CachedEngine = server.CachedEngine
	// CacheConfig bounds the serving layer's result cache.
	CacheConfig = server.CacheConfig
	// CacheStats counts cache and deduplication activity.
	CacheStats = server.CacheStats
	// Server is the HTTP/JSON query service with admission control;
	// construct with NewServer and serve its Handler.
	Server = server.Server
	// ServerConfig configures the HTTP query service.
	ServerConfig = server.Config

	// SynthConfig parameterizes the GraphGen-style synthetic generator.
	SynthConfig = gen.SynthConfig
	// RealConfig parameterizes the real-dataset simulators.
	RealConfig = gen.RealConfig
	// WorkloadConfig parameterizes random-walk query generation.
	WorkloadConfig = workload.Config
	// MixedWorkloadConfig parameterizes mixed-shape, mixed-size query
	// generation — the traffic adaptive routing is designed for.
	MixedWorkloadConfig = workload.MixedConfig

	// MethodID names one of the six methods.
	MethodID = bench.MethodID
	// Experiment describes one figure-regenerating benchmark run.
	Experiment = bench.Experiment
	// Scale selects the bench/default/paper grid sizes.
	Scale = bench.Scale
)

// The six methods compared by the paper.
const (
	Grapes    = bench.Grapes
	GGSX      = bench.GGSX
	CTIndex   = bench.CTIndex
	GIndex    = bench.GIndex
	TreeDelta = bench.TreeDelta
	GCode     = bench.GCode
)

// Engine options, re-exported from internal/engine.
var (
	// WithSpec selects the method by spec string (default "grapes").
	WithSpec = engine.WithSpec
	// WithMethod supplies an already-constructed unbuilt method.
	WithMethod = engine.WithMethod
	// WithIndexPath enables transparent index persistence across runs.
	WithIndexPath = engine.WithIndexPath
	// WithVerifyWorkers sets per-query verification parallelism.
	WithVerifyWorkers = engine.WithVerifyWorkers
)

// QueryBatchFunc is the one batch runner: it runs query — any Querier's
// Query — over a workload concurrently, results in input order.
var QueryBatchFunc = core.QueryBatchFunc

// Table 1 dataset simulator presets.
var (
	AIDS = gen.AIDS
	PDBS = gen.PDBS
	PCM  = gen.PCM
	PPI  = gen.PPI
)

// NewCached wraps an opened engine (flat or sharded) with the serving
// layer's result cache: isomorphic queries hit regardless of vertex
// ordering, and concurrent identical queries share one computation.
func NewCached(q Querier, cfg CacheConfig) *CachedEngine { return server.NewCached(q, cfg) }

// NewServer wraps an opened engine in the HTTP/JSON query service —
// /query, /batch, /methods, /stats, /healthz — with a result cache and
// admission control; serve its Handler with net/http.
func NewServer(q Querier, cfg ServerConfig) *Server { return server.New(q, cfg) }

// Open builds (or, with WithIndexPath, transparently restores) an index
// over ds and returns an Engine serving queries through the plan-based
// filter-and-verify pipeline.
func Open(ctx context.Context, ds *Dataset, opts ...Option) (*Engine, error) {
	return engine.Open(ctx, ds, opts...)
}

// OpenSharded hash-partitions ds into the given number of shards, builds
// one index of the configured method per shard concurrently (or restores
// them from independent per-shard files under WithIndexPath), and returns a
// fan-out engine whose answers are identical to the unsharded Open's for
// every method. It is the scaling path: build wall-time drops with the
// shard count, and a corrupt shard file rebuilds alone.
func OpenSharded(ctx context.Context, ds *Dataset, shards int, opts ...Option) (*ShardedEngine, error) {
	return engine.OpenSharded(ctx, ds, shards, opts...)
}

// OpenRouted co-builds one index per configured method over ds —
// concurrently, on a GOMAXPROCS-bounded pool — and returns the adaptive
// router over them: every query is served by the method a per-feature-
// bucket cost model predicts cheapest, learned online from observed
// latencies (with static heuristics from the paper's findings while cold).
// Answers are identical to any single method's; only latency moves.
func OpenRouted(ctx context.Context, ds *Dataset, cfg RouterConfig) (*RoutedEngine, error) {
	return router.Open(ctx, ds, cfg)
}

// OpenAny is the spec-driven front door over every engine shape: composite
// specs ("router:methods=grapes+ggsx+gcode,policy=race") open the adaptive
// router, shards > 1 opens a sharded engine, and anything else a plain
// Engine.
func OpenAny(ctx context.Context, ds *Dataset, shards int, opts ...Option) (Querier, error) {
	return engine.OpenAny(ctx, ds, shards, opts...)
}

// AddGraph adds g to a live engine's dataset under a fresh ID, maintaining
// the index online (every engine shape supports it). It is q.AddGraph.
func AddGraph(ctx context.Context, q Querier, g *Graph) (ID, error) {
	return q.AddGraph(ctx, g)
}

// RemoveGraph tombstones graph id in a live engine: the id is never
// reused, and the graph can never again appear in any candidate or answer
// set. It is q.RemoveGraph.
func RemoveGraph(ctx context.Context, q Querier, id ID) error {
	return q.RemoveGraph(ctx, id)
}

// New constructs an unbuilt index from a method spec string: a registered
// name or alias ("grapes", "GGSX", "tree+delta", ...), optionally followed
// by ":key=value,..." parameter overrides, e.g.
// "grapes:maxPathLen=4,workers=8". It returns an error for unknown methods,
// unknown parameters, and malformed values.
func New(spec string) (Method, error) {
	return engine.New(spec)
}

// Methods returns the descriptors of all registered methods, in
// registration order; each carries the method's names, parameters, and
// defaults.
func Methods() []*MethodInfo {
	return engine.Descriptors()
}

// Stream processes q against a built method and yields matching graph IDs
// as verification confirms them. Engine.Stream is the usual entry point;
// this is the free-function form for a caller holding a bare Method.
func Stream(ctx context.Context, m Method, ds *Dataset, q *Graph) iter.Seq2[ID, error] {
	return core.StreamAnswers(ctx, m, ds, q)
}

// NewProcessor wraps a built method and its dataset into a query processor.
func NewProcessor(m Method, ds *Dataset) *Processor {
	return core.NewProcessor(m, ds)
}

// NewSyntheticDataset generates a synthetic dataset per §4.2.
func NewSyntheticDataset(cfg SynthConfig) *Dataset {
	return gen.Synthetic(cfg)
}

// NewRealisticDataset generates a simulated real dataset matched to Table 1
// statistics; see the AIDS, PDBS, PCM, PPI presets and RealConfig.Scaled.
func NewRealisticDataset(cfg RealConfig) *Dataset {
	return gen.Realistic(cfg)
}

// GenerateQueries extracts a random-walk query workload per §4.3.
func GenerateQueries(ds *Dataset, cfg WorkloadConfig) ([]*Graph, error) {
	return workload.Generate(ds, cfg)
}

// GenerateMixedQueries extracts a workload mixing query sizes and shapes
// (walks, simple paths, random subtrees), shuffled — traffic whose best
// indexing method flips query by query.
func GenerateMixedQueries(ds *Dataset, cfg MixedWorkloadConfig) ([]*Graph, error) {
	return workload.GenerateMixed(ds, cfg)
}

// IsSubgraph tests q ⊆ g directly with VF2 — the naive no-index baseline.
func IsSubgraph(q, g *Graph) bool {
	return subiso.Exists(q, g)
}

// BruteForceAnswers scans the whole dataset with VF2, the paper's naive
// method and this repository's ground truth.
func BruteForceAnswers(ctx context.Context, ds *Dataset, q *Graph) (IDSet, error) {
	return core.BruteForceAnswers(ctx, ds, q)
}

// FalsePositiveRatio computes equation (3) over a workload's candidate and
// answer sets.
func FalsePositiveRatio(candidates, answers []IDSet) float64 {
	return workload.FalsePositiveRatio(candidates, answers)
}

// Summarize aggregates a QueryBatch outcome into workload-level metrics.
func Summarize(results []BatchResult) WorkloadSummary {
	return core.Summarize(results)
}

// SaveIndex persists a built index to a file, so an expensive build can be
// paid once per dataset. All six methods write the same format — the
// checksummed section container Open's WithIndexPath uses — but unbound:
// the file is stamped with no dataset version, and LoadIndex checks it
// only against the dataset it is given. The index is written to a
// temporary file and renamed into place, so a failure mid-stream never
// leaves a partial index at path.
func SaveIndex(path string, m Method) error {
	return engine.SaveMethod(path, m)
}

// LoadIndex restores an index SaveIndex wrote, of the given method, over
// the dataset it was built from. A file that is not a container, fails its
// checksums, or does not fit the dataset is an error.
func LoadIndex(path string, id MethodID, ds *Dataset) (Method, error) {
	m, err := New(string(id))
	if err != nil {
		return nil, err
	}
	if err := engine.LoadMethod(path, m, ds); err != nil {
		return nil, err
	}
	return m, nil
}

// LoadDataset reads a GFD text dataset from a file.
func LoadDataset(path string) (*Dataset, error) {
	return graph.LoadDatasetFile(path)
}

// SaveDataset writes a dataset in GFD text form.
func SaveDataset(path string, ds *Dataset) error {
	return graph.SaveDatasetFile(path, ds)
}
