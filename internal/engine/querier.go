package engine

import (
	"context"
	"iter"

	"repro/internal/core"
	"repro/internal/graph"
)

// Querier is the one query surface every engine shape implements — Engine,
// Sharded, router.Multi, server.CachedEngine and the cluster coordinator:
// one-shot queries and streamed answers over a single dataset, readiness,
// and online mutation. It is the contract a serving layer
// (repro/internal/server) wraps — a result cache or an RPC fan-out
// interposes on Querier without caring which shape is behind it. A batch is
// not a method: core.QueryBatchFunc runs any Query over a workload.
type Querier interface {
	// Dataset returns the dataset queries are answered over. Its Dict is
	// the label space query graphs are resolved against; a shape that holds
	// no graphs itself (the cluster coordinator) returns a dataset carrying
	// only the name and the dictionary.
	Dataset() *graph.Dataset
	// Ready reports whether the index is fully materialized for serving:
	// false only while a lazily-opened (storage=mmap) index is still
	// warming. Queries are correct either way.
	Ready() bool
	// Query processes one subgraph query end to end.
	Query(ctx context.Context, q *graph.Graph) (*core.QueryResult, error)
	// Stream yields matching graph IDs as verification confirms them, in
	// ascending ID order, without materializing the answer set. It is
	// StreamStats(ctx, q, nil).
	Stream(ctx context.Context, q *graph.Graph) iter.Seq2[graph.ID, error]
	StatsStreamer
	Mutable
}

// StatsStreamer is Stream with pipeline observability: limit-honoring
// consumers (the server's limit=N) read how many candidates were produced
// and verified from stats (nil = no accounting).
type StatsStreamer interface {
	StreamStats(ctx context.Context, q *graph.Graph, stats *core.PipelineStats) iter.Seq2[graph.ID, error]
}

// MethodName is the spelling q's results carry in QueryResult.Method: a
// flat engine's method display name, a sharded or routed engine's own Name,
// and "" for a shape with neither.
func MethodName(q Querier) string {
	switch e := q.(type) {
	case interface{ Method() core.Method }:
		return e.Method().Name()
	case interface{ Name() string }:
		return e.Name()
	}
	return ""
}

var (
	_ Querier = (*Engine)(nil)
	_ Querier = (*Sharded)(nil)
)
