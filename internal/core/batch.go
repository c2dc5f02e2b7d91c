package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/graph"
)

// BatchOptions configures QueryBatch.
type BatchOptions struct {
	// Workers is the query-level parallelism (default: GOMAXPROCS).
	// Methods whose query processing mutates the index (Tree+Δ) serialize
	// internally; batching remains correct, only less parallel.
	Workers int
}

// BatchResult pairs one query's result with its position in the batch.
type BatchResult struct {
	Query  int
	Result *QueryResult
	Err    error
}

// QueryBatch processes a workload of queries concurrently and returns the
// per-query results in input order. The first error is returned after all
// workers stop; individual failures are also available per entry.
func (p *Processor) QueryBatch(ctx context.Context, queries []*graph.Graph, opts BatchOptions) ([]BatchResult, error) {
	return QueryBatchFunc(ctx, queries, opts, p.QueryCtx)
}

// QueryBatchFunc is the one batch runner, behind Processor.QueryBatch and
// the server's /batch, and over any engine shape's Query: it drives queries
// through the given query function on a worker pool, returning per-query
// results in input order. An
// individual query's failure is recorded on its entry and the rest of the
// batch still runs, with the first error returned after all workers stop;
// a context cancellation stops issuing queries — the feeder stops handing
// out work and workers refuse items already handed to them — marking every
// unprocessed entry with ctx.Err() instead of draining the slice.
func QueryBatchFunc(ctx context.Context, queries []*graph.Graph, opts BatchOptions,
	query func(context.Context, *graph.Graph) (*QueryResult, error)) ([]BatchResult, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	results := make([]BatchResult, len(queries))
	if len(queries) == 0 {
		return results, nil
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				// A query handed out just before cancellation must not
				// still run: many filter stages are not ctx-aware, so
				// issuing it would pay its full cost.
				if err := ctx.Err(); err != nil {
					results[i] = BatchResult{Query: i, Err: err}
					continue
				}
				res, err := query(ctx, queries[i])
				results[i] = BatchResult{Query: i, Result: res, Err: err}
			}
		}()
	}
	canceled := func(from int) ([]BatchResult, error) {
		close(next)
		wg.Wait()
		for j := from; j < len(queries); j++ {
			if results[j].Result == nil && results[j].Err == nil {
				results[j] = BatchResult{Query: j, Err: ctx.Err()}
			}
		}
		return results, ctx.Err()
	}
	for i := range queries {
		// Check before the select too: when both cases are ready the
		// select picks randomly, which would keep feeding a canceled
		// batch roughly every other query.
		if ctx.Err() != nil {
			return canceled(i)
		}
		select {
		case next <- i:
		case <-ctx.Done():
			return canceled(i)
		}
	}
	close(next)
	wg.Wait()
	for i := range results {
		if results[i].Err != nil {
			return results, fmt.Errorf("core: query %d: %w", i, results[i].Err)
		}
	}
	return results, nil
}

// WorkloadSummary aggregates a processed batch into the workload-level
// metrics the paper reports.
type WorkloadSummary struct {
	Queries       int
	AvgQueryTime  float64 // seconds
	FPRatio       float64 // equation (3)
	AvgCandidates float64
	AvgAnswers    float64
}

// Summarize aggregates successful batch results.
func Summarize(results []BatchResult) WorkloadSummary {
	var s WorkloadSummary
	var totalTime float64
	for _, br := range results {
		if br.Err != nil || br.Result == nil {
			continue
		}
		s.Queries++
		totalTime += br.Result.TotalTime().Seconds()
		s.FPRatio += br.Result.FalsePositiveRatio()
		s.AvgCandidates += float64(len(br.Result.Candidates))
		s.AvgAnswers += float64(len(br.Result.Answers))
	}
	if s.Queries > 0 {
		n := float64(s.Queries)
		s.AvgQueryTime = totalTime / n
		s.FPRatio /= n
		s.AvgCandidates /= n
		s.AvgAnswers /= n
	}
	return s
}
