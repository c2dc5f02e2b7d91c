package engine_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/testutil/leak"
	"repro/internal/workload"
)

// fuzzSpecs are the selectable methods — the six paper methods plus the
// no-index scan baseline — with feature sizes scaled down for micro
// datasets, so each build takes microseconds while still exercising every
// filter's real candidate logic.
var fuzzSpecs = []string{
	"noindex",
	"grapes:maxPathLen=3",
	"ggsx:maxPathLen=3",
	"ctindex:maxTreeSize=4,maxCycleSize=4",
	"gindex:maxFeatureSize=4",
	"treedelta:maxFeatureSize=4",
	"gcode",
}

// fuzzFixture is one dataset, its queries and their brute-force truth,
// plus the engines built over it so far, cached across fuzz iterations:
// the fuzzer replays the same few fixtures under thousands of (query,
// workers, cancel-point) permutations, and rebuilding per permutation
// would dominate the run.
type fuzzFixture struct {
	ds      *graph.Dataset
	queries []*graph.Graph
	truth   []graph.IDSet
	engines map[string][]engine.Querier
}

var (
	fuzzMu       sync.Mutex
	fuzzFixtures = map[int64]*fuzzFixture{}
)

// fuzzSetup returns the cached fixture for dsSeed, building it on first
// use: a tiny synthetic dataset, a mixed walk/path/tree workload over it,
// and brute-force truth per query.
func fuzzSetup(t *testing.T, dsSeed int64) *fuzzFixture {
	t.Helper()
	fuzzMu.Lock()
	defer fuzzMu.Unlock()
	if fx, ok := fuzzFixtures[dsSeed]; ok {
		return fx
	}
	fx := &fuzzFixture{engines: map[string][]engine.Querier{}}
	fx.ds = gen.Synthetic(gen.SynthConfig{
		NumGraphs: 15, MeanNodes: 9, MeanDensity: 0.25, NumLabels: 3, Seed: 900 + dsSeed,
	})
	qs, err := workload.GenerateMixed(fx.ds, workload.MixedConfig{
		NumQueries: 6, Sizes: []int{2, 4}, Seed: 1700 + dsSeed,
	})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	fx.queries = qs
	fx.truth = make([]graph.IDSet, len(qs))
	for i, q := range qs {
		if fx.truth[i], err = core.BruteForceAnswers(context.Background(), fx.ds, q); err != nil {
			t.Fatalf("brute force: %v", err)
		}
	}
	fuzzFixtures[dsSeed] = fx
	return fx
}

// shapes returns the flat engine and the 2-shard engine of spec over the
// fixture, both verifying with the given workers, building them on first
// use.
func (fx *fuzzFixture) shapes(t *testing.T, spec string, workers int) []engine.Querier {
	t.Helper()
	fuzzMu.Lock()
	defer fuzzMu.Unlock()
	key := fmt.Sprintf("%s/%d", spec, workers)
	if e, ok := fx.engines[key]; ok {
		return e
	}
	ctx := context.Background()
	opts := []engine.Option{engine.WithSpec(spec), engine.WithVerifyWorkers(workers)}
	flat, err := engine.Open(ctx, fx.ds, opts...)
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	sharded, err := engine.OpenSharded(ctx, fx.ds, 2, opts...)
	if err != nil {
		t.Fatalf("%s sharded: %v", spec, err)
	}
	fx.engines[key] = []engine.Querier{flat, sharded}
	return fx.engines[key]
}

// FuzzStreamParity is the differential harness for the query runner: for a
// fuzz-chosen (dataset, method, query, verify budget) it checks, on the
// flat engine and on a 2-shard engine, serially and with the budget, that
// the one-shot answers are exactly the brute-force truth, that the stream
// yields exactly them in order, and that abandoning the stream after a
// fuzz-chosen prefix yields exactly that prefix of the truth (in order, no
// duplicate, no wrong id) while the verify pools shut down cleanly.
func FuzzStreamParity(f *testing.F) {
	// Seed corpus: every method, serial and parallel verification, with
	// cancel points at the start, middle, and past the end of the answers.
	for m := uint8(0); m < uint8(len(fuzzSpecs)); m++ {
		f.Add(uint8(0), m, uint8(0), uint8(0), uint8(1))
		f.Add(uint8(1), m, uint8(2), uint8(3), uint8(2))
		f.Add(uint8(2), m, uint8(4), uint8(1), uint8(255))
	}
	f.Fuzz(func(t *testing.T, dsSeed, mIdx, qIdx, workers, cancelAfter uint8) {
		defer leak.Check(t)()
		fx := fuzzSetup(t, int64(dsSeed%3))
		spec := fuzzSpecs[int(mIdx)%len(fuzzSpecs)]
		qi := int(qIdx) % len(fx.queries)
		q, truth := fx.queries[qi], fx.truth[qi]
		ctx := context.Background()

		for _, w := range []int{1, 1 + int(workers)%4} {
			for _, eng := range fx.shapes(t, spec, w) {
				name := fmt.Sprintf("%T %s (workers=%d)", eng, spec, w)
				res, err := eng.Query(ctx, q)
				if err != nil {
					t.Fatalf("%s one-shot: %v", name, err)
				}
				if !res.Answers.Equal(truth) {
					t.Fatalf("%s one-shot answers %v, want %v", name, res.Answers, truth)
				}

				var stats core.PipelineStats
				got := graph.IDSet{}
				for id, err := range eng.StreamStats(ctx, q, &stats) {
					if err != nil {
						t.Fatalf("%s stream: %v", name, err)
					}
					got = append(got, id)
				}
				if !got.Equal(truth) {
					t.Fatalf("%s stream %v, want %v", name, got, truth)
				}
				if v := int(stats.Verified.Load()); v < len(truth) {
					t.Fatalf("%s stream verified %d < %d answers", name, v, len(truth))
				}
				if p, v := stats.Produced.Load(), stats.Verified.Load(); p < v {
					t.Fatalf("%s stream produced %d < verified %d", name, p, v)
				}

				// Abandoning the stream after k answers must yield exactly
				// truth[:k] — a runner that reorders, duplicates, or invents
				// an id under early exit fails here.
				k := int(cancelAfter) % (len(truth) + 1)
				if k == 0 {
					continue
				}
				prefix := graph.IDSet{}
				for id, err := range eng.Stream(ctx, q) {
					if err != nil {
						t.Fatalf("%s prefix stream: %v", name, err)
					}
					if prefix = append(prefix, id); len(prefix) >= k {
						break
					}
				}
				if !prefix.Equal(truth[:k]) {
					t.Fatalf("%s prefix stream %v, want %v (truth %v)", name, prefix, truth[:k], truth)
				}
			}
		}
	})
}
