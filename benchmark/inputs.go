package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/workload"
)

// op is one operation of a pass's fixed, seed-determined op list.
type op struct {
	kind opKind
	// arg is the query index (opQuery, opServe), the index into the added
	// graphs (opAdd), or the index of the add whose graph is removed
	// (opRemove; graph ids are positional, so the id is base+arg).
	arg int32
	// body is the marshalled request of an opServe.
	body []byte
}

// inputs is everything a run derives from --seed. The program under test
// receives only these.
type inputs struct {
	sp      spec
	seed    int64
	queries []*graph.Graph
	ops     []op
	adds    int // number of opAdd in ops

	datasetS, querygenS float64 // generation time of the last dataset() / first queries
}

func (in *inputs) dataCfg() gen.SynthConfig {
	c := in.sp.data
	c.Seed = mix(in.seed, 1)
	return c
}

// dataset regenerates the workload's dataset. Every engine gets its own
// copy: mutations and restores never share graphs between engines.
func (in *inputs) dataset() *graph.Dataset {
	t0 := time.Now()
	ds := gen.Synthetic(in.dataCfg())
	in.datasetS = time.Since(t0).Seconds()
	return ds
}

// addGraphs regenerates the graphs mutate ops add: a second, independent
// synthetic dataset of the same regime. Regenerated per use because a graph
// carries the id of the one dataset it was added to.
func (in *inputs) addGraphs(n int) []*graph.Graph {
	c := in.sp.data
	c.Seed = mix(in.seed, 4)
	c.NumGraphs = n
	return gen.Synthetic(c).Graphs
}

// lagBlocks is how many blocks an added graph stays live before the
// block-end remove takes it out again, so queries see it for a while.
const lagBlocks = 4

// generate derives the queries and the op list from ds, which must be a
// fresh in.dataset().
func (in *inputs) generate(ds *graph.Dataset) error {
	sp, seed := in.sp, in.seed
	t0 := time.Now()
	qs, err := workload.Generate(ds, workload.Config{
		NumQueries: sp.queries, QueryEdges: sp.queryEdges, Seed: mix(seed, 2),
	})
	if err != nil {
		return fmt.Errorf("generating queries: %w", err)
	}
	in.querygenS = time.Since(t0).Seconds()
	in.queries = qs

	rng := rand.New(rand.NewSource(mix(seed, 3)))
	switch {
	case sp.serve:
		if in.ops, err = serveOps(qs, &ds.Dict, sp.opsPerPass, rng); err != nil {
			return err
		}
	case sp.mutateEvery > 0:
		in.ops = make([]op, sp.opsPerPass)
		block := 2 * sp.mutateEvery
		for i := range in.ops {
			switch pos, blk := i%block, i/block; {
			case pos == sp.mutateEvery-1:
				in.ops[i] = op{kind: opAdd, arg: int32(in.adds)}
				in.adds++
			case pos == block-1 && blk >= lagBlocks:
				in.ops[i] = op{kind: opRemove, arg: int32(blk - lagBlocks)}
			default:
				in.ops[i] = op{kind: opQuery, arg: int32(rng.Intn(len(qs)))}
			}
		}
	default:
		in.ops = make([]op, len(qs))
		for i := range in.ops {
			in.ops[i] = op{kind: opQuery, arg: int32(i)}
		}
	}
	return nil
}

// serveOps draws n requests Zipf(zipfS) over qs, each a freshly permuted
// copy in wire form: the cache must hit on structure, not on bytes.
func serveOps(qs []*graph.Graph, dict *graph.Dictionary, n int, rng *rand.Rand) ([]op, error) {
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(qs)-1))
	// Rank r of the Zipf draw is mapped through a seed-determined
	// permutation, so the hot queries are not the first ones generated.
	perm := rng.Perm(len(qs))
	ops := make([]op, n)
	for i := range ops {
		qi := perm[zipf.Uint64()]
		body, err := json.Marshal(server.GraphToJSON(workload.Permute(qs[qi], rng.Int63()), dict))
		if err != nil {
			return nil, err
		}
		ops[i] = op{kind: opServe, arg: int32(qi), body: body}
	}
	return ops, nil
}

// opListHash identifies an op list: same seed, same hash.
func (in *inputs) opListHash() uint64 {
	h := fnv.New64a()
	for _, o := range in.ops {
		h.Write([]byte{byte(o.kind), byte(o.arg), byte(o.arg >> 8), byte(o.arg >> 16), byte(o.arg >> 24)})
		h.Write(o.body)
	}
	for _, q := range in.queries {
		for _, l := range q.Labels() {
			h.Write([]byte{byte(l)})
		}
		for _, e := range q.Edges() {
			h.Write([]byte{byte(e[0]), byte(e[1])})
		}
	}
	return h.Sum64()
}
