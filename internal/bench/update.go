package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
)

// updateAblationSpecs are the methods the update ablation mutates under
// interleaved query/update traffic: the six indexed methods, the two
// mining ones with the capped budgets the mutation tests use, since a
// rebuild per mutation re-mines.
var updateAblationSpecs = []string{
	"grapes", "ggsx", "gcode", "ctindex",
	"gindex:maxPatterns=20000,supportRatio=0.2,maxFeatureSize=5",
	"treedelta:maxPatterns=20000,maxFeatureSize=5,querySupportToAdd=0.5",
}

// UpdateResult is one (method, maintenance strategy) cell of the update
// ablation.
type UpdateResult struct {
	// Variant labels the row: "online:<method>" (the engine's Mutable path,
	// which folds each mutation into the live index) or "rebuild:<method>"
	// (full from-scratch reopen per mutation, the offline baseline).
	Variant   string `json:"variant"`
	Spec      string `json:"spec"`
	DNF       bool   `json:"dnf,omitempty"`
	Reason    string `json:"reason,omitempty"`
	Mutations int    `json:"mutations,omitempty"`
	Queries   int    `json:"queries,omitempty"`
	// MaintainSeconds is the total wall-clock spent keeping the index
	// consistent across the mutation stream; QuerySeconds the engine time
	// of the interleaved queries.
	MaintainSeconds float64 `json:"maintain_seconds"`
	QuerySeconds    float64 `json:"query_seconds"`
	// SpeedupVsRebuild, on online rows, is the rebuild baseline's
	// MaintainSeconds over this row's — how much online maintenance beats
	// a full rebuild per mutation.
	SpeedupVsRebuild float64 `json:"speedup_vs_rebuild,omitempty"`
}

// updateOp is one step of the deterministic mutation stream: either a
// removal of a then-live graph id or the addition of a generated graph.
type updateOp struct {
	remove graph.ID
	add    *graph.Graph // nil for removals
}

// updateOps derives the mutation stream: alternating remove/add, removal
// targets drawn from the evolving live id set, additions drawn from a
// synthetic pool matching the dataset's label universe. Both strategies
// replay exactly this stream.
func updateOps(ds *graph.Dataset, s Scale, count int) []updateOp {
	pool := gen.Synthetic(gen.SynthConfig{
		NumGraphs: (count + 1) / 2, MeanNodes: s.Nodes, MeanDensity: s.Density,
		NumLabels: s.Labels, Seed: s.Seed + 4242,
	})
	rng := rand.New(rand.NewSource(s.Seed + 17))
	live := ds.LiveIDSet()
	nextID := graph.ID(ds.Len())
	var ops []updateOp
	poolIdx := 0
	for i := 0; i < count; i++ {
		if i%2 == 0 && len(live) > 0 {
			j := rng.Intn(len(live))
			ops = append(ops, updateOp{remove: live[j]})
			live = append(live[:j], live[j+1:]...)
		} else {
			ops = append(ops, updateOp{add: pool.Graphs[poolIdx]})
			poolIdx++
			live = append(live, nextID)
			nextID++
		}
	}
	return ops
}

// RunUpdateAblation measures online index maintenance against the offline
// full-rebuild baseline under interleaved query/update traffic: for each
// method, the same deterministic mutation stream (alternating removals of
// live graphs and additions of generated ones, a query slice between
// mutations) runs twice —
//
//   - online: one engine stays open and applies every mutation through the
//     Mutable capability, which folds it into the live index;
//   - rebuild: the dataset is mutated directly and a fresh engine is
//     opened — a full index build — after every mutation, the only option
//     before online mutation existed.
//
// Every variant runs on its own identically generated dataset copy, so the
// streams are comparable and the final datasets identical.
func RunUpdateAblation(ctx context.Context, s Scale, log io.Writer) ([]UpdateResult, error) {
	logf := func(format string, args ...any) {
		if log != nil {
			fmt.Fprintf(log, format, args...)
		}
	}
	// The query workload comes from the pristine dataset: queries stay
	// fixed while the dataset under them mutates.
	baseDS := AblationDataset(s)
	exp := Experiment{QuerySizes: s.QuerySizes, QueriesPerSize: s.QueriesPerSize, Seed: s.Seed}
	sized, err := buildWorkload(baseDS, exp)
	if err != nil {
		return nil, fmt.Errorf("bench: update ablation: %w", err)
	}
	queries := make([]*graph.Graph, len(sized))
	for i, sq := range sized {
		queries[i] = sq.q
	}
	mutations := len(queries) / 2
	if mutations < 4 {
		mutations = 4
	}
	perSlice := len(queries) / mutations
	if perSlice < 1 {
		perSlice = 1
	}

	var out []UpdateResult
	for _, spec := range updateAblationSpecs {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		name, _, _ := strings.Cut(spec, ":")
		online := UpdateResult{Variant: "online:" + name, Spec: spec}
		runUpdateOnline(ctx, s, spec, mutations, perSlice, queries, &online)
		rebuild := UpdateResult{Variant: "rebuild:" + name, Spec: spec}
		runUpdateRebuild(ctx, s, spec, mutations, perSlice, queries, &rebuild)
		if !online.DNF && !rebuild.DNF && online.MaintainSeconds > 0 {
			online.SpeedupVsRebuild = rebuild.MaintainSeconds / online.MaintainSeconds
		}
		for _, r := range []UpdateResult{online, rebuild} {
			logf("[ablation/update] %-16s maintain=%.4fs query=%.4fs speedup=%.2fx%s\n",
				r.Variant, r.MaintainSeconds, r.QuerySeconds, r.SpeedupVsRebuild, updateDNFNote(r))
		}
		out = append(out, online, rebuild)
	}
	return out, nil
}

// runUpdateOnline replays the mutation stream through one live engine's
// Mutable capability.
func runUpdateOnline(ctx context.Context, s Scale, spec string, mutations, perSlice int, queries []*graph.Graph, res *UpdateResult) {
	ds := AblationDataset(s)
	ops := updateOps(ds, s, mutations)
	buildCtx, cancel := withOptionalTimeout(ctx, s.BuildTimeout)
	eng, err := engine.Open(buildCtx, ds, engine.WithSpec(spec), engine.WithVerifyWorkers(1))
	cancel()
	if err != nil {
		res.DNF, res.Reason = true, err.Error()
		return
	}
	qi := 0
	for _, op := range ops {
		t0 := time.Now()
		if op.add != nil {
			_, err = eng.AddGraph(ctx, op.add.ShallowWithID(0))
		} else {
			err = eng.RemoveGraph(ctx, op.remove)
		}
		res.MaintainSeconds += time.Since(t0).Seconds()
		if err != nil {
			res.DNF, res.Reason = true, err.Error()
			return
		}
		res.Mutations++
		if err := runUpdateQueries(ctx, s, eng, queries, &qi, perSlice, res); err != nil {
			res.DNF, res.Reason = true, err.Error()
			return
		}
	}
}

// runUpdateRebuild replays the mutation stream by mutating the dataset
// directly and paying a full from-scratch engine open after every
// mutation — the offline baseline.
func runUpdateRebuild(ctx context.Context, s Scale, spec string, mutations, perSlice int, queries []*graph.Graph, res *UpdateResult) {
	ds := AblationDataset(s)
	ops := updateOps(ds, s, mutations)
	var eng *engine.Engine
	qi := 0
	for _, op := range ops {
		t0 := time.Now()
		if op.add != nil {
			ds.Add(op.add.ShallowWithID(0))
		} else {
			ds.Remove(op.remove)
		}
		buildCtx, cancel := withOptionalTimeout(ctx, s.BuildTimeout)
		var err error
		eng, err = engine.Open(buildCtx, ds, engine.WithSpec(spec), engine.WithVerifyWorkers(1))
		cancel()
		res.MaintainSeconds += time.Since(t0).Seconds()
		if err != nil {
			res.DNF, res.Reason = true, err.Error()
			return
		}
		res.Mutations++
		if err := runUpdateQueries(ctx, s, eng, queries, &qi, perSlice, res); err != nil {
			res.DNF, res.Reason = true, err.Error()
			return
		}
	}
}

// runUpdateQueries runs the next perSlice queries (round-robin) through
// the engine, accumulating engine-measured latency.
func runUpdateQueries(ctx context.Context, s Scale, eng *engine.Engine, queries []*graph.Graph, qi *int, perSlice int, res *UpdateResult) error {
	qctx, cancel := withOptionalTimeout(ctx, s.QueryTimeout)
	defer cancel()
	for k := 0; k < perSlice; k++ {
		q := queries[*qi%len(queries)]
		*qi++
		r, err := eng.Query(qctx, q)
		if err != nil {
			return err
		}
		res.QuerySeconds += r.TotalTime().Seconds()
		res.Queries++
	}
	return nil
}

func updateDNFNote(r UpdateResult) string {
	if r.DNF {
		return " DNF(" + r.Reason + ")"
	}
	return ""
}

// WriteUpdateReport renders the update ablation: per method, the online
// maintenance cost against the full-rebuild baseline, with the interleaved
// query cost alongside.
func WriteUpdateReport(w io.Writer, results []UpdateResult) {
	fmt.Fprintf(w, "\n# Ablation: online mutation vs full rebuild (interleaved query/update traffic)\n")
	fmt.Fprintf(w, "%-18s %10s %8s %14s %14s %9s\n",
		"variant", "mutations", "queries", "maintain(s)", "query(s)", "speedup")
	for _, r := range results {
		if r.DNF {
			fmt.Fprintf(w, "%-18s  DNF: %s\n", r.Variant, r.Reason)
			continue
		}
		speedup := "-"
		if r.SpeedupVsRebuild > 0 {
			speedup = fmt.Sprintf("%.2fx", r.SpeedupVsRebuild)
		}
		fmt.Fprintf(w, "%-18s %10d %8d %14.4f %14.4f %9s\n",
			r.Variant, r.Mutations, r.Queries, r.MaintainSeconds, r.QuerySeconds, speedup)
	}
}
