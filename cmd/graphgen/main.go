// Command graphgen generates graph datasets in GFD text form: synthetic
// datasets following the paper's GraphGen procedure, or simulations of the
// four real datasets (AIDS, PDBS, PCM, PPI) matched to Table 1.
//
// Usage:
//
//	graphgen -graphs 1000 -nodes 200 -density 0.025 -labels 20 -o data.gfd
//	graphgen -preset PCM -graphdiv 4 -nodediv 4 -o pcm.gfd
//	graphgen -preset AIDS -queries 20 -qsize 8 -qo queries.gfd
//
// With -index, the generated dataset is additionally indexed with the given
// engine method spec and the built index persisted next to the data, ready
// for gquery -ix:
//
//	graphgen -preset AIDS -o aids.gfd -index grapes:workers=8 -ixo aids.idx
//
// Adding -shards N builds N per-shard indexes in parallel over a
// hash-partitioned copy of the dataset and persists them as independent
// files under -ixo (a manifest at the path itself plus one .shard-i file
// per shard), ready for gquery -ix ... -shards N:
//
//	graphgen -preset AIDS -o aids.gfd -index ggsx -shards 4 -ixo aids.idx
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/engine"
	_ "repro/internal/engine/std"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/workload"
)

func main() {
	var (
		preset   = flag.String("preset", "", "real dataset preset: AIDS, PDBS, PCM, PPI (empty = synthetic)")
		graphDiv = flag.Float64("graphdiv", 1, "preset: divide the graph count by this factor")
		nodeDiv  = flag.Float64("nodediv", 1, "preset: divide node counts by this factor (degree preserved)")
		graphs   = flag.Int("graphs", 1000, "synthetic: number of graphs")
		nodes    = flag.Int("nodes", 200, "synthetic: mean nodes per graph")
		density  = flag.Float64("density", 0.025, "synthetic: mean graph density")
		labels   = flag.Int("labels", 20, "synthetic: number of distinct labels")
		seed     = flag.Int64("seed", 1, "random seed")
		out      = flag.String("o", "", "dataset output file (default stdout)")
		queries  = flag.Int("queries", 0, "also generate this many random-walk queries")
		qsize    = flag.Int("qsize", 8, "query size in edges")
		qout     = flag.String("qo", "", "query output file (required with -queries)")
		index    = flag.String("index", "", "also build an index with this method spec (e.g. grapes:workers=8)")
		ixout    = flag.String("ixo", "", "index output file (required with -index)")
		shards   = flag.Int("shards", 0, "build the index as N parallel shards persisted as independent files (0/1 = unsharded)")
	)
	flag.Parse()

	if err := run(*preset, *graphDiv, *nodeDiv, *graphs, *nodes, *density, *labels,
		*seed, *out, *queries, *qsize, *qout, *index, *ixout, *shards); err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
}

func run(preset string, graphDiv, nodeDiv float64, graphs, nodes int, density float64,
	labels int, seed int64, out string, queries, qsize int, qout, index, ixout string, shards int) error {
	if shards > 1 && index == "" {
		return fmt.Errorf("-shards requires -index")
	}
	if index != "" {
		if ixout == "" {
			return fmt.Errorf("-index requires -ixo")
		}
		if out == "" {
			return fmt.Errorf("-index requires -o (the index must pair with a dataset file)")
		}
		// Fail on a bad method spec before spending time generating.
		if _, err := engine.New(index); err != nil {
			return err
		}
	}
	var ds *graph.Dataset
	switch preset {
	case "":
		ds = gen.Synthetic(gen.SynthConfig{
			NumGraphs: graphs, MeanNodes: nodes, MeanDensity: density,
			NumLabels: labels, Seed: seed,
		})
	case "AIDS", "PDBS", "PCM", "PPI":
		cfg := map[string]gen.RealConfig{
			"AIDS": gen.AIDS, "PDBS": gen.PDBS, "PCM": gen.PCM, "PPI": gen.PPI,
		}[preset].Scaled(graphDiv, nodeDiv)
		cfg.Seed = seed
		ds = gen.Realistic(cfg)
	default:
		return fmt.Errorf("unknown preset %q", preset)
	}

	if err := writeDataset(out, ds); err != nil {
		return err
	}
	st := ds.ComputeStats()
	fmt.Fprintf(os.Stderr, "generated %q: %d graphs, avg %.1f nodes / %.1f edges, density %.4f, %d labels\n",
		ds.Name, st.NumGraphs, st.AvgNodes, st.AvgEdges, st.AvgDensity, st.NumLabels)

	if queries > 0 {
		if qout == "" {
			return fmt.Errorf("-queries requires -qo")
		}
		qs, err := workload.Generate(ds, workload.Config{NumQueries: queries, QueryEdges: qsize, Seed: seed + 1})
		if err != nil {
			return err
		}
		qds := graph.NewDataset("queries")
		qds.Dict.CopyFrom(&ds.Dict)
		for _, q := range qs {
			qds.Add(q)
		}
		if err := graph.SaveDatasetFile(qout, qds); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "generated %d %d-edge queries to %s\n", queries, qsize, qout)
	}

	if index != "" {
		// Build over the dataset as reloaded from the file, not the
		// in-memory original: loading interns labels in file order, and the
		// persisted index must agree with what gquery -ix will load. Always
		// build fresh and save explicitly — WithIndexPath would restore a
		// stale index left at ixout by a previous run.
		reloaded, err := graph.LoadDatasetFile(out)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if shards > 1 {
			s, err := engine.OpenSharded(context.Background(), reloaded, shards, engine.WithSpec(index))
			if err != nil {
				return err
			}
			if err := s.Save(ixout); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "indexed with %s across %d shards in %v (%.2f MB) to %s{,.shard-*}\n",
				s.Name(), shards, time.Since(t0).Round(time.Millisecond),
				float64(s.SizeBytes())/(1<<20), ixout)
			return nil
		}
		eng, err := engine.Open(context.Background(), reloaded, engine.WithSpec(index))
		if err != nil {
			return err
		}
		if err := eng.Save(ixout); err != nil {
			return err
		}
		m := eng.Method()
		fmt.Fprintf(os.Stderr, "indexed with %s in %v (%.2f MB) to %s\n",
			m.Name(), time.Since(t0).Round(time.Millisecond),
			float64(m.SizeBytes())/(1<<20), ixout)
	}
	return nil
}

func writeDataset(path string, ds *graph.Dataset) error {
	if path == "" {
		return graph.WriteDataset(os.Stdout, ds)
	}
	return graph.SaveDatasetFile(path, ds)
}
