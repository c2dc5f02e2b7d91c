package engine_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/diskfmt"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/subiso"
	"repro/internal/workload"
)

// Mined methods with the capped budgets the engine tests use, and a
// Tree+Δ that admits a Δ feature on its first discriminative sighting.
const (
	gindexSpec    = "gindex:maxPatterns=20000,supportRatio=0.2,maxFeatureSize=5"
	treedeltaSpec = "treedelta:maxPatterns=20000,supportRatio=0.2,maxFeatureSize=5,querySupportToAdd=0.05"
)

// TestMaintainedIndexMatchesContainment is the maintenance property of the
// three methods that once rebuilt on every mutation: after random adds and
// removes, interleaved with queries that let Tree+Δ admit Δ features,
// every gIndex feature posting and every Tree+Δ tree and Δ posting equals
// containment over the live graphs, and a CT-Index saves the fingerprints
// a fresh build computes — flat, and in each shard of a 4-shard engine.
// The postings are read from the saved file, the fingerprints compared as
// saved sections.
func TestMaintainedIndexMatchesContainment(t *testing.T) {
	for _, spec := range []string{"ctindex", gindexSpec, treedeltaSpec} {
		for _, shards := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", spec, shards), func(t *testing.T) {
				t.Parallel()
				testMaintainedIndex(t, spec, shards)
			})
		}
	}
}

func testMaintainedIndex(t *testing.T, spec string, shards int) {
	ctx := context.Background()
	ds := gen.Synthetic(gen.SynthConfig{NumGraphs: 40, MeanNodes: 10, MeanDensity: 0.3, NumLabels: 3, Seed: 61})
	pool := gen.Synthetic(gen.SynthConfig{NumGraphs: 30, MeanNodes: 10, MeanDensity: 0.3, NumLabels: 4, Seed: 62}).Graphs
	queries, err := workload.Generate(ds, workload.Config{NumQueries: 6, QueryEdges: 6, Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	// Triangles are what Tree+Δ admits here: their trees leave candidates
	// the triangle prunes. They lead, so Δ postings exist to maintain.
	queries = append(triangles(3), queries...)
	var e journaled
	opts := []engine.Option{engine.WithSpec(spec), engine.WithVerifyWorkers(1)}
	if shards == 0 {
		e, err = engine.Open(ctx, ds, opts...)
	} else {
		e, err = engine.OpenSharded(ctx, ds, shards, opts...)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if _, err := e.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(64))
	for i, g := range pool {
		if rng.Intn(2) == 0 {
			if _, err := e.AddGraph(ctx, g.ShallowWithID(0)); err != nil {
				t.Fatal(err)
			}
		} else if live := ds.LiveIDSet(); len(live) > 0 {
			if err := e.RemoveGraph(ctx, live[rng.Intn(len(live))]); err != nil {
				t.Fatal(err)
			}
		}
		q := queries[i%len(queries)]
		got, err := e.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.BruteForceAnswers(ctx, ds, q)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Answers.Equal(want) {
			t.Fatalf("after mutation %d: answers %v, brute force %v", i, got.Answers, want)
		}
	}

	path := filepath.Join(t.TempDir(), "idx")
	if err := e.(interface{ Save(string) error }).Save(path); err != nil {
		t.Fatal(err)
	}
	files, subs := []string{path}, []*graph.Dataset{ds}
	if shards > 0 {
		files, subs = nil, nil
		for i := range shards {
			sub, _ := engine.PartitionShard(ds, shards, i)
			files = append(files, engine.ShardIndexPath(path, i))
			subs = append(subs, sub)
		}
	}
	deltas := 0
	for i, f := range files {
		r, err := diskfmt.Open(f, false)
		if err != nil {
			t.Fatal(err)
		}
		switch spec {
		case "ctindex":
			fresh, err := engine.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.Build(ctx, subs[i]); err != nil {
				t.Fatal(err)
			}
			rebuilt := filepath.Join(t.TempDir(), "rebuilt")
			if err := engine.SaveMethod(rebuilt, fresh); err != nil {
				t.Fatal(err)
			}
			checkSectionsEqual(t, r, rebuilt, 1, 2) // meta, fingerprints
		case gindexSpec:
			checkPostings(t, r, 2, subs[i]) // the feature postings
		case treedeltaSpec:
			checkPostings(t, r, 2, subs[i])           // the tree postings
			deltas += checkPostings(t, r, 3, subs[i]) // the admitted Δ postings
		}
		r.Close()
	}
	if spec == treedeltaSpec && deltas == 0 {
		t.Fatal("the queries admitted no Δ feature; the property test covers none")
	}
}

// checkPostings decodes the keyed-postings section sec of r and checks
// every feature's posting against containment over ds's live graphs. It
// returns the number of features.
func checkPostings(t *testing.T, r *diskfmt.Reader, sec uint32, ds *graph.Dataset) int {
	t.Helper()
	raw, err := r.Section(sec)
	if err != nil {
		t.Fatal(err)
	}
	table, err := diskfmt.DecodeKeyedPostings(raw, ds.Len())
	if err != nil {
		t.Fatal(err)
	}
	for key, post := range table {
		f, ok := canon.KeyGraph(key)
		if !ok {
			t.Fatalf("section %d: key %q does not decode", sec, string(key))
		}
		var want graph.IDSet
		for id := range ds.Len() {
			if g := ds.Graph(graph.ID(id)); g != nil && subiso.Exists(f, g) {
				want = append(want, graph.ID(id))
			}
		}
		if !post.Equal(want) {
			t.Fatalf("section %d: feature %v posts %v, contained in %v", sec, f, post, want)
		}
	}
	return len(table)
}

// checkSectionsEqual compares sections secs of r with those of the file at
// path.
func checkSectionsEqual(t *testing.T, r *diskfmt.Reader, path string, secs ...uint32) {
	t.Helper()
	other, err := diskfmt.Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	for _, sec := range secs {
		a, err := r.Section(sec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := other.Section(sec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("section %d of the maintained index differs from a rebuild's", sec)
		}
	}
}

// triangles returns one triangle query per multiset of labels below
// labels.
func triangles(labels int) []*graph.Graph {
	var out []*graph.Graph
	for a := range labels {
		for b := a; b < labels; b++ {
			for c := b; c < labels; c++ {
				q := graph.New(0)
				for _, l := range []int{a, b, c} {
					q.AddVertex(graph.Label(l))
				}
				q.MustAddEdge(0, 1)
				q.MustAddEdge(1, 2)
				q.MustAddEdge(2, 0)
				out = append(out, q)
			}
		}
	}
	return out
}
