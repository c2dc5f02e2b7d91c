package repro_test

import (
	"context"
	"math/rand"
	"testing"

	"repro"
	"repro/internal/graph"
)

// mutOp is one step of a deterministic mutation script: a removal of a
// then-live id, or the addition of a pool graph. Each replay passes its
// own shallow copy of the added graph, so scripts can run against several
// engines and dataset copies.
type mutOp struct {
	remove repro.ID
	add    *repro.Graph // nil for removals
}

func mutationBase(seed int64) *repro.Dataset {
	return repro.NewSyntheticDataset(repro.SynthConfig{
		NumGraphs: 20, MeanNodes: 12, MeanDensity: 0.18, NumLabels: 4, Seed: seed,
	})
}

// mutationSpec caps the mining methods' budgets like the engine tests do:
// tiny shards drive the frequent-mining support floor to 1, which explodes
// unbounded mining.
func mutationSpec(name string) string {
	switch name {
	case "gindex":
		return "gindex:maxPatterns=20000,supportRatio=0.2,maxFeatureSize=5"
	case "treedelta":
		return "treedelta:maxPatterns=20000,maxFeatureSize=5,querySupportToAdd=0.5"
	}
	return name
}

// mutationScript derives a random interleaved add/remove sequence against
// a dataset shaped like mutationBase: removal targets track the evolving
// live set, additions come from a synthetic pool in the same label
// universe.
func mutationScript(base *repro.Dataset, n int, seed int64) []mutOp {
	pool := repro.NewSyntheticDataset(repro.SynthConfig{
		NumGraphs: n, MeanNodes: 12, MeanDensity: 0.18, NumLabels: 4, Seed: seed + 99,
	})
	rng := rand.New(rand.NewSource(seed))
	live := base.LiveIDSet()
	nextID := repro.ID(base.Len())
	var ops []mutOp
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 && len(live) > 0 {
			j := rng.Intn(len(live))
			ops = append(ops, mutOp{remove: live[j]})
			live = append(live[:j], live[j+1:]...)
		} else {
			ops = append(ops, mutOp{add: pool.Graphs[i]})
			live = append(live, nextID)
			nextID++
		}
	}
	return ops
}

// applyScript replays the script through an engine's Mutable capability.
func applyScript(t *testing.T, ctx context.Context, m repro.Mutable, ops []mutOp) {
	t.Helper()
	for i, op := range ops {
		var err error
		if op.add != nil {
			_, err = m.AddGraph(ctx, op.add.ShallowWithID(0))
		} else {
			err = m.RemoveGraph(ctx, op.remove)
		}
		if err != nil {
			t.Fatalf("script op %d: %v", i, err)
		}
	}
}

// mutatedDataset builds the script's final dataset from scratch: a fresh
// identical base with the mutations applied directly.
func mutatedDataset(seed int64, ops []mutOp) *repro.Dataset {
	ds := mutationBase(seed)
	for _, op := range ops {
		if op.add != nil {
			ds.Add(op.add.ShallowWithID(0))
		} else {
			ds.Remove(op.remove)
		}
	}
	return ds
}

func streamedAnswers(t *testing.T, ctx context.Context, q repro.Querier, g *repro.Graph) repro.IDSet {
	t.Helper()
	var out repro.IDSet
	prev := repro.ID(-1)
	for id, err := range q.Stream(ctx, g) {
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		if id <= prev {
			t.Fatalf("stream ids not ascending: %d after %d", id, prev)
		}
		prev = id
		out = append(out, id)
	}
	return out
}

// TestMutationParityEveryMethod is the mutation correctness contract:
// after a random interleaved add/remove sequence, every registered method
// — served flat, sharded N=4, and through the adaptive router — answers
// identically (one-shot and streamed) to a from-scratch engine built on
// the final dataset, which in turn matches brute force.
func TestMutationParityEveryMethod(t *testing.T) {
	const seed = 11
	ctx := context.Background()
	base := mutationBase(seed)
	ops := mutationScript(base, 8, seed+1)
	finalDS := mutatedDataset(seed, ops)
	queries, err := repro.GenerateQueries(finalDS, repro.WorkloadConfig{
		NumQueries: 5, QueryEdges: 4, Seed: seed + 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth on the final dataset.
	truth := make([]repro.IDSet, len(queries))
	for i, q := range queries {
		if truth[i], err = repro.BruteForceAnswers(ctx, finalDS, q); err != nil {
			t.Fatal(err)
		}
	}

	check := func(t *testing.T, eng repro.Querier) {
		t.Helper()
		for i, q := range queries {
			res, err := eng.Query(ctx, q)
			if err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
			if !res.Answers.Equal(truth[i]) {
				t.Errorf("query %d: answers %v, from-scratch truth %v", i, res.Answers, truth[i])
			}
			if streamed := streamedAnswers(t, ctx, eng, q); !streamed.Equal(truth[i]) {
				t.Errorf("query %d: streamed %v, from-scratch truth %v", i, streamed, truth[i])
			}
		}
	}

	for _, d := range repro.Methods() {
		if d.OpenQuerier != nil {
			continue // composite entries (the router) are covered below
		}
		spec := mutationSpec(d.Name)
		t.Run("flat/"+spec, func(t *testing.T) {
			ds := mutationBase(seed)
			eng, err := repro.Open(ctx, ds, repro.WithSpec(spec))
			if err != nil {
				t.Fatal(err)
			}
			before := eng.Epoch()
			applyScript(t, ctx, eng, ops)
			if got := eng.Epoch(); got != before+uint64(len(ops)) {
				t.Errorf("epoch %d after %d mutations from %d", got, len(ops), before)
			}
			// From-scratch engine on the final dataset: the parity target.
			fresh, err := repro.Open(ctx, finalDS, repro.WithSpec(spec))
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range queries {
				want, err := fresh.Query(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if !want.Answers.Equal(truth[i]) {
					t.Fatalf("from-scratch engine diverges from brute force on query %d", i)
				}
			}
			check(t, eng)
		})
		t.Run("sharded/"+spec, func(t *testing.T) {
			ds := mutationBase(seed)
			eng, err := repro.OpenSharded(ctx, ds, 4, repro.WithSpec(spec))
			if err != nil {
				t.Fatal(err)
			}
			applyScript(t, ctx, eng, ops)
			check(t, eng)
		})
	}

	t.Run("router", func(t *testing.T) {
		ds := mutationBase(seed)
		m, err := repro.OpenRouted(ctx, ds, repro.RouterConfig{
			Methods: []string{"grapes", "ggsx", "gcode"},
			Options: repro.RouterOptions{Policy: "learned", Epsilon: 0.3, Seed: 7},
		})
		if err != nil {
			t.Fatal(err)
		}
		applyScript(t, ctx, m, ops)
		check(t, m)
	})
}

// TestRemoveReAddRegression pins the tombstone contract end to end for
// every method: removing a known answer makes it disappear from
// Candidates and Answers immediately; re-adding an identical graph makes
// it reappear under its new id (ids are never reused), and the answers
// are brute force's. It runs each method opened by spec and, under
// WithMethod/, opened with an instance the engine cannot construct afresh:
// no method needs a rebuild to apply a mutation.
func TestRemoveReAddRegression(t *testing.T) {
	const seed = 31
	ctx := context.Background()
	for _, d := range repro.Methods() {
		if d.OpenQuerier != nil {
			continue
		}
		for _, name := range []string{d.Name, "WithMethod/" + d.Name} {
			t.Run(name, func(t *testing.T) {
				testRemoveReAdd(t, ctx, seed, mutationSpec(d.Name), name != d.Name)
			})
		}
	}
}

func testRemoveReAdd(t *testing.T, ctx context.Context, seed int64, spec string, byMethod bool) {
	ds := mutationBase(seed)
	opt := repro.WithSpec(spec)
	if byMethod {
		m, err := repro.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		opt = repro.WithMethod(m)
	}
	eng, err := repro.Open(ctx, ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := repro.GenerateQueries(ds, repro.WorkloadConfig{
		NumQueries: 1, QueryEdges: 4, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := queries[0]
	res, err := eng.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("walk-extracted query must have at least one answer")
	}
	victim := res.Answers[0]
	victimGraph := ds.Graph(victim).Clone()

	if err := eng.RemoveGraph(ctx, victim); err != nil {
		t.Fatal(err)
	}
	res, err = eng.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Answers.Contains(victim) || res.Candidates.Contains(victim) {
		t.Fatalf("removed graph %d still surfaces (candidates %v, answers %v)",
			victim, res.Candidates, res.Answers)
	}
	if streamed := streamedAnswers(t, ctx, eng, q); streamed.Contains(victim) {
		t.Fatalf("removed graph %d still streams", victim)
	}
	if err := eng.RemoveGraph(ctx, victim); err == nil {
		t.Error("double remove must fail")
	}

	newID, err := eng.AddGraph(ctx, victimGraph)
	if err != nil {
		t.Fatal(err)
	}
	if newID == victim {
		t.Fatalf("re-add reused id %d", victim)
	}
	res, err = eng.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answers.Contains(newID) {
		t.Fatalf("re-added graph %d absent from answers %v", newID, res.Answers)
	}
	if res.Answers.Contains(victim) {
		t.Fatalf("tombstoned id %d resurfaced after re-add", victim)
	}
	want, err := repro.BruteForceAnswers(ctx, ds, q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answers.Equal(want) {
		t.Fatalf("answers %v after re-add, brute force %v", res.Answers, want)
	}
}

// TestMutablePersistenceEpoch pins the epoch stamp in persisted index
// files: an index file restores at the dataset state it was written at or,
// through its journal, at a state its journaled mutations reach — never at
// another state, nor after a different mutation history of equal length.
func TestMutablePersistenceEpoch(t *testing.T) {
	ctx := context.Background()
	path := t.TempDir() + "/idx"
	ds := mutationBase(41)
	eng, err := repro.Open(ctx, ds, repro.WithSpec("grapes"), repro.WithIndexPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RemoveGraph(ctx, 3); err != nil {
		t.Fatal(err)
	}

	// Same dataset state, no mutation: the file plus the journaled removal
	// restores.
	ds2 := mutationBase(41)
	ds2.Remove(3)
	eng2, err := repro.Open(ctx, ds2, repro.WithSpec("grapes"), repro.WithIndexPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if !eng2.Restored() {
		t.Error("index journaled at the mutated epoch should restore for the same state")
	}

	// Once compacted, the file is written at the mutated epoch: a dataset at
	// the base epoch must rebuild, not restore.
	if err := eng.Save(path); err != nil {
		t.Fatal(err)
	}
	ds3 := mutationBase(41)
	eng3, err := repro.Open(ctx, ds3, repro.WithSpec("grapes"), repro.WithIndexPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if eng3.Restored() {
		t.Error("index persisted at another epoch must not restore")
	}

	// A different mutation history of the same length lands on the same
	// epoch; the structural version tag must still reject the restore.
	// (eng3 just overwrote the file at the base epoch; its removal of 3
	// journals the epoch-N+1 remove-3 state.)
	if err := eng3.RemoveGraph(ctx, 3); err != nil {
		t.Fatal(err)
	}
	ds4 := mutationBase(41)
	ds4.Remove(7) // same epoch as ds3 after its remove, different content
	eng4, err := repro.Open(ctx, ds4, repro.WithSpec("grapes"), repro.WithIndexPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if eng4.Restored() {
		t.Error("index persisted for a different same-length mutation history must not restore")
	}
}

// TestOpenShardedOverMutatedDataset is the partition-tombstone regression:
// opening a sharded engine over a dataset that was already mutated must
// not resurrect removed graphs in shard sub-datasets.
func TestOpenShardedOverMutatedDataset(t *testing.T) {
	ctx := context.Background()
	ds := mutationBase(71)
	queries, err := repro.GenerateQueries(ds, repro.WorkloadConfig{NumQueries: 3, QueryEdges: 4, Seed: 72})
	if err != nil {
		t.Fatal(err)
	}
	ds.Remove(2)
	ds.Remove(9)
	s, err := repro.OpenSharded(ctx, ds, 4, repro.WithSpec("grapes"))
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want, err := repro.BruteForceAnswers(ctx, ds, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Answers.Equal(want) {
			t.Errorf("query %d over pre-mutated dataset: answers %v, want %v", i, got.Answers, want)
		}
		if got.Answers.Contains(2) || got.Answers.Contains(9) {
			t.Errorf("query %d resurrected a removed graph: %v", i, got.Answers)
		}
	}
}

// TestRouterMutationConsistency ensures the router's feature extractor
// tracks mutations: a label first interned by an added graph classifies as
// rarest instead of falling out of range, and routing still answers
// correctly for queries over it.
func TestRouterMutationConsistency(t *testing.T) {
	ctx := context.Background()
	ds := mutationBase(53)
	m, err := repro.OpenRouted(ctx, ds, repro.RouterConfig{
		Methods: []string{"grapes", "ggsx", "gcode"},
		Options: repro.RouterOptions{Policy: "static"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A graph carrying a label the dataset has never seen.
	freshLabel := graph.Label(int32(ds.MaxLabel()) + 5)
	g := graph.New(0)
	a := g.AddVertex(freshLabel)
	b := g.AddVertex(freshLabel)
	g.MustAddEdge(a, b)
	q := g.Clone()

	f := m.Extract(q)
	if f.MinLabelFreq != 0 {
		t.Errorf("unseen label frequency = %v, want 0 (rarest)", f.MinLabelFreq)
	}
	id, err := m.AddGraph(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	f = m.Extract(q)
	if f.MinLabelFreq <= 0 {
		t.Errorf("extractor did not refresh after mutation: freq %v", f.MinLabelFreq)
	}
	res, err := m.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answers.Contains(id) {
		t.Errorf("query over the added fresh-label graph missed it: %v", res.Answers)
	}
}

// TestShardedMutationPersistence: a mutated sharded engine rewrites only
// the owning shard's file plus the manifest, and restores cleanly.
func TestShardedMutationPersistence(t *testing.T) {
	ctx := context.Background()
	base := t.TempDir() + "/shards"
	ds := mutationBase(61)
	s, err := repro.OpenSharded(ctx, ds, 4, repro.WithSpec("ggsx"), repro.WithIndexPath(base))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveGraph(ctx, 2); err != nil {
		t.Fatal(err)
	}
	pool := repro.NewSyntheticDataset(repro.SynthConfig{
		NumGraphs: 1, MeanNodes: 10, MeanDensity: 0.2, NumLabels: 4, Seed: 62,
	})
	if _, err := s.AddGraph(ctx, pool.Graphs[0].ShallowWithID(0)); err != nil {
		t.Fatal(err)
	}

	ds2 := mutationBase(61)
	ds2.Remove(2)
	pool2 := repro.NewSyntheticDataset(repro.SynthConfig{
		NumGraphs: 1, MeanNodes: 10, MeanDensity: 0.2, NumLabels: 4, Seed: 62,
	})
	ds2.Add(pool2.Graphs[0].ShallowWithID(0))
	s2, err := repro.OpenSharded(ctx, ds2, 4, repro.WithSpec("ggsx"), repro.WithIndexPath(base))
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Restored() {
		t.Error("mutated sharded index should restore at the mutated epoch")
	}
	queries, err := repro.GenerateQueries(ds2, repro.WorkloadConfig{NumQueries: 3, QueryEdges: 4, Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want, err := repro.BruteForceAnswers(ctx, ds2, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s2.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Answers.Equal(want) {
			t.Errorf("restored mutated shards: query %d answers %v, want %v", i, got.Answers, want)
		}
	}
}
