package router_test

import (
	"context"
	"errors"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	_ "repro/internal/engine/std"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/router"
	"repro/internal/workload"
)

func tinyDataset(t testing.TB) *graph.Dataset {
	t.Helper()
	return gen.Synthetic(gen.SynthConfig{
		NumGraphs: 25, MeanNodes: 14, MeanDensity: 0.2, NumLabels: 4, Seed: 41,
	})
}

// mixedQueries builds a small workload spanning sizes and shapes so routing
// exercises several feature buckets.
func mixedQueries(t testing.TB, ds *graph.Dataset) []*graph.Graph {
	t.Helper()
	qs, err := workload.GenerateMixed(ds, workload.MixedConfig{
		NumQueries: 12, Sizes: []int{3, 5, 8}, Seed: 42,
	})
	if err != nil {
		t.Fatalf("mixed workload: %v", err)
	}
	return qs
}

// allRoutable pairs every non-composite registry method with the build spec
// the engine tests use (mining budgets bounded for the tiny dataset).
var allRoutable = []struct{ name, spec string }{
	{"grapes", "grapes:maxPathLen=3,workers=2"},
	{"ggsx", "ggsx:maxPathLen=3"},
	{"ctindex", "ctindex:fingerprintBits=512,maxTreeSize=3"},
	{"gindex", "gindex:maxPatterns=20000,supportRatio=0.2"},
	{"treedelta", "treedelta:maxPatterns=20000,querySupportToAdd=0.5"},
	{"gcode", "gcode:pathLen=1"},
	{"noindex", ""},
}

// openAll builds one engine per routable method, shared across the policy
// sub-tests (router.New composes engines without owning them).
func openAll(t *testing.T, ds *graph.Dataset) []router.Sub {
	t.Helper()
	ctx := context.Background()
	subs := make([]router.Sub, 0, len(allRoutable))
	for _, m := range allRoutable {
		spec := m.spec
		if spec == "" {
			spec = m.name
		}
		eng, err := engine.Open(ctx, ds, engine.WithSpec(spec))
		if err != nil {
			t.Fatalf("Open(%s): %v", spec, err)
		}
		subs = append(subs, router.Sub{Name: m.name, Engine: eng})
	}
	return subs
}

// TestRouterParityEveryMethod is the routing correctness contract: for
// every registered routing policy, the router over all routable methods
// returns exactly the answers of an unsharded single-method engine on the
// same dataset — one-shot, batched, and streamed, with mid-stream
// cancellation surfacing as a context error and never a wrong answer.
func TestRouterParityEveryMethod(t *testing.T) {
	ds := tinyDataset(t)
	queries := mixedQueries(t, ds)
	ctx := context.Background()
	subs := openAll(t, ds)

	// The reference: any single-method engine (all agree); pin to the first.
	ref := subs[0].Engine
	want := make([]*core.QueryResult, len(queries))
	routable := make(map[string]bool)
	for _, sub := range subs {
		routable[sub.Name] = true
	}
	var err error
	for i, q := range queries {
		if want[i], err = ref.Query(ctx, q); err != nil {
			t.Fatalf("reference query %d: %v", i, err)
		}
	}

	for _, policy := range router.Policies() {
		t.Run(policy, func(t *testing.T) {
			m, err := router.New(ds, subs, router.Options{Policy: policy, Epsilon: 0.3, Seed: 7})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			for i, q := range queries {
				got, err := m.Query(ctx, q)
				if err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				if !got.Answers.Equal(want[i].Answers) {
					t.Errorf("query %d: answers %v != single-method %v", i, got.Answers, want[i].Answers)
				}
				// The served method's spelling resolves — through the
				// registry's normalization — to one of the routed methods.
				if d, ok := engine.Lookup(got.Method); !ok || !routable[d.Name] {
					t.Errorf("query %d: served by unknown method %q", i, got.Method)
				}
			}

			// Batch: same answers, input order.
			batch, err := core.QueryBatchFunc(ctx, queries, core.BatchOptions{Workers: 3}, m.Query)
			if err != nil {
				t.Fatalf("QueryBatch: %v", err)
			}
			for i, br := range batch {
				if br.Err != nil {
					t.Fatalf("batch entry %d: %v", i, br.Err)
				}
				if !br.Result.Answers.Equal(want[i].Answers) {
					t.Errorf("batch entry %d: answers %v != single-method %v", i, br.Result.Answers, want[i].Answers)
				}
			}

			// Stream: exactly the answer set, ascending.
			for i, q := range queries {
				var streamed graph.IDSet
				prev := graph.ID(-1)
				for id, err := range m.Stream(ctx, q) {
					if err != nil {
						t.Fatalf("stream %d: %v", i, err)
					}
					if id <= prev {
						t.Fatalf("stream %d: ids not ascending (%d after %d)", i, id, prev)
					}
					prev = id
					streamed = append(streamed, id)
				}
				if !streamed.Equal(want[i].Answers) {
					t.Errorf("stream %d: %v != answers %v", i, streamed, want[i].Answers)
				}
			}

			// Mid-stream cancellation: cancel after the first yielded answer;
			// whatever was yielded must be a true answer, and the stream must
			// end in context.Canceled unless it was already past its last
			// candidate.
			qi := -1
			for i := range queries {
				if len(want[i].Answers) > 1 {
					qi = i
					break
				}
			}
			if qi < 0 {
				t.Fatal("no workload query with >1 answers; pick a different seed")
			}
			mctx, cancelMid := context.WithCancel(ctx)
			defer cancelMid()
			var streamed graph.IDSet
			var streamErr error
			for id, err := range m.Stream(mctx, queries[qi]) {
				if err != nil {
					streamErr = err
					break
				}
				streamed = append(streamed, id)
				cancelMid()
			}
			if streamErr != nil {
				if !errors.Is(streamErr, context.Canceled) {
					t.Fatalf("mid-stream error = %v, want context.Canceled", streamErr)
				}
				for _, id := range streamed {
					if !want[qi].Answers.Contains(id) {
						t.Errorf("cancelled stream yielded non-answer %d", id)
					}
				}
			} else if !streamed.Equal(want[qi].Answers) {
				t.Errorf("uncancelled tail: streamed %v != answers %v", streamed, want[qi].Answers)
			}

			// A cancelled context fails a fresh query outright.
			cancelled, cancel := context.WithCancel(ctx)
			cancel()
			if _, err := m.Query(cancelled, queries[0]); !errors.Is(err, context.Canceled) {
				t.Errorf("Query with cancelled ctx: err = %v, want context.Canceled", err)
			}
		})
	}
}

// TestRouterStatsAccounting: every served query is attributed to exactly
// one winner, race participation counts both contenders, and the model
// accumulates observations.
func TestRouterStatsAccounting(t *testing.T) {
	ds := tinyDataset(t)
	queries := mixedQueries(t, ds)
	ctx := context.Background()
	subs := openAll(t, ds)[:3]

	for _, policy := range router.Policies() {
		m, err := router.New(ds, subs, router.Options{Policy: policy, Epsilon: 0.5, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			if _, err := m.Query(ctx, q); err != nil {
				t.Fatalf("%s: %v", policy, err)
			}
		}
		s := m.Stats()
		if s.Policy != policy {
			t.Errorf("policy = %q, want %q", s.Policy, policy)
		}
		if s.Queries != int64(len(queries)) {
			t.Errorf("%s: queries = %d, want %d", policy, s.Queries, len(queries))
		}
		var won, routed int64
		for _, ms := range s.Methods {
			won += ms.Won
			routed += ms.Routed
		}
		if won != s.Queries {
			t.Errorf("%s: wins sum to %d, want %d", policy, won, s.Queries)
		}
		wantRouted := s.Queries + s.Raced // each race adds one extra contender
		if routed != wantRouted {
			t.Errorf("%s: routed sum to %d, want %d", policy, routed, wantRouted)
		}
		if policy == router.PolicyRace && s.Raced != s.Queries {
			t.Errorf("race: raced = %d, want every query (%d)", s.Raced, s.Queries)
		}
		if policy != router.PolicyStatic && len(s.Model) == 0 {
			t.Errorf("%s: cost model has no observations after %d queries", policy, len(queries))
		}
	}
}

// TestRouterOpenPersistenceLifecycle: Open co-builds and persists under one
// manifest, a second Open restores every method index and the saved cost
// model, and a changed method set invalidates the whole layout.
func TestRouterOpenPersistenceLifecycle(t *testing.T) {
	ds := tinyDataset(t)
	queries := mixedQueries(t, ds)
	ctx := context.Background()
	base := t.TempDir() + "/router.idx"
	cfg := router.Config{
		Methods: []string{"grapes", "ggsx", "gcode"},
		Options: router.Options{Policy: router.PolicyLearned, Epsilon: 0, Seed: 3},
	}
	cfg.IndexPath = base

	m1, err := router.Open(ctx, ds, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got := m1.RestoredMethods(); got != 0 {
		t.Fatalf("fresh Open restored %d methods, want 0", got)
	}
	want := make([]graph.IDSet, len(queries))
	for i, q := range queries {
		res, err := m1.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Answers
	}
	if err := m1.Save(base); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if _, err := os.Stat(router.ModelPath(base)); err != nil {
		t.Fatalf("model file: %v", err)
	}

	m2, err := router.Open(ctx, ds, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := m2.RestoredMethods(); got != len(cfg.Methods) {
		t.Errorf("reopen restored %d methods, want %d", got, len(cfg.Methods))
	}
	if len(m2.Stats().Model) == 0 {
		t.Errorf("reopen did not restore the saved cost model")
	}
	for i, q := range queries {
		res, err := m2.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Answers.Equal(want[i]) {
			t.Errorf("restored query %d: answers %v != %v", i, res.Answers, want[i])
		}
	}

	// A different method set must not restore against the old manifest.
	cfg3 := cfg
	cfg3.Methods = []string{"grapes", "ggsx"}
	m3, err := router.Open(ctx, ds, cfg3)
	if err != nil {
		t.Fatalf("reopen (changed methods): %v", err)
	}
	if got := m3.RestoredMethods(); got != 0 {
		t.Errorf("changed method set restored %d methods, want full rebuild", got)
	}
	if len(m3.Stats().Model) != 0 {
		t.Errorf("changed method set restored the stale cost model")
	}
}

// TestRouterManifestSurvivesMutation: a mutation never rewrites the
// manifest, so the manifest as it stood before a write (a crash between a
// sub-engine's journal append and any manifest write) still endorses every
// per-method file. A reopen over the mutated dataset restores every method
// from its file and journal and answers exactly.
func TestRouterManifestSurvivesMutation(t *testing.T) {
	ds := tinyDataset(t)
	queries := mixedQueries(t, ds)
	ctx := context.Background()
	base := t.TempDir() + "/router.idx"
	cfg := router.Config{Methods: []string{"grapes", "ggsx", "gcode"}, IndexPath: base}
	m, err := router.Open(ctx, ds, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	before, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddGraph(ctx, ds.Graphs[0].ShallowWithID(0)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(base, before, 0o644); err != nil {
		t.Fatal(err)
	}
	reopened, err := router.Open(ctx, ds, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := reopened.RestoredMethods(); got != len(cfg.Methods) {
		t.Errorf("reopen over the mutated dataset restored %d methods, want %d", got, len(cfg.Methods))
	}
	for i, q := range queries {
		want, err := core.BruteForceAnswers(ctx, ds, q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := reopened.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Answers.Equal(want) {
			t.Errorf("query %d: answers %v, want %v", i, res.Answers, want)
		}
	}
}

// queryOnly hides every method of an engine but the Querier contract's,
// so it cannot maintain its index over a dataset the router mutates.
type queryOnly struct{ engine.Querier }

// TestRouterNewValidation pins New's configuration errors.
func TestRouterNewValidation(t *testing.T) {
	ds := tinyDataset(t)
	subs := openAll(t, ds)[:2]
	cases := []struct {
		name string
		subs []router.Sub
		opts router.Options
	}{
		{"one method", subs[:1], router.Options{}},
		{"unknown method", []router.Sub{subs[0], {Name: "nosuch", Engine: subs[1].Engine}}, router.Options{}},
		{"duplicate method", []router.Sub{subs[0], subs[0]}, router.Options{}},
		{"nil engine", []router.Sub{subs[0], {Name: "gcode"}}, router.Options{}},
		{"nested composite", []router.Sub{subs[0], {Name: "router", Engine: subs[1].Engine}}, router.Options{}},
		{"no index maintenance", []router.Sub{subs[0], {Name: subs[1].Name, Engine: queryOnly{subs[1].Engine}}}, router.Options{}},
		{"bad policy", subs, router.Options{Policy: "bogus"}},
		{"bad epsilon", subs, router.Options{Policy: router.PolicyLearned, Epsilon: 2}},
	}
	for _, tc := range cases {
		if _, err := router.New(ds, tc.subs, tc.opts); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
}
