package dfscode

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/workload"
)

// fuzzGraph decodes data into a graph of 2..9 vertices and 1..3 labels:
// data[0] picks the vertex count, data[1] the label count, data[2] the
// shape (free edges from a pair bitmap, the bitmap over a spanning path,
// the clique, the cycle), then one byte per vertex label and the bitmap.
func fuzzGraph(data []byte) *graph.Graph {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	n, nlab, shape := 2+int(at(0)%8), 1+int(at(1)%3), at(2)%4
	g := graph.New(0)
	for v := 0; v < n; v++ {
		g.AddVertex(graph.Label(int(at(3+v)) % nlab))
	}
	bit := 0
	for u := int32(0); int(u) < n; u++ {
		for v := u + 1; int(v) < n; v++ {
			var on bool
			switch shape {
			case 0, 1:
				b := 3 + n + bit/8
				on = at(b)>>(bit%8)&1 != 0 || (shape == 1 && v == u+1)
			case 2:
				on = true
			case 3:
				on = v == u+1 || (u == 0 && int(v) == n-1)
			}
			bit++
			if on {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g
}

// maxRefEdges keeps the reference search (exponential in a graph's
// symmetry: K8 with one label takes about a second) fast enough to fuzz;
// K7 has 21 edges.
const maxRefEdges = 21

// FuzzMinimumAgreesWithReference: the pooled search returns the reference
// search's code, on the graph's build-phase and sealed layouts, and the
// same code for a vertex permutation; a disconnected or edgeless graph is
// ErrDisconnected.
func FuzzMinimumAgreesWithReference(f *testing.F) {
	f.Add([]byte{5, 0, 2}, int64(1))                      // K7, one label
	f.Add([]byte{7, 0, 3}, int64(2))                      // C9, one label
	f.Add([]byte{7, 1, 3, 0, 1, 0, 1, 0, 1, 0}, int64(3)) // C9, two labels
	f.Add([]byte{4, 2, 1, 0, 1, 2, 0, 1, 2, 0xa5, 0x5a}, int64(4))
	f.Add([]byte{6, 1, 0, 1, 1, 0, 0, 1, 1, 0, 0xff, 0x0f, 0xf0}, int64(5))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		g := fuzzGraph(data)
		if g.NumEdges() > maxRefEdges {
			t.Skip()
		}
		if g.NumEdges() == 0 || !g.IsConnected() {
			if _, err := AppendMinimumKey(nil, g, 0); !errors.Is(err, ErrDisconnected) {
				t.Fatalf("disconnected %v: err %v", g, err)
			}
			return
		}
		want := refMinimum(g)
		sealed := g.Clone()
		sealed.Seal()
		perm := permuteGraph(g, rand.New(rand.NewSource(seed)))
		for _, h := range []*graph.Graph{g, sealed, perm} {
			if got := Minimum(h); CompareCodes(got, want) != 0 {
				t.Fatalf("%v: pooled %v, reference %v", h, got, want)
			}
			key, err := AppendMinimumKey([]byte("G"), h, StepBudget)
			if err != nil || string(key) != "G"+want.Key() {
				t.Fatalf("%v: key %x (err %v), reference %x", h, key, err, want.Key())
			}
		}
	})
}

func clique(n int, l graph.Label) *graph.Graph {
	g := graph.New(0)
	for i := 0; i < n; i++ {
		g.AddVertex(l)
	}
	for u := int32(0); int(u) < n; u++ {
		for v := u + 1; int(v) < n; v++ {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

// assertClean checks what a finished search must leave in a scratch: no
// graph pinned, no candidate on the slab, no edge marked used.
func assertClean(t *testing.T, s *scratch, when string) {
	t.Helper()
	if s.g != nil || len(s.cands) != 0 {
		t.Fatalf("%s: scratch pins a graph or holds %d candidates", when, len(s.cands))
	}
	for i, u := range s.used {
		if u {
			t.Fatalf("%s: edge %d left used", when, i)
		}
	}
}

// TestScratchHygiene runs one scratch over graphs that grow and shrink,
// a search its budget stops and a disconnected input; every answer after
// each must still equal the reference.
func TestScratchHygiene(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := new(scratch)
	check := func(g *graph.Graph) {
		t.Helper()
		if err := s.run(g, 0); err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		if want := refMinimum(g); CompareCodes(s.best, want) != 0 {
			t.Fatalf("%v: pooled %v, reference %v", g, s.best, want)
		}
		assertClean(t, s, "after a search")
	}
	disconnected := graph.New(0)
	for _, l := range []graph.Label{0, 1, 0, 1} {
		disconnected.AddVertex(l)
	}
	disconnected.MustAddEdge(0, 1)
	disconnected.MustAddEdge(2, 3)
	for i, n := range []int{3, 9, 2, 7, 4, 9, 5, 2, 8} {
		check(randomConnected(rng, n, rng.Intn(2*n), 1+rng.Intn(3)))
		switch i % 3 {
		case 0:
			if err := s.run(clique(6, 0), 50); !errors.Is(err, ErrBudget) {
				t.Fatalf("K6 within 50 steps: err %v, want ErrBudget", err)
			}
			assertClean(t, s, "after a budget stop")
		case 1:
			if err := s.run(disconnected, 0); !errors.Is(err, ErrDisconnected) {
				t.Fatalf("disconnected: err %v", err)
			}
			assertClean(t, s, "after a disconnected input")
		}
	}
	check(clique(5, 1))
}

// TestStepBudgetStopsCliques: the budget ends the search on the one-label
// cliques whose full search takes seconds, and a budget the search fits in
// changes nothing.
func TestStepBudgetStopsCliques(t *testing.T) {
	for _, n := range []int{9, 10} {
		if _, err := AppendMinimumKey(nil, clique(n, 0), StepBudget); !errors.Is(err, ErrBudget) {
			t.Fatalf("K%d: err %v, want ErrBudget", n, err)
		}
	}
	g := clique(5, 0)
	bounded, err := AppendMinimumKey(nil, g, StepBudget)
	if err != nil || string(bounded) != Minimum(g).Key() {
		t.Fatalf("K5 within the budget: err %v", err)
	}
}

// TestMinimumAllocs: Minimum allocates only the code it returns.
func TestMinimumAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	q := benchQueries(t, 4, 8)[0]
	if got := testing.AllocsPerRun(50, func() { Minimum(q) }); got != 1 {
		t.Fatalf("Minimum of an 8-edge query: %.1f allocations, want 1", got)
	}
}

// benchQueries draws random-walk queries of the given edge count from a
// dataset with serve_zipf's graph shape (40 vertices, density 0.06).
func benchQueries(tb testing.TB, labels, edges int) []*graph.Graph {
	ds := gen.Synthetic(gen.SynthConfig{NumGraphs: 50, MeanNodes: 40, MeanDensity: 0.06, NumLabels: labels, Seed: 1})
	qs, err := workload.Generate(ds, workload.Config{NumQueries: 50, QueryEdges: edges, Seed: 2})
	if err != nil {
		tb.Fatal(err)
	}
	return qs
}

// BenchmarkMinimum is the canonical search's shape matrix: labels ×
// query edges, random-walk queries, ns and allocations per Minimum.
func BenchmarkMinimum(b *testing.B) {
	for _, labels := range []int{2, 4, 10, 20} {
		for _, edges := range []int{6, 8, 16, 32} {
			b.Run(fmt.Sprintf("labels=%d/edges=%d", labels, edges), func(b *testing.B) {
				qs := benchQueries(b, labels, edges)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					Minimum(qs[i%len(qs)])
				}
			})
		}
	}
}
