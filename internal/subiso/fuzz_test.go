package subiso

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
)

// refCount is the oracle: it counts the embeddings of q in g by plain
// backtracking over injective label-preserving maps in vertex-id order, and
// tests every query edge only once a map is complete. No match order, no
// pruning, and no code shared with the matcher it judges (core's
// BruteForceAnswers runs the compiled matcher, so this is the independent
// check). allowed, when non-nil, limits the data vertices used.
func refCount(q, g *graph.Graph, allowed func(v int32) bool) int {
	m := make([]int32, q.NumVertices())
	used := make([]bool, g.NumVertices())
	qEdges := q.Edges()
	hasEdge := func(u, v int32) bool {
		for _, w := range g.Neighbors(u) {
			if w == v {
				return true
			}
		}
		return false
	}
	count := 0
	var assign func(qv int)
	assign = func(qv int) {
		if qv == len(m) {
			for _, e := range qEdges {
				if !hasEdge(m[e[0]], m[e[1]]) {
					return
				}
			}
			count++
			return
		}
		for gv := int32(0); int(gv) < g.NumVertices(); gv++ {
			if used[gv] || q.Label(int32(qv)) != g.Label(gv) || (allowed != nil && !allowed(gv)) {
				continue
			}
			used[gv], m[qv] = true, gv
			assign(qv + 1)
			used[gv] = false
		}
	}
	assign(0)
	return count
}

// checkEmbedding validates one mapping edge by edge.
func checkEmbedding(t testing.TB, q, g *graph.Graph, m []int32) {
	t.Helper()
	if len(m) != q.NumVertices() {
		t.Fatalf("mapping has %d entries for %d query vertices", len(m), q.NumVertices())
	}
	seen := map[int32]bool{}
	for qv, gv := range m {
		if gv < 0 || int(gv) >= g.NumVertices() {
			t.Fatalf("query vertex %d mapped out of range: %d", qv, gv)
		}
		if q.Label(int32(qv)) != g.Label(gv) {
			t.Fatalf("label mismatch at query vertex %d", qv)
		}
		if seen[gv] {
			t.Fatalf("mapping not injective at data vertex %d", gv)
		}
		seen[gv] = true
	}
	for _, e := range q.Edges() {
		if !g.HasEdge(m[e[0]], m[e[1]]) {
			t.Fatalf("query edge %v not preserved", e)
		}
	}
}

// buildFromBytes deterministically decodes a small graph from fuzz bytes:
// the first byte is the vertex count, subsequent byte pairs become edges,
// labels cycle through a 3-letter alphabet.
func buildFromBytes(data []byte, maxN int) *graph.Graph {
	if len(data) == 0 {
		return nil
	}
	n := int(data[0])%maxN + 1
	g := graph.New(0)
	for i := 0; i < n; i++ {
		g.AddVertex(graph.Label(i % 3))
	}
	for i := 1; i+1 < len(data); i += 2 {
		u := int32(int(data[i]) % n)
		v := int32(int(data[i+1]) % n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

// agreeWithReference checks every face of the compiled matcher — plain,
// tuned under the data graph's and under arbitrary label frequencies,
// restricted, enumerating — against refCount on one query/data pair, on
// both the build-phase form of g (the list kernel) and its sealed form (the
// bit kernel up to 64 vertices, CSR lists beyond). The two forms must also
// yield identical embedding sequences. mask picks the restriction (bit v
// set: data vertex v allowed) and the arbitrary frequencies.
func agreeWithReference(t testing.TB, q, g *graph.Graph, mask uint16) {
	t.Helper()
	ctx := context.Background()
	want := refCount(q, g, nil)
	comp := make([]int32, g.NumVertices())
	for v := range comp {
		comp[v] = int32(mask >> (v % 16) & 1)
	}
	wantR := refCount(q, g, func(v int32) bool { return comp[v] == 1 })
	variants := map[string]*Prepared{
		"plain":       Compile(q, Options{}),
		"tuned":       Compile(q, Options{LabelFreq: LabelFreq(nil, g)}),
		"tuned-skew":  Compile(q, Options{LabelFreq: []int{int(mask & 7), int(mask >> 3 & 7)}}),
		"tuned-empty": Compile(q, Options{LabelFreq: []int{}}),
	}
	sealed := g.Clone()
	sealed.Seal()
	forms := []struct {
		name string
		g    *graph.Graph
	}{{"unsealed", g.Clone()}, {"sealed", sealed}}
	for name, p := range variants {
		var runs [2][]int32
		for i, f := range forms {
			if got := p.Exists(ctx, f.g); got != (want > 0) {
				t.Fatalf("%s/%s: Exists=%v, reference counts %d embeddings\nq=%v %v\ng=%v %v", f.name, name, got, want, q, q.Edges(), g, g.Edges())
			}
			n := 0
			found := p.Run(ctx, f.g, func(m []int32) bool {
				checkEmbedding(t, q, g, m)
				runs[i] = append(runs[i], m...)
				n++
				return true
			})
			if n != want || found != (want > 0) {
				t.Fatalf("%s/%s: Run yielded %d embeddings (found=%v), reference counts %d", f.name, name, n, found, want)
			}
			if got := p.ExistsRestricted(ctx, f.g, comp, 1); got != (wantR > 0) {
				t.Fatalf("%s/%s: ExistsRestricted=%v under mask %b, reference counts %d", f.name, name, got, mask, wantR)
			}
		}
		if !slices.Equal(runs[0], runs[1]) {
			t.Fatalf("%s: Run's embedding sequence differs between the unsealed and the sealed graph\nq=%v %v\ng=%v %v", name, q, q.Edges(), g, g.Edges())
		}
	}
	for _, f := range forms {
		if got := Count(q, f.g, 0); got != want {
			t.Fatalf("%s: Count=%d, reference %d", f.name, got, want)
		}
		if m := FindOne(q, f.g); (m != nil) != (want > 0 && q.NumVertices() > 0) {
			t.Fatalf("%s: FindOne=%v, reference counts %d embeddings", f.name, m, want)
		} else if m != nil {
			checkEmbedding(t, q, g, m)
		}
	}
}

// padLabel labels the vertices padTo adds; no test query uses it.
const padLabel = 5

// padTo returns g grown to n vertices: n-|V(g)| vertices labelled padLabel
// first, then g's vertices and edges shifted past them, so g's own
// vertices sit at the top bits of a 63-, 64- or 65-vertex graph. Every
// eighth pad vertex is joined to one of g's, so degrees and lookahead
// counts see the padding too.
func padTo(g *graph.Graph, n int) *graph.Graph {
	k := n - g.NumVertices()
	out := graph.New(0)
	for range k {
		out.AddVertex(padLabel)
	}
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		out.AddVertex(g.Label(v))
	}
	for _, e := range g.Edges() {
		out.MustAddEdge(int32(k)+e[0], int32(k)+e[1])
	}
	for i := 0; i < k && g.NumVertices() > 0; i += 8 {
		out.MustAddEdge(int32(i), int32(k+i%g.NumVertices()))
	}
	return out
}

// padSizes are the data graph sizes around the bit kernel's 64-vertex limit.
var padSizes = []int{63, 64, 65}

// FuzzCompiledAgreesWithReference checks the compiled matcher against the
// naive oracle on arbitrary query/data pairs; the seeds cover connected and
// disconnected queries.
func FuzzCompiledAgreesWithReference(f *testing.F) {
	f.Add([]byte{3, 0, 1, 1, 2}, []byte{5, 0, 1, 1, 2, 2, 3, 3, 4}, uint16(0xffff)) // connected path
	f.Add([]byte{1}, []byte{1}, uint16(1))
	f.Add([]byte{4, 0, 1, 2, 3}, []byte{8, 0, 1, 2, 3, 4, 5, 6, 7, 0, 4}, uint16(0x0f0f))           // two query components
	f.Add([]byte{5}, []byte{7, 0, 1, 1, 2}, uint16(0x7f))                                           // edgeless query
	f.Add([]byte{3, 0, 1, 1, 2, 2, 0}, []byte{6, 0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 3}, uint16(0x38)) // triangle, restricted to the second
	f.Fuzz(func(t *testing.T, qb []byte, gb []byte, mask uint16) {
		q := buildFromBytes(qb, 6)
		g := buildFromBytes(gb, 9)
		if q == nil || g == nil {
			return
		}
		agreeWithReference(t, q, g, mask)
		for _, n := range padSizes {
			agreeWithReference(t, q, padTo(g, n), mask)
		}
	})
}

// randomGraph returns a graph of n vertices over nlab labels with a random
// spanning forest of the given number of trees plus extra random edges.
func randomGraph(rng *rand.Rand, n, trees, extra, nlab int) *graph.Graph {
	g := graph.New(0)
	for i := 0; i < n; i++ {
		g.AddVertex(graph.Label(rng.Intn(nlab)))
	}
	for i := trees; i < n; i++ {
		g.MustAddEdge(int32(rng.Intn(i)), int32(i))
	}
	for k := 0; k < extra; k++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

func TestCompiledAgreesWithReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 150; trial++ {
		q := randomGraph(rng, 1+rng.Intn(5), 1+rng.Intn(2), rng.Intn(3), 2)
		g := randomGraph(rng, 3+rng.Intn(9), 1+rng.Intn(3), rng.Intn(8), 2)
		mask := uint16(rng.Intn(1 << 16))
		agreeWithReference(t, q, g, mask)
		agreeWithReference(t, q, padTo(g, padSizes[trial%len(padSizes)]), mask)
	}
}

func assertClean(t *testing.T, s *scratch, when string) {
	t.Helper()
	for v, qv := range s.coreG {
		if qv != -1 {
			t.Fatalf("%s: scratch left data vertex %d mapped to %d", when, v, qv)
		}
	}
	if s.g != nil || s.rows != nil || s.used != 0 {
		t.Fatalf("%s: scratch kept the graph or the bit kernel's state", when)
	}
}

// TestScratchHygiene drives one scratch through everything that could leave
// it dirty — graphs growing and shrinking, unsealed graphs (the list kernel)
// interleaved with sealed ones (the bit kernel up to 64 vertices), a
// cancelled run, a first-match return, a yield that stops — and checks the
// all-free invariant after each run and every answer against the
// reference.
func TestScratchHygiene(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ctx := context.Background()
	s := new(scratch)
	queries := []*graph.Graph{path(0, 1), path(1, 0, 1), cycle(0, 0, 1), randomGraph(rng, 4, 2, 1, 2)}
	for i, n := range []int{4, 12, 30, 7, 3, 64, 18, 5, 65, 30, 2} {
		g := randomGraph(rng, n, 1+rng.Intn(2), n, 2)
		sealed := g.Clone()
		sealed.Seal()
		forms := []*graph.Graph{g, sealed}
		if i%2 == 1 {
			forms[0], forms[1] = sealed, g
		}
		for _, q := range queries {
			p := Compile(q, Options{})
			want := refCount(q, g, nil)
			for _, g := range forms {
				// First-match return.
				if got := s.search(ctx, p, g, nil, 0, nil); got != (want > 0) {
					t.Fatalf("n=%d sealed=%v: Exists=%v, reference %d", n, g.Sealed(), got, want)
				}
				assertClean(t, s, "after first-match return")
				// Full enumeration.
				got := 0
				s.search(ctx, p, g, nil, 0, func([]int32) bool { got++; return true })
				if got != want {
					t.Fatalf("n=%d sealed=%v: enumerated %d, reference %d", n, g.Sealed(), got, want)
				}
				assertClean(t, s, "after enumeration")
				// A yield that stops at the first embedding.
				s.search(ctx, p, g, nil, 0, func([]int32) bool { return false })
				assertClean(t, s, "after a stopped yield")
			}
		}
		if n == 12 || n == 64 {
			// A run cancelled deep in the recursion (see
			// TestContextCancellation for why it is cut short), on each
			// kernel.
			k8 := clique(8, 1)
			sealedK8 := k8.Clone()
			sealedK8.Seal()
			for _, k := range []*graph.Graph{k8, sealedK8} {
				cctx, cancel := context.WithCancel(ctx)
				cancel()
				got := 0
				s.search(cctx, Compile(path(1, 1, 1, 1, 1), Options{}), k, nil, 0, func([]int32) bool { got++; return true })
				if got == 0 || got >= 6720 {
					t.Fatalf("cancelled run (sealed=%v) yielded %d embeddings, want a strict part of 6720", k.Sealed(), got)
				}
				assertClean(t, s, "after cancellation")
			}
		}
	}
}

// TestPreparedConcurrent shares one Prepared between 8 goroutines (run with
// -race): each checks its own graphs, sealed and unsealed in turn, against
// the reference.
func TestPreparedConcurrent(t *testing.T) {
	q := cycle(0, 1, 0, 1)
	tuned := Compile(q, Options{LabelFreq: []int{3, 1}})
	plain := Compile(q, Options{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 60; i++ {
				g := randomGraph(rng, 4+rng.Intn(12), 1, rng.Intn(14), 2)
				want := refCount(q, g, nil) > 0
				if i%2 == 0 {
					g.Seal()
				}
				if got := plain.Exists(context.Background(), g); got != want {
					t.Errorf("plain: Exists=%v, reference %v", got, want)
				}
				if got := tuned.Exists(context.Background(), g); got != want {
					t.Errorf("tuned: Exists=%v, reference %v", got, want)
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

var benchSink bool

// BenchmarkPreparedExists measures one verification of a compiled 6-edge
// query against a 60-vertex, 3-label data graph (the shape of the
// repository benchmark's verify_heavy): a hit, and a miss that exhausts
// the search, on each kernel (list: the graph in its build phase; bits:
// sealed), plain and tuned with the graph's label frequencies. Run with
// -benchmem: every case must report 0 allocs/op.
func BenchmarkPreparedExists(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 60, 1, 30, 3)
	hit, _, err := g.InducedSubgraph([]int32{0, 1, 2, 3, 4, 5, 6})
	if err != nil {
		b.Fatal(err)
	}
	// The hit plus a pendant vertex whose label the data graph lacks: the
	// search walks every embedding of the hit before it gives up.
	miss := hit.Clone()
	miss.AddVertex(9)
	miss.MustAddEdge(0, int32(miss.NumVertices()-1))
	sealed := g.Clone()
	sealed.Seal()
	for _, kernel := range []struct {
		name string
		g    *graph.Graph
	}{{"list", g}, {"bits", sealed}} {
		for _, variant := range []struct {
			name string
			opts Options
		}{{"plain", Options{}}, {"tuned", Options{LabelFreq: LabelFreq(nil, g)}}} {
			for _, bc := range []struct {
				name string
				q    *graph.Graph
				want bool
			}{{"hit", hit, true}, {"miss", miss, false}} {
				b.Run(kernel.name+"/"+variant.name+"/"+bc.name, func(b *testing.B) {
					p := Compile(bc.q, variant.opts)
					ctx := context.Background()
					if got := p.Exists(ctx, kernel.g); got != bc.want {
						b.Fatalf("Exists=%v, want %v", got, bc.want)
					}
					b.ReportAllocs()
					for b.Loop() {
						benchSink = p.Exists(ctx, kernel.g)
					}
				})
			}
		}
	}
}
