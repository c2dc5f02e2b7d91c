package pathkey

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/canon"
	"repro/internal/features"
	"repro/internal/graph"
)

func pathGraph(labels ...graph.Label) *graph.Graph {
	g := graph.New(0)
	for _, l := range labels {
		g.AddVertex(l)
	}
	for i := 1; i < len(labels); i++ {
		g.MustAddEdge(int32(i-1), int32(i))
	}
	return g
}

// randomLabelled returns a connected random graph on n vertices whose labels
// are drawn from alphabet.
func randomLabelled(rng *rand.Rand, n, extraEdges int, alphabet []graph.Label) *graph.Graph {
	g := graph.New(0)
	for range n {
		g.AddVertex(alphabet[rng.Intn(len(alphabet))])
	}
	for v := 1; v < n; v++ {
		g.MustAddEdge(int32(rng.Intn(v)), int32(v))
	}
	for range extraEdges {
		a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
		if a != b && !g.HasEdge(a, b) {
			g.MustAddEdge(a, b)
		}
	}
	return g
}

// referencePaths is the definition Extract must agree with: every path
// visit keyed through canon.PathKey and counted in a map.
func referencePaths(q *graph.Graph, maxPathLen int) map[canon.Key]int32 {
	ref := make(map[canon.Key]int32)
	var labels []graph.Label
	features.VisitPaths(q, maxPathLen, func(vs []int32) bool {
		labels = features.PathLabels(q, vs, labels)
		ref[canon.PathKey(labels)]++
		return true
	})
	return ref
}

// TestQueryPathsMatchReference is the differential test of the packed
// extraction: for random graphs — palindromic label paths, label values
// whose byte order differs from their numeric order, negative labels, and
// alphabets wide enough to need multi-word records — and MaxPathLen 1–6,
// the keys and counts equal the map built from canon.PathKey, and the keys
// come out strictly ascending.
func TestQueryPathsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	wide := make([]graph.Label, 600)
	for i := range wide {
		wide[i] = graph.Label(i*257 - 300)
	}
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"palindrome", pathGraph(1, 2, 3, 2, 1)},
		{"uniform", pathGraph(4, 4, 4, 4, 4, 4, 4)},
		{"even-palindrome", pathGraph(5, 6, 6, 5)},
		{"single-vertex", pathGraph(9)},
		{"byte-order", pathGraph(1, 256, 1, 65536, -1, 256)},
	}
	distinctWide := graph.New(0) // 600 distinct labels: 10-bit ranks, two words past 5 edges
	for _, l := range wide {
		distinctWide.AddVertex(l)
	}
	for v := 1; v < len(wide); v++ {
		distinctWide.MustAddEdge(int32(rng.Intn(v)), int32(v))
	}
	cases = append(cases, struct {
		name string
		g    *graph.Graph
	}{"distinct-wide", distinctWide})
	for i := range 30 {
		alphabet := []graph.Label{0, 1, 2}
		switch i % 3 {
		case 1:
			alphabet = []graph.Label{1, 256, 65536, 1 << 24, -7, 0}
		case 2:
			alphabet = wide
		}
		cases = append(cases, struct {
			name string
			g    *graph.Graph
		}{"random", randomLabelled(rng, 3+rng.Intn(14), rng.Intn(10), alphabet)})
	}
	multiWord := false
	for _, tc := range cases {
		for maxLen := 1; maxLen <= 6; maxLen++ {
			ref := referencePaths(tc.g, maxLen)
			qp := Extract(tc.g, maxLen)
			if qp.Len() != len(ref) {
				t.Fatalf("%s, MaxPathLen %d: %d distinct keys, reference has %d", tc.name, maxLen, qp.Len(), len(ref))
			}
			for i := range qp.Len() {
				key := qp.Key(i)
				if i > 0 && qp.Key(i-1) >= key {
					t.Fatalf("%s, MaxPathLen %d: key %d not above key %d", tc.name, maxLen, i, i-1)
				}
				if want, ok := ref[canon.Key(key)]; !ok || want != qp.Count(i) {
					t.Fatalf("%s, MaxPathLen %d: key %x counted %d, reference %d (present %v)", tc.name, maxLen, key, qp.Count(i), want, ok)
				}
			}
			distinct := len(slices.Compact(slices.Sorted(slices.Values(tc.g.Labels()))))
			multiWord = multiWord || bits.Len(uint(distinct))*(maxLen+1) > 64
		}
	}
	if !multiWord {
		t.Fatalf("no case needed multi-word records")
	}
}
