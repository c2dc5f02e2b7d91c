package canon

import (
	"encoding/binary"

	"repro/internal/dfscode"
	"repro/internal/graph"
)

// KeyGraph is the inverse of the three key families mined feature indexes
// store: it rebuilds the graph behind a GraphKey ("G" + minimum DFS code),
// TreeKey ("T" + AHU string) or CycleKey ("C" + labels) key. ok is false
// for any other bytes, including a well-formed key that is not canonical,
// so a graph it returns always re-keys to k.
func KeyGraph(k Key) (g *graph.Graph, ok bool) {
	if len(k) == 0 {
		return nil, false
	}
	var rekey func(*graph.Graph) (Key, bool)
	switch k[0] {
	case 'G':
		if c, ok := dfscode.ParseKey(string(k[1:])); ok {
			g = c.Graph()
		}
		rekey = GraphKey
	case 'T':
		g, rekey = parseAHU([]byte(k[1:])), TreeKey
	case 'C':
		g = parseCycle([]byte(k[1:]))
		rekey = func(g *graph.Graph) (Key, bool) { return CycleKey(g.Labels()), true }
	}
	if g == nil {
		return nil, false
	}
	if got, ok := rekey(g); !ok || got != k {
		return nil, false
	}
	return g, true
}

// parseAHU rebuilds the tree of an AHU string: a vertex is '(' then its
// label then its children, then ')'. It returns nil for anything else.
func parseAHU(s []byte) *graph.Graph {
	g := graph.New(0)
	var open []int32 // the vertices whose ')' is still to come
	for i := 0; i < len(s); {
		switch {
		case s[i] == ')' && len(open) > 0:
			open = open[:len(open)-1]
			i++
		case s[i] == '(' && i+5 <= len(s) && (len(open) > 0 || g.NumVertices() == 0):
			v := g.AddVertex(graph.Label(binary.LittleEndian.Uint32(s[i+1:])))
			if len(open) > 0 {
				g.MustAddEdge(open[len(open)-1], v)
			}
			open = append(open, v)
			i += 5
		default:
			return nil
		}
	}
	if len(open) > 0 || g.NumVertices() == 0 {
		return nil
	}
	return g
}

// parseCycle rebuilds the cycle of a CycleKey body: its labels in order
// around the cycle. It returns nil for anything else.
func parseCycle(s []byte) *graph.Graph {
	n := len(s) / 4
	if n < 3 || len(s)%4 != 0 {
		return nil
	}
	g := graph.NewWithCapacity(0, n)
	for i := 0; i < n; i++ {
		g.AddVertex(graph.Label(binary.LittleEndian.Uint32(s[4*i:])))
	}
	for i := 0; i < n; i++ {
		g.MustAddEdge(int32(i), int32((i+1)%n))
	}
	return g
}
