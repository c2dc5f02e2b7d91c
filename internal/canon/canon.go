// Package canon computes canonical labels for the feature structures used by
// the indexing methods: label paths, simple cycles, unrooted trees, and
// general connected graphs. Two features receive the same Key iff they are
// isomorphic (as labelled structures), so Keys serve as index keys.
package canon

import (
	"encoding/binary"
	"sort"

	"repro/internal/dfscode"
	"repro/internal/graph"
)

// Key is a canonical label: an opaque byte string, comparable and hashable.
type Key string

// appendLabel appends the 4-byte little-endian encoding of l to buf.
func appendLabel(buf []byte, l graph.Label) []byte {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(l))
	return append(buf, tmp[:]...)
}

// EncodeLabels returns the raw (non-canonical) key of a label sequence.
func EncodeLabels(seq []graph.Label) Key {
	buf := make([]byte, 0, 4*len(seq))
	for _, l := range seq {
		buf = appendLabel(buf, l)
	}
	return Key(buf)
}

// PathKey returns the canonical label of a label path: the lexicographically
// smaller of the sequence and its reverse, so a path and its reversal index
// identically.
func PathKey(seq []graph.Label) Key {
	if len(seq) == 0 {
		return ""
	}
	forward := true
	for i, j := 0, len(seq)-1; i < j; i, j = i+1, j-1 {
		if seq[i] != seq[j] {
			forward = seq[i] < seq[j]
			break
		}
	}
	buf := make([]byte, 0, 4*len(seq))
	if forward {
		for _, l := range seq {
			buf = appendLabel(buf, l)
		}
	} else {
		for i := len(seq) - 1; i >= 0; i-- {
			buf = appendLabel(buf, seq[i])
		}
	}
	return Key(buf)
}

// CycleKey returns the canonical label of a simple cycle given the label
// sequence around the cycle (first vertex not repeated at the end): the
// lexicographically smallest rotation over both orientations.
func CycleKey(seq []graph.Label) Key {
	n := len(seq)
	if n == 0 {
		return ""
	}
	best := make([]graph.Label, n)
	cur := make([]graph.Label, n)
	haveBest := false
	for dir := 0; dir < 2; dir++ {
		for start := 0; start < n; start++ {
			for k := 0; k < n; k++ {
				var idx int
				if dir == 0 {
					idx = (start + k) % n
				} else {
					idx = ((start-k)%n + n) % n
				}
				cur[k] = seq[idx]
			}
			if !haveBest || lessLabels(cur, best) {
				copy(best, cur)
				haveBest = true
			}
		}
	}
	buf := make([]byte, 0, 4*n)
	// Prefix distinguishes an n-cycle from an n-label path.
	buf = append(buf, 'C')
	for _, l := range best {
		buf = appendLabel(buf, l)
	}
	return Key(buf)
}

func lessLabels(a, b []graph.Label) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// TreeKey returns the canonical label of an unrooted labelled tree using the
// AHU encoding rooted at the tree center(s). ok is false if g is not a tree
// (disconnected or has a cycle).
func TreeKey(g *graph.Graph) (key Key, ok bool) {
	n := g.NumVertices()
	if n == 0 {
		return "", false
	}
	if g.NumEdges() != n-1 || !g.IsConnected() {
		return "", false
	}
	centers := treeCenters(g)
	var best string
	for i, c := range centers {
		enc := ahuEncode(g, c, -1)
		if i == 0 || enc < best {
			best = enc
		}
	}
	return Key("T" + best), true
}

// treeCenters returns the 1 or 2 centers of a tree (peel leaves layer by
// layer until at most two vertices remain).
func treeCenters(g *graph.Graph) []int32 {
	n := g.NumVertices()
	if n == 1 {
		return []int32{0}
	}
	deg := make([]int, n)
	remaining := n
	var leaves []int32
	for v := int32(0); int(v) < n; v++ {
		deg[v] = g.Degree(v)
		if deg[v] <= 1 {
			leaves = append(leaves, v)
		}
	}
	removed := make([]bool, n)
	for remaining > 2 {
		var next []int32
		for _, v := range leaves {
			removed[v] = true
			remaining--
			for _, w := range g.Neighbors(v) {
				if removed[w] {
					continue
				}
				deg[w]--
				if deg[w] == 1 {
					next = append(next, w)
				}
			}
		}
		leaves = next
	}
	var centers []int32
	for v := int32(0); int(v) < n; v++ {
		if !removed[v] {
			centers = append(centers, v)
		}
	}
	return centers
}

// ahuEncode returns the AHU string of the subtree rooted at v (parent p),
// incorporating vertex labels.
func ahuEncode(g *graph.Graph, v, p int32) string {
	var children []string
	for _, w := range g.Neighbors(v) {
		if w != p {
			children = append(children, ahuEncode(g, w, v))
		}
	}
	sort.Strings(children)
	buf := make([]byte, 0, 8+16*len(children))
	buf = append(buf, '(')
	buf = appendLabel(buf, g.Label(v))
	for _, c := range children {
		buf = append(buf, c...)
	}
	buf = append(buf, ')')
	return string(buf)
}

// GraphKey returns the canonical label of a connected graph with at least one
// edge, based on its minimum DFS code. Single-vertex graphs are encoded from
// their label alone. ok is false for empty or disconnected graphs.
func GraphKey(g *graph.Graph) (key Key, ok bool) {
	key, err := GraphKeyWithin(g, 0)
	return key, err == nil
}

// GraphKeyWithin is GraphKey with the canonical search bounded to steps
// (see dfscode.StepBudget; 0 for no bound). err is dfscode.ErrBudget when
// the search ran out and dfscode.ErrDisconnected for an empty or
// disconnected graph. The key is 'G' and the code's Key bytes, built in one
// buffer: a key costs one allocation.
func GraphKeyWithin(g *graph.Graph, steps int) (Key, error) {
	switch g.NumVertices() {
	case 0:
		return "", dfscode.ErrDisconnected
	case 1:
		return Key("V" + string(EncodeLabels([]graph.Label{g.Label(0)}))), nil
	}
	var buf [256]byte
	key, err := dfscode.AppendMinimumKey(append(buf[:0], 'G'), g, steps)
	if err != nil {
		return "", err
	}
	return Key(key), nil
}

// FeatureKey returns the canonical key of any connected feature graph,
// dispatching to the cheapest applicable canonical form: paths and cycles
// get specialized keys (identical to what enumeration-time keying produces),
// other trees use TreeKey, and everything else falls back to GraphKey.
func FeatureKey(g *graph.Graph) (Key, bool) {
	n := g.NumVertices()
	switch {
	case n == 0:
		return "", false
	case n == 1:
		return Key("V" + string(EncodeLabels([]graph.Label{g.Label(0)}))), true
	case !g.IsConnected():
		return "", false
	}
	if seq, ok := asPath(g); ok {
		return PathKey(seq), true
	}
	if seq, ok := asCycle(g); ok {
		return CycleKey(seq), true
	}
	if k, ok := TreeKey(g); ok {
		return k, true
	}
	return GraphKey(g)
}

// asPath extracts the label sequence if g is a simple path.
func asPath(g *graph.Graph) ([]graph.Label, bool) {
	n := g.NumVertices()
	if g.NumEdges() != n-1 {
		return nil, false
	}
	var ends []int32
	for v := int32(0); int(v) < n; v++ {
		switch g.Degree(v) {
		case 1:
			ends = append(ends, v)
		case 2:
		default:
			return nil, false
		}
	}
	if n == 1 {
		return []graph.Label{g.Label(0)}, true
	}
	if len(ends) != 2 {
		return nil, false
	}
	seq := make([]graph.Label, 0, n)
	prev, cur := int32(-1), ends[0]
	for {
		seq = append(seq, g.Label(cur))
		if cur == ends[1] && len(seq) == n {
			break
		}
		next := int32(-1)
		for _, w := range g.Neighbors(cur) {
			if w != prev {
				next = w
				break
			}
		}
		if next < 0 {
			return nil, false
		}
		prev, cur = cur, next
	}
	return seq, true
}

// asCycle extracts the label sequence around g if it is a simple cycle.
func asCycle(g *graph.Graph) ([]graph.Label, bool) {
	n := g.NumVertices()
	if n < 3 || g.NumEdges() != n {
		return nil, false
	}
	for v := int32(0); int(v) < n; v++ {
		if g.Degree(v) != 2 {
			return nil, false
		}
	}
	seq := make([]graph.Label, 0, n)
	prev, cur := int32(-1), int32(0)
	for len(seq) < n {
		seq = append(seq, g.Label(cur))
		next := int32(-1)
		for _, w := range g.Neighbors(cur) {
			if w != prev {
				next = w
				break
			}
		}
		prev, cur = cur, next
	}
	if cur != 0 {
		return nil, false // not a single cycle (cannot happen if checks hold)
	}
	return seq, true
}
