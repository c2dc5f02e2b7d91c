// Package dfscode implements gSpan-style DFS codes for connected
// vertex-labelled undirected graphs: code comparison, minimum (canonical)
// code computation, and reconstruction of the pattern graph encoded by a
// code. It is the foundation of the gIndex frequent-subgraph miner and of
// graph canonical labels.
//
// A DFS code is the edge sequence of a depth-first traversal. Each entry is
// (i, j, li, lj) where i and j are discovery indices and li/lj the vertex
// labels; i < j marks a forward (tree) edge, i > j a backward edge. The
// gSpan linear order on entries makes the lexicographically smallest code of
// a graph a canonical form.
package dfscode

import (
	"encoding/binary"
	"fmt"

	"repro/internal/graph"
)

// Entry is one edge of a DFS code.
type Entry struct {
	I, J   int32
	LI, LJ graph.Label
}

// Forward reports whether the entry is a forward (tree) edge.
func (e Entry) Forward() bool { return e.I < e.J }

func (e Entry) String() string {
	return fmt.Sprintf("(%d,%d,%d,%d)", e.I, e.J, e.LI, e.LJ)
}

// Compare returns -1, 0, or +1 ordering entries by the gSpan DFS-code
// relation (structure first, then labels).
func Compare(a, b Entry) int {
	af, bf := a.Forward(), b.Forward()
	switch {
	case !af && !bf: // both backward
		if a.I != b.I {
			return cmpInt32(a.I, b.I)
		}
		if a.J != b.J {
			return cmpInt32(a.J, b.J)
		}
	case af && bf: // both forward
		if a.J != b.J {
			return cmpInt32(a.J, b.J)
		}
		if a.I != b.I {
			return cmpInt32(b.I, a.I) // larger source first
		}
	case !af && bf: // backward vs forward
		if a.I < b.J {
			return -1
		}
		return 1
	default: // forward vs backward
		if a.J <= b.I {
			return -1
		}
		return 1
	}
	// Same structural position: compare labels.
	if a.LI != b.LI {
		return cmpLabel(a.LI, b.LI)
	}
	return cmpLabel(a.LJ, b.LJ)
}

func cmpInt32(a, b int32) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpLabel(a, b graph.Label) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Code is a DFS code: a sequence of entries.
type Code []Entry

// CompareCodes orders codes lexicographically by Compare; a proper prefix
// sorts before its extensions.
func CompareCodes(a, b Code) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// NumVertices returns the number of pattern vertices spanned by the code.
func (c Code) NumVertices() int {
	max := int32(-1)
	for _, e := range c {
		if e.I > max {
			max = e.I
		}
		if e.J > max {
			max = e.J
		}
	}
	return int(max + 1)
}

// Graph reconstructs the pattern graph encoded by the code.
func (c Code) Graph() *graph.Graph {
	n := c.NumVertices()
	labels := make([]graph.Label, n)
	for _, e := range c {
		labels[e.I] = e.LI
		labels[e.J] = e.LJ
	}
	g := graph.NewWithCapacity(0, n)
	for _, l := range labels {
		g.AddVertex(l)
	}
	for _, e := range c {
		g.MustAddEdge(e.I, e.J)
	}
	return g
}

// Key returns a compact byte-string encoding of the code, usable as a map
// key or trie path.
func (c Code) Key() string {
	buf := make([]byte, 0, len(c)*10)
	var tmp [10]byte
	for _, e := range c {
		binary.LittleEndian.PutUint16(tmp[0:], uint16(e.I))
		binary.LittleEndian.PutUint16(tmp[2:], uint16(e.J))
		binary.LittleEndian.PutUint32(tmp[4:], uint32(e.LI))
		// LJ packed in 2 bytes is unsafe for large label spaces; use 4+2
		// split only if labels fit. Keep it simple and safe: 2 bytes is not
		// enough, so spend the full 4.
		buf = append(buf, tmp[:8]...)
		binary.LittleEndian.PutUint32(tmp[0:], uint32(e.LJ))
		buf = append(buf, tmp[:4]...)
	}
	return string(buf)
}

// entryLen is the byte length of one entry in a Key.
const entryLen = 12

// ParseKey is the inverse of Key. ok is false for bytes that are no
// well-formed code's key: one that starts at (0,1), discovers each new
// vertex by a forward entry from a vertex already discovered, closes
// backward entries between discovered vertices, keeps each vertex's label
// and repeats no edge. A well-formed code need not be minimal.
func ParseKey(key string) (c Code, ok bool) {
	if len(key) == 0 || len(key)%entryLen != 0 {
		return nil, false
	}
	le := binary.LittleEndian
	b := []byte(key)
	labels := []graph.Label{}
	edges := make(map[[2]int32]bool, len(b)/entryLen)
	for off := 0; off < len(b); off += entryLen {
		s := b[off:]
		e := Entry{
			I: int32(le.Uint16(s)), J: int32(le.Uint16(s[2:])),
			LI: graph.Label(le.Uint32(s[4:])), LJ: graph.Label(le.Uint32(s[8:])),
		}
		if off == 0 {
			if e.I != 0 || e.J != 1 {
				return nil, false
			}
			labels = append(labels, e.LI)
		}
		n := int32(len(labels))
		if e.I >= n || e.LI != labels[e.I] {
			return nil, false
		}
		switch {
		case e.J == n:
			labels = append(labels, e.LJ)
		case e.J >= e.I || e.LJ != labels[e.J]:
			return nil, false
		}
		edge := [2]int32{min(e.I, e.J), max(e.I, e.J)}
		if edges[edge] {
			return nil, false
		}
		edges[edge] = true
		c = append(c, e)
	}
	return c, true
}

// Clone returns a copy of the code.
func (c Code) Clone() Code { return append(Code(nil), c...) }

// rightmostPath returns the discovery indices on the rightmost path of the
// DFS tree of the code, from the rightmost vertex down to the root.
func (c Code) rightmostPath() []int32 {
	if len(c) == 0 {
		return nil
	}
	// Walk forward edges backwards from the rightmost vertex.
	rm := int32(0)
	for _, e := range c {
		if e.Forward() && e.J > rm {
			rm = e.J
		}
	}
	path := []int32{rm}
	cur := rm
	for cur != 0 {
		// Find the forward edge that discovered cur.
		parent := int32(-1)
		for _, e := range c {
			if e.Forward() && e.J == cur {
				parent = e.I
				break
			}
		}
		if parent < 0 {
			break
		}
		path = append(path, parent)
		cur = parent
	}
	return path
}

// minState is the working state of the Minimum search over one graph.
type minState struct {
	g        *graph.Graph
	edgeID   map[[2]int32]int
	used     []bool
	disc     []int32 // graph vertex -> discovery index, -1 if undiscovered
	vertexAt []int32 // discovery index -> graph vertex
	code     Code
	best     Code
	haveBest bool
}

// Minimum returns the minimum (canonical) DFS code of a connected graph with
// at least one edge. It panics if g is empty or disconnected, since DFS codes
// are defined for connected patterns only.
func Minimum(g *graph.Graph) Code {
	if g.NumEdges() == 0 {
		panic("dfscode: Minimum requires at least one edge")
	}
	if !g.IsConnected() {
		panic("dfscode: Minimum requires a connected graph")
	}
	s := &minState{
		g:      g,
		edgeID: make(map[[2]int32]int, g.NumEdges()),
		used:   make([]bool, g.NumEdges()),
		disc:   make([]int32, g.NumVertices()),
	}
	for i, e := range g.Edges() {
		s.edgeID[[2]int32{e[0], e[1]}] = i
		s.edgeID[[2]int32{e[1], e[0]}] = i
	}
	// Initial entries: the minimal (0,1,lu,lv) over all oriented edges.
	bestInit := Entry{}
	haveInit := false
	for _, e := range g.Edges() {
		for _, o := range [2][2]int32{{e[0], e[1]}, {e[1], e[0]}} {
			ent := Entry{I: 0, J: 1, LI: g.Label(o[0]), LJ: g.Label(o[1])}
			if !haveInit || Compare(ent, bestInit) < 0 {
				bestInit, haveInit = ent, true
			}
		}
	}
	for _, e := range g.Edges() {
		for _, o := range [2][2]int32{{e[0], e[1]}, {e[1], e[0]}} {
			ent := Entry{I: 0, J: 1, LI: g.Label(o[0]), LJ: g.Label(o[1])}
			if Compare(ent, bestInit) != 0 {
				continue
			}
			s.start(o[0], o[1], ent)
		}
	}
	return s.best
}

func (s *minState) start(u, v int32, ent Entry) {
	for i := range s.disc {
		s.disc[i] = -1
	}
	s.vertexAt = s.vertexAt[:0]
	s.disc[u] = 0
	s.disc[v] = 1
	s.vertexAt = append(s.vertexAt, u, v)
	eid := s.edgeID[[2]int32{u, v}]
	s.used[eid] = true
	s.code = append(s.code[:0], ent)
	s.search()
	s.used[eid] = false
}

// search extends s.code by the minimal candidate entries, branching on ties,
// until all edges are used; it updates s.best.
func (s *minState) search() {
	if len(s.code) == s.g.NumEdges() {
		if !s.haveBest || CompareCodes(s.code, s.best) < 0 {
			s.best = s.code.Clone()
			s.haveBest = true
		}
		return
	}
	// Prune: if the current partial code already exceeds best's prefix, stop.
	if s.haveBest {
		n := len(s.code)
		if c := CompareCodes(s.code, s.best[:n]); c > 0 {
			return
		}
	}
	type cand struct {
		ent      Entry
		from, to int32 // graph vertices
	}
	var cands []cand
	path := s.code.rightmostPath()
	rm := path[0]
	rmVertex := s.vertexAt[rm]
	// Backward edges from the rightmost vertex to rightmost-path vertices.
	for _, w := range s.g.Neighbors(rmVertex) {
		dw := s.disc[w]
		if dw < 0 || dw == rm {
			continue
		}
		if s.used[s.edgeID[[2]int32{rmVertex, w}]] {
			continue
		}
		onPath := false
		for _, p := range path {
			if p == dw {
				onPath = true
				break
			}
		}
		if !onPath {
			continue
		}
		cands = append(cands, cand{
			ent:  Entry{I: rm, J: dw, LI: s.g.Label(rmVertex), LJ: s.g.Label(w)},
			from: rmVertex, to: w,
		})
	}
	// Forward edges from any rightmost-path vertex to an undiscovered vertex.
	newIdx := int32(len(s.vertexAt))
	for _, p := range path {
		pv := s.vertexAt[p]
		for _, w := range s.g.Neighbors(pv) {
			if s.disc[w] >= 0 {
				continue
			}
			cands = append(cands, cand{
				ent:  Entry{I: p, J: newIdx, LI: s.g.Label(pv), LJ: s.g.Label(w)},
				from: pv, to: w,
			})
		}
	}
	if len(cands) == 0 {
		return // disconnected remainder: cannot happen for connected graphs
	}
	// Keep only the minimal entries; branch over ties.
	minEnt := cands[0].ent
	for _, c := range cands[1:] {
		if Compare(c.ent, minEnt) < 0 {
			minEnt = c.ent
		}
	}
	for _, c := range cands {
		if Compare(c.ent, minEnt) != 0 {
			continue
		}
		eid := s.edgeID[[2]int32{c.from, c.to}]
		if s.used[eid] {
			continue
		}
		s.used[eid] = true
		s.code = append(s.code, c.ent)
		forward := c.ent.Forward()
		if forward {
			s.disc[c.to] = newIdx
			s.vertexAt = append(s.vertexAt, c.to)
		}
		s.search()
		if forward {
			s.disc[c.to] = -1
			s.vertexAt = s.vertexAt[:len(s.vertexAt)-1]
		}
		s.code = s.code[:len(s.code)-1]
		s.used[eid] = false
	}
}

// IsMinimal reports whether c is the minimum DFS code of its pattern graph.
// gSpan uses this to discard duplicate enumeration states.
func IsMinimal(c Code) bool {
	if len(c) == 0 {
		return true
	}
	return CompareCodes(c, Minimum(c.Graph())) == 0
}
