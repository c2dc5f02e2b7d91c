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
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

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
// key or trie path: per entry, I and J as little-endian uint16, then LI and
// LJ as little-endian uint32.
func (c Code) Key() string {
	var buf [16 * entryLen]byte
	return string(appendKey(buf[:0], c))
}

// appendKey appends c's Key bytes to dst.
func appendKey(dst []byte, c Code) []byte {
	le := binary.LittleEndian
	for _, e := range c {
		dst = le.AppendUint16(dst, uint16(e.I))
		dst = le.AppendUint16(dst, uint16(e.J))
		dst = le.AppendUint32(dst, uint32(e.LI))
		dst = le.AppendUint32(dst, uint32(e.LJ))
	}
	return dst
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

// StepBudget bounds a canonical search whose caller must answer promptly
// (the serving layer's cache key): a step is one search node or one
// adjacency entry the search scans, and a search that would take more
// stops with ErrBudget. The search is exponential in a graph's symmetry: a
// one-label K9 takes hundreds of millions of steps, while the largest
// random-walk query of any benchmark workload takes under 4,000 and of
// sqbench's 32-edge synthetic queries under 120,000. Minimum runs
// unbounded.
const StepBudget = 1 << 24

var (
	// ErrDisconnected is returned for a graph with no edge or more than one
	// connected component: DFS codes are defined for connected patterns.
	ErrDisconnected = errors.New("dfscode: graph has no edge or is disconnected")
	// ErrBudget is returned when a bounded search runs out of steps.
	ErrBudget = errors.New("dfscode: canonical search exceeded its step budget")
)

// scratch is the working state of one minimum-code search. A pooled
// scratch keeps its arrays across searches, whatever the sizes of the
// graphs it saw before, and pins no graph between them.
type scratch struct {
	g *graph.Graph
	// The edge id of v's k-th neighbour is eid[off[v]+k].
	off, eid []int32
	used     []bool
	disc     []int32 // graph vertex -> discovery index, -1 if undiscovered
	vertexAt []int32 // discovery index -> graph vertex
	parent   []int32 // discovery index -> discovery index of its tree parent
	path     []int32 // the current rightmost path, refilled at every node
	// cands is one slab: each depth appends its minimal candidates and
	// truncates back to its own start on return.
	cands    []cand
	code     Code
	best     Code
	haveBest bool
	left     int // search nodes the budget still allows
	tripped  bool
}

// cand is one candidate extension of the code: the entry, the graph vertex
// it reaches and its edge id.
type cand struct {
	ent     Entry
	to, eid int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// AppendMinimumKey appends the Key of g's minimum DFS code to dst. steps
// bounds the search nodes visited (StepBudget for a prompt caller, 0 for
// no bound); err is ErrBudget when the bound was hit, ErrDisconnected when
// g has no edge or is disconnected, and dst comes back unchanged on error.
func AppendMinimumKey(dst []byte, g *graph.Graph, steps int) ([]byte, error) {
	s := scratchPool.Get().(*scratch)
	err := s.run(g, steps)
	if err == nil {
		dst = appendKey(dst, s.best)
	}
	scratchPool.Put(s)
	return dst, err
}

// Minimum returns the minimum (canonical) DFS code of a connected graph with
// at least one edge. It panics if g is empty or disconnected, since DFS codes
// are defined for connected patterns only.
func Minimum(g *graph.Graph) Code {
	if g.NumEdges() == 0 {
		panic("dfscode: Minimum requires at least one edge")
	}
	s := scratchPool.Get().(*scratch)
	if s.run(g, 0) != nil {
		panic("dfscode: Minimum requires a connected graph")
	}
	c := append(Code(nil), s.best...)
	scratchPool.Put(s)
	return c
}

// run leaves g's minimum code in s.best. steps <= 0 means unbounded.
func (s *scratch) run(g *graph.Graph, steps int) error {
	if g.NumEdges() == 0 {
		return ErrDisconnected
	}
	s.prepare(g)
	err := s.minimum(steps)
	s.g = nil
	return err
}

func (s *scratch) minimum(steps int) error {
	if !s.connected() {
		return ErrDisconnected
	}
	g := s.g
	s.left, s.tripped, s.haveBest = steps, false, false
	if steps <= 0 {
		s.left = math.MaxInt
	}
	// Initial entries: the minimal (0,1,lu,lv) over all oriented edges,
	// each edge visited from its lower end, lower end first.
	n := int32(g.NumVertices())
	bestInit := Entry{}
	haveInit := false
	for u := int32(0); u < n; u++ {
		for _, v := range g.Neighbors(u) {
			for _, o := range [2][2]int32{{u, v}, {v, u}} {
				ent := Entry{I: 0, J: 1, LI: g.Label(o[0]), LJ: g.Label(o[1])}
				if !haveInit || Compare(ent, bestInit) < 0 {
					bestInit, haveInit = ent, true
				}
			}
		}
	}
	for u := int32(0); u < n; u++ {
		for k, v := range g.Neighbors(u) {
			if v < u {
				continue
			}
			for _, o := range [2][2]int32{{u, v}, {v, u}} {
				ent := Entry{I: 0, J: 1, LI: g.Label(o[0]), LJ: g.Label(o[1])}
				if Compare(ent, bestInit) != 0 {
					continue
				}
				s.start(o[0], o[1], ent, s.eid[s.off[u]+int32(k)])
				if s.tripped {
					return ErrBudget
				}
			}
		}
	}
	return nil
}

// prepare sizes the arrays for g and numbers its edges: the edge {u, v},
// u < v, takes the next id at u's slot for v and, found by binary search
// in v's sorted neighbour list, at v's slot for u.
func (s *scratch) prepare(g *graph.Graph) {
	n, m := g.NumVertices(), g.NumEdges()
	s.g = g
	s.off = grow(s.off, n+1)
	s.eid = grow(s.eid, 2*m)
	s.disc = grow(s.disc, n)
	if cap(s.used) < m {
		s.used = make([]bool, m)
	}
	s.used = s.used[:m]
	clear(s.used)
	s.off[0] = 0
	for v := int32(0); v < int32(n); v++ {
		s.off[v+1] = s.off[v] + int32(g.Degree(v))
	}
	id := int32(0)
	for u := int32(0); u < int32(n); u++ {
		for k, v := range g.Neighbors(u) {
			if v < u {
				continue
			}
			r, _ := slices.BinarySearch(g.Neighbors(v), u)
			s.eid[s.off[u]+int32(k)] = id
			s.eid[s.off[v]+int32(r)] = id
			id++
		}
	}
}

// grow returns a with length n, reallocated only when its capacity is short.
func grow(a []int32, n int) []int32 {
	if cap(a) < n {
		return make([]int32, n)
	}
	return a[:n]
}

// connected reports whether s.g is connected, by a depth-first sweep that
// marks disc and stacks on the path buffer. (start resets disc.)
func (s *scratch) connected() bool {
	for i := range s.disc {
		s.disc[i] = -1
	}
	stack := append(s.path[:0], 0)
	s.disc[0] = 0
	seen := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range s.g.Neighbors(v) {
			if s.disc[w] < 0 {
				s.disc[w] = 0
				seen++
				stack = append(stack, w)
			}
		}
	}
	s.path = stack
	return seen == len(s.disc)
}

func (s *scratch) start(u, v int32, ent Entry, eid int32) {
	for i := range s.disc {
		s.disc[i] = -1
	}
	s.disc[u] = 0
	s.disc[v] = 1
	s.vertexAt = append(s.vertexAt[:0], u, v)
	s.parent = append(s.parent[:0], -1, 0)
	s.used[eid] = true
	s.code = append(s.code[:0], ent)
	s.search()
	s.used[eid] = false
}

// search extends s.code by the minimal candidate entries, branching on ties,
// until all edges are used; it updates s.best. Every call and every
// adjacency entry it scans is one step of the budget; once the budget is
// spent the search unwinds, restoring its state.
func (s *scratch) search() {
	if s.left--; s.left < 0 {
		s.tripped = true
		return
	}
	if len(s.code) == len(s.used) {
		if !s.haveBest || CompareCodes(s.code, s.best) < 0 {
			s.best = append(s.best[:0], s.code...)
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
	// The rightmost path runs from the last discovered vertex up the tree
	// to the root.
	rm := int32(len(s.vertexAt) - 1)
	s.path = s.path[:0]
	for p := rm; p >= 0; p = s.parent[p] {
		s.path = append(s.path, p)
	}
	g := s.g
	lo := len(s.cands)
	// Backward edges from the rightmost vertex to rightmost-path vertices.
	rmVertex := s.vertexAt[rm]
	base := s.off[rmVertex]
	nbrs := g.Neighbors(rmVertex)
	s.left -= len(nbrs)
	for k, w := range nbrs {
		dw := s.disc[w]
		if dw < 0 || dw == rm {
			continue
		}
		eid := s.eid[base+int32(k)]
		if s.used[eid] || !slices.Contains(s.path, dw) {
			continue
		}
		s.push(lo, cand{
			ent: Entry{I: rm, J: dw, LI: g.Label(rmVertex), LJ: g.Label(w)},
			to:  w, eid: eid,
		})
	}
	// Forward edges from any rightmost-path vertex to an undiscovered vertex.
	newIdx := int32(len(s.vertexAt))
	for _, p := range s.path {
		pv := s.vertexAt[p]
		base := s.off[pv]
		nbrs := g.Neighbors(pv)
		s.left -= len(nbrs)
		for k, w := range nbrs {
			if s.disc[w] >= 0 {
				continue
			}
			s.push(lo, cand{
				ent: Entry{I: p, J: newIdx, LI: g.Label(pv), LJ: g.Label(w)},
				to:  w, eid: s.eid[base+int32(k)],
			})
		}
	}
	// Branch over the minimal entries. The slab may move under the
	// recursion, so each candidate is read by index.
	hi := len(s.cands)
	for i := lo; i < hi && !s.tripped; i++ {
		c := s.cands[i]
		if s.used[c.eid] {
			continue
		}
		s.used[c.eid] = true
		s.code = append(s.code, c.ent)
		forward := c.ent.Forward()
		if forward {
			s.disc[c.to] = newIdx
			s.vertexAt = append(s.vertexAt, c.to)
			s.parent = append(s.parent, c.ent.I)
		}
		s.search()
		if forward {
			s.disc[c.to] = -1
			s.vertexAt = s.vertexAt[:newIdx]
			s.parent = s.parent[:newIdx]
		}
		s.code = s.code[:len(s.code)-1]
		s.used[c.eid] = false
	}
	s.cands = s.cands[:lo]
}

// push adds c to the candidates s.cands[lo:] of the current depth, which
// hold only the minimal entries seen so far, in the order they were found.
func (s *scratch) push(lo int, c cand) {
	if len(s.cands) > lo {
		switch Compare(c.ent, s.cands[lo].ent) {
		case 1:
			return
		case -1:
			s.cands = s.cands[:lo]
		}
	}
	s.cands = append(s.cands, c)
}

// IsMinimal reports whether c is the minimum DFS code of its pattern graph.
// gSpan uses this to discard duplicate enumeration states.
func IsMinimal(c Code) bool {
	if len(c) == 0 {
		return true
	}
	return CompareCodes(c, Minimum(c.Graph())) == 0
}
