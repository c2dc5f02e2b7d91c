package dfscode

// The recursive minimum-code search as it stood before the search moved
// onto pooled scratch, kept unchanged as the reference the pooled search is
// tested against (FuzzMinimumAgreesWithReference, TestScratchHygiene).

import "repro/internal/graph"

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

// refMinimum returns the minimum (canonical) DFS code of a connected graph with
// at least one edge. It panics if g is empty or disconnected, since DFS codes
// are defined for connected patterns only.
func refMinimum(g *graph.Graph) Code {
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
