// Package subiso implements subgraph isomorphism testing in the sense of
// Definition 3 of the paper: an injective mapping of query vertices to data
// vertices preserving labels and query edges (a subgraph monomorphism; data
// graphs may have extra edges between mapped vertices).
//
// There is one matcher: VF2 (Cordella, Foggia, Sansone, Vento, TPAMI 2004)
// with label, degree and lookahead pruning, split into a compile step and a
// search step. Compile derives everything that depends on the query alone —
// the match order and, per depth, exactly which edges a candidate pair has
// to be probed for — so a filter-and-verify pipeline pays for it once per
// query, not once per candidate. The search borrows its working arrays from
// a pool and allocates nothing.
//
// The search has two kernels over one compiled plan. On a sealed data
// graph of at most 64 vertices (graph.AdjWords) it works bit-parallel: the
// candidates at a depth are one word, the step label's vertex mask ANDed
// with the adjacency words of the anchor's and every back edge's image,
// minus the mapped vertices, and each candidate's degree, neighbour-label
// and lookahead tests are popcounts. On any other graph it walks adjacency
// lists. Both visit the candidates in ascending vertex order and apply the
// same rules, so they explore the same search tree and yield the same
// embeddings in the same order. CT-Index's "modified VF2 with additional
// heuristics" (rarity-driven ordering, neighbour-label dominance) is a
// compile option of the same matcher.
package subiso

import (
	"context"
	"math/bits"
	"sync"

	"repro/internal/graph"
)

// Options selects the matcher variant at compile time.
type Options struct {
	// LabelFreq, when non-nil, selects CT-Index's tuned variant:
	// LabelFreq[l] is how often label l occurs in the data the query will
	// be run against (labels past the end count as absent). Query vertices
	// are then ordered rare-label-first so the search fails fast, and a
	// data vertex is a candidate for a query vertex only if, label by
	// label, it has at least as many neighbours as the query vertex does.
	// Semantics are identical either way; only order and pruning differ.
	LabelFreq []int
}

// labelNeed is one entry of a query vertex's neighbour-label multiset.
type labelNeed struct {
	label graph.Label
	count int32
}

// step is the compiled form of one depth of the search. It is kept small
// (the back and need lists are spans of arrays shared by all steps): a
// compiled query is a handful of cache lines.
type step struct {
	qv int32 // the query vertex matched at this depth
	// anchor is an already-ordered neighbour of qv: candidates for qv are
	// the neighbours of anchor's image, so the anchor edge holds by
	// construction. -1 starts a new connected component of the query
	// (candidates are all data vertices).
	anchor int32
	label  graph.Label
	degree int32
	// fwd counts qv's neighbours ordered after it. The order is fixed, so
	// the query side of VF2's lookahead rule is a constant.
	fwd int32
	// backs[backLo:backHi] lists qv's already-ordered neighbours other than
	// anchor: the only edges a candidate has to be probed for.
	backLo, backHi int32
	// needs[needLo:needHi] is qv's neighbour-label multiset (tuned only).
	needLo, needHi int32
}

// Prepared is a compiled query. It is immutable and safe for concurrent use.
type Prepared struct {
	steps []step
	backs []int32
	needs []labelNeed
	q     *graph.Graph
}

// Query returns the query the search was compiled from.
func (p *Prepared) Query() *graph.Graph { return p.q }

// Compile plans the search for q. The order is decided once, greedily,
// without looking at any data graph: each next vertex is the one with the
// most already-ordered neighbours, ties broken by degree (tuned: any vertex
// adjacent to the ordered set, rarest label first, then degree), so every
// vertex after the first of its component has an anchor.
func Compile(q *graph.Graph, opts Options) *Prepared {
	n := q.NumVertices()
	p := &Prepared{steps: make([]step, n), q: q}
	// One backing array: ordered-neighbour counts, then the back lists
	// (every edge lands in at most one of them).
	buf := make([]int32, n+q.NumEdges())
	conn := buf[:n]
	p.backs = buf[n:n]
	tuned := opts.LabelFreq != nil
	if tuned {
		p.needs = make([]labelNeed, 0, 2*q.NumEdges())
	}
	freq := func(v int32) int {
		if l := int(q.Label(v)); l >= 0 && l < len(opts.LabelFreq) {
			return opts.LabelFreq[l]
		}
		return 0
	}
	better := func(v, best int32) bool {
		if tuned {
			if a, b := conn[v] > 0, conn[best] > 0; a != b {
				return a
			}
			if a, b := freq(v), freq(best); a != b {
				return a < b
			}
		} else if conn[v] != conn[best] {
			return conn[v] > conn[best]
		}
		return q.Degree(v) > q.Degree(best)
	}
	const ordered = -1 // conn marker of vertices already in the order
	for d := range p.steps {
		best := int32(-1)
		for v := int32(0); int(v) < n; v++ {
			if conn[v] != ordered && (best < 0 || better(v, best)) {
				best = v
			}
		}
		conn[best] = ordered
		st := &p.steps[d]
		*st = step{qv: best, anchor: -1, label: q.Label(best), degree: int32(q.Degree(best))}
		st.backLo, st.needLo = int32(len(p.backs)), int32(len(p.needs))
		for _, w := range q.Neighbors(best) {
			switch {
			case conn[w] != ordered:
				conn[w]++
				st.fwd++
			case st.anchor < 0:
				st.anchor = w
			default:
				p.backs = append(p.backs, w)
			}
			if tuned {
				p.needs = addNeed(p.needs, int(st.needLo), q.Label(w))
			}
		}
		st.backHi, st.needHi = int32(len(p.backs)), int32(len(p.needs))
	}
	return p
}

// addNeed counts label l into the multiset needs[lo:].
func addNeed(needs []labelNeed, lo int, l graph.Label) []labelNeed {
	for i := lo; i < len(needs); i++ {
		if needs[i].label == l {
			needs[i].count++
			return needs
		}
	}
	return append(needs, labelNeed{l, 1})
}

// scratch is the working state of one search. coreQ (query vertex -> data
// vertex) is only ever read at vertices ordered before the current depth,
// so it is never cleared. coreG (data vertex -> mapped?) must be all -1
// when a search starts: grow fills new entries with -1 and extend restores
// every entry it sets on every exit path — exhaustion, first-match return,
// a yield that stops, cancellation — so a pooled scratch is handed on
// clean, whatever the sizes of the graphs it saw before.
type scratch struct {
	coreQ []int32
	coreG []int32

	p      *Prepared
	g      *graph.Graph
	labels []graph.Label
	comp   []int32 // when non-nil, only data vertices v with comp[v] == c are used
	c      int32
	yield  func([]int32) bool
	done   <-chan struct{}
	ticks  int
	found  bool

	// The bit kernel's state (see the package comment): rows are the data
	// graph's adjacency words, cands[d] the vertices that may take depth
	// d's query vertex by label (and comp), needs[i] the vertices carrying
	// the label of the compiled need i, and used the mapped data vertices.
	rows  []uint64
	cands []uint64
	needs []uint64
	used  uint64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func (s *scratch) grow(nq, ng int) {
	if len(s.coreQ) < nq {
		s.coreQ = make([]int32, nq)
	}
	if old := len(s.coreG); old < ng {
		s.coreG = append(s.coreG, make([]int32, ng-old)...)
		for i := old; i < ng; i++ {
			s.coreG[i] = -1
		}
	}
}

// Exists reports whether the compiled query is subgraph-isomorphic to g
// (first match wins). A cancelled ctx aborts the search with false.
func (p *Prepared) Exists(ctx context.Context, g *graph.Graph) bool {
	return p.run(ctx, g, nil, 0, nil)
}

// ExistsRestricted is Exists limited to the data vertices v with
// comp[v] == c. Grapes uses it to verify against one connected component.
func (p *Prepared) ExistsRestricted(ctx context.Context, g *graph.Graph, comp []int32, c int32) bool {
	return p.run(ctx, g, comp, c, nil)
}

// Run enumerates embeddings: yield receives each query->data mapping (valid
// only during the call) and returns false to stop. Run reports whether at
// least one embedding was found.
func (p *Prepared) Run(ctx context.Context, g *graph.Graph, yield func(mapping []int32) bool) bool {
	return p.run(ctx, g, nil, 0, yield)
}

func (p *Prepared) run(ctx context.Context, g *graph.Graph, comp []int32, c int32, yield func([]int32) bool) bool {
	s := scratchPool.Get().(*scratch)
	found := s.search(ctx, p, g, comp, c, yield)
	scratchPool.Put(s)
	return found
}

func (s *scratch) search(ctx context.Context, p *Prepared, g *graph.Graph, comp []int32, c int32, yield func([]int32) bool) bool {
	if len(p.steps) == 0 {
		// The empty query is contained in every graph.
		if yield != nil {
			yield(nil)
		}
		return true
	}
	if len(p.steps) > g.NumVertices() || p.q.NumEdges() > g.NumEdges() {
		return false
	}
	s.p, s.g, s.labels, s.comp, s.c, s.yield = p, g, g.Labels(), comp, c, yield
	s.done, s.ticks, s.found = ctx.Done(), 0, false
	if rows := g.AdjWords(); rows != nil {
		s.prepareBits(rows)
		s.matchBits(0)
	} else {
		s.grow(len(p.steps), g.NumVertices())
		s.match(0)
	}
	// Keep the arrays, drop what the run borrowed: a pooled scratch pins
	// no graph. (used is back at 0: matchBits clears every bit it sets.)
	s.p, s.g, s.labels, s.comp, s.yield, s.done, s.rows = nil, nil, nil, nil, nil, nil, nil
	return s.found
}

// prepareBits sets up the bit kernel for the graph whose adjacency words
// are rows: the per-depth label candidates and the per-need label masks.
func (s *scratch) prepareBits(rows []uint64) {
	p, g := s.p, s.g
	if len(s.coreQ) < len(p.steps) {
		s.coreQ = make([]int32, len(p.steps))
	}
	if cap(s.cands) < len(p.steps) {
		s.cands = make([]uint64, len(p.steps))
	}
	if cap(s.needs) < len(p.needs) {
		s.needs = make([]uint64, len(p.needs))
	}
	s.rows, s.cands, s.needs, s.used = rows, s.cands[:len(p.steps)], s.needs[:len(p.needs)], 0
	allowed := ^uint64(0)
	if s.comp != nil {
		allowed = 0
		for v := range rows {
			if s.comp[v] == s.c {
				allowed |= 1 << uint(v)
			}
		}
	}
	for d := range p.steps {
		s.cands[d] = g.LabelMask(p.steps[d].label) & allowed
	}
	for i, need := range p.needs {
		s.needs[i] = g.LabelMask(need.label)
	}
}

// matchBits is match on the bit kernel: it extends the partial mapping at
// depth and returns false to abort the whole search.
func (s *scratch) matchBits(depth int) bool {
	if depth == len(s.p.steps) {
		s.found = true
		return s.yield != nil && s.yield(s.coreQ[:len(s.p.steps)])
	}
	if s.done != nil {
		if s.ticks++; s.ticks&1023 == 0 {
			select {
			case <-s.done:
				return false
			default:
			}
		}
	}
	st := &s.p.steps[depth]
	cand := s.cands[depth] &^ s.used
	// A step without an anchor starts a query component and has no back
	// edges; otherwise every already-mapped neighbour bounds the set.
	if st.anchor >= 0 {
		cand &= s.rows[s.coreQ[st.anchor]]
	}
	for _, qw := range s.p.backs[st.backLo:st.backHi] {
		cand &= s.rows[s.coreQ[qw]]
	}
	for ; cand != 0; cand &= cand - 1 {
		gv := int32(bits.TrailingZeros64(cand))
		row := s.rows[gv]
		if bits.OnesCount64(row) < int(st.degree) || bits.OnesCount64(row&^s.used) < int(st.fwd) {
			continue
		}
		if !s.needsMet(st, row) {
			continue
		}
		s.coreQ[st.qv] = gv
		s.used |= 1 << uint(gv)
		ok := s.matchBits(depth + 1)
		s.used &^= 1 << uint(gv)
		if !ok {
			return false
		}
	}
	return true
}

// needsMet is the tuned neighbour-label test on the bit kernel: row, a
// candidate's adjacency word, has at least need.count neighbours of every
// label qv's neighbours carry.
func (s *scratch) needsMet(st *step, row uint64) bool {
	for i := st.needLo; i < st.needHi; i++ {
		if bits.OnesCount64(row&s.needs[i]) < int(s.p.needs[i].count) {
			return false
		}
	}
	return true
}

// match extends the partial mapping at depth. It returns false to abort
// the whole search.
func (s *scratch) match(depth int) bool {
	if depth == len(s.p.steps) {
		s.found = true
		// Without a yield the first match wins.
		return s.yield != nil && s.yield(s.coreQ[:len(s.p.steps)])
	}
	if s.done != nil {
		if s.ticks++; s.ticks&1023 == 0 {
			select {
			case <-s.done:
				return false
			default:
			}
		}
	}
	st := &s.p.steps[depth]
	// The label test runs here, ahead of the call: most pairs fail it.
	if st.anchor >= 0 {
		for _, gv := range s.g.Neighbors(s.coreQ[st.anchor]) {
			if s.labels[gv] == st.label && s.feasible(st, gv) && !s.extend(depth, st.qv, gv) {
				return false
			}
		}
		return true
	}
	for gv, l := range s.labels {
		if l == st.label && s.feasible(st, int32(gv)) && !s.extend(depth, st.qv, int32(gv)) {
			return false
		}
	}
	return true
}

func (s *scratch) extend(depth int, qv, gv int32) bool {
	s.coreQ[qv] = gv
	s.coreG[gv] = qv
	ok := s.match(depth + 1)
	s.coreG[gv] = -1
	return ok
}

// feasible applies the VF2 feasibility rules to mapping st.qv onto a data
// vertex gv of the same label, under subgraph monomorphism semantics.
func (s *scratch) feasible(st *step, gv int32) bool {
	if s.coreG[gv] >= 0 {
		return false
	}
	if s.comp != nil && s.comp[gv] != s.c {
		return false
	}
	nb := s.g.Neighbors(gv)
	if len(nb) < int(st.degree) {
		return false
	}
	for _, qw := range s.p.backs[st.backLo:st.backHi] {
		if !graph.SortedContains(nb, s.coreQ[qw]) {
			return false
		}
	}
	for _, need := range s.p.needs[st.needLo:st.needHi] {
		have := need.count
		for _, gw := range nb {
			if s.labels[gw] == need.label {
				if have--; have == 0 {
					break
				}
			}
		}
		if have > 0 {
			return false
		}
	}
	// Lookahead: gv needs at least as many unmapped neighbours as qv has
	// neighbours still to be ordered.
	if free := st.fwd; free > 0 {
		for _, gw := range nb {
			if s.coreG[gw] < 0 {
				if free--; free == 0 {
					break
				}
			}
		}
		if free > 0 {
			return false
		}
	}
	return true
}

// The functions below compile for a single use. Pipelines that test one
// query against many graphs call Compile once instead.

// Exists reports whether q is subgraph-isomorphic to g.
func Exists(q, g *graph.Graph) bool {
	return Compile(q, Options{}).Exists(context.Background(), g)
}

// ExistsTuned is Exists with the tuned variant, label frequencies taken
// from g itself.
func ExistsTuned(q, g *graph.Graph) bool {
	return Compile(q, Options{LabelFreq: LabelFreq(nil, g)}).Exists(context.Background(), g)
}

// LabelFreq adds g's label occurrences to freq, growing it as needed, and
// returns it: the input of Options.LabelFreq.
func LabelFreq(freq []int, g *graph.Graph) []int {
	if freq == nil {
		freq = []int{}
	}
	for _, l := range g.Labels() {
		if l < 0 {
			continue
		}
		for int(l) >= len(freq) {
			freq = append(freq, 0)
		}
		freq[l]++
	}
	return freq
}

// Count returns the number of embeddings of q in g, up to limit
// (limit <= 0 counts all).
func Count(q, g *graph.Graph, limit int) int {
	n := 0
	Compile(q, Options{}).Run(context.Background(), g, func([]int32) bool {
		n++
		return limit <= 0 || n < limit
	})
	return n
}

// FindOne returns one embedding (query vertex -> data vertex) or nil.
func FindOne(q, g *graph.Graph) []int32 {
	var out []int32
	Compile(q, Options{}).Run(context.Background(), g, func(mapping []int32) bool {
		out = append([]int32(nil), mapping...)
		return false
	})
	return out
}
