// Package gcode implements gCode (Zou, Chen, Yu, Lu, EDBT 2008): every
// vertex receives a signature built from exhaustively enumerated paths of
// bounded length — a bit-string of the labels seen on those paths, a
// bit-string of neighbor labels, and the top eigenvalues of the adjacency
// matrix of the vertex's level-N path tree. The per-graph combination of
// vertex signatures (the graph code) is kept in a sorted structure; queries
// are filtered in two phases: graph-code dominance first, then a
// vertex-signature matching test requiring every query vertex signature to
// be dominated by a distinct data vertex signature.
//
// gCode is one of the six indexed subgraph query processing methods
// compared in the reproduced paper (Katsarou, Ntarmos, Triantafillou,
// PVLDB 2015); register.go exposes it to the engine registry as "gcode".
package gcode

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/spectral"
	"repro/internal/subiso"
)

// Defaults from §4.1 of the paper: paths of up to size 2 for the signatures,
// top 2 eigenvalues, 32-bit label and neighbor bit-strings.
const (
	DefaultPathLen        = 2
	DefaultNumEigenvalues = 2
	signatureBits         = 32
	// eigenSlack absorbs numeric error in eigenvalue dominance comparisons.
	eigenSlack = 1e-9
)

// Options configures a gCode index.
type Options struct {
	// PathLen is the level of the per-vertex path tree (paper: 2).
	PathLen int
	// NumEigenvalues is the number of top eigenvalues kept (paper: 2).
	NumEigenvalues int
	// Storage selects how a persisted index is held when restored:
	// core.StorageHeap (default) decodes eagerly, core.StorageMmap keeps
	// the v2 container mapped, scans summaries in place, and materializes
	// vertex signatures lazily.
	Storage string
}

func (o *Options) fill() {
	if o.PathLen <= 0 {
		o.PathLen = DefaultPathLen
	}
	if o.NumEigenvalues <= 0 {
		o.NumEigenvalues = DefaultNumEigenvalues
	}
}

// vertexSignature is the per-vertex code.
type vertexSignature struct {
	label     graph.Label
	labelBits uint32 // labels on paths of length <= PathLen from the vertex
	nbrBits   uint32 // labels of direct neighbors
	degree    int32
	eig       []float64 // top eigenvalues of the level-N path tree
}

// dominates reports whether data signature d can host query signature q:
// same label, bit containment, degree and spectral dominance. Spectral
// dominance is sound because the query's path tree embeds into the data
// vertex's path tree, and adding rows/columns to a nonnegative symmetric
// matrix cannot decrease its top eigenvalues (Cauchy interlacing).
func (d *vertexSignature) dominatesQ(q *vertexSignature) bool {
	if d.label != q.label || d.degree < q.degree {
		return false
	}
	if q.labelBits&^d.labelBits != 0 || q.nbrBits&^d.nbrBits != 0 {
		return false
	}
	for i := range q.eig {
		if q.eig[i] > d.eig[i]+eigenSlack {
			return false
		}
	}
	return true
}

// graphCode is the per-graph aggregation used in filtering phase 1.
type graphCode struct {
	id        graph.ID
	nVertices int32
	nEdges    int32
	labelBits uint32
	nbrBits   uint32
	maxEig    []float64 // component-wise max over vertex signatures
	sigs      []vertexSignature
}

// codeSummary is the phase-1 slice of a graph code: everything dominance
// filtering needs, without the vertex signatures. Heap codes view their
// graphCode fields directly; lazy codes decode it in place from the
// mapped summary table.
type codeSummary struct {
	id        graph.ID
	nVertices int32
	nEdges    int32
	labelBits uint32
	nbrBits   uint32
	maxEig    []float64
}

// dominatesQ is the phase-1 test.
func (d *codeSummary) dominatesQ(q *graphCode) bool {
	if d.nVertices < q.nVertices || d.nEdges < q.nEdges {
		return false
	}
	if q.labelBits&^d.labelBits != 0 || q.nbrBits&^d.nbrBits != 0 {
		return false
	}
	for i := range q.maxEig {
		if q.maxEig[i] > d.maxEig[i]+eigenSlack {
			return false
		}
	}
	return true
}

// Index is a built gCode index. Create with New, then Build.
type Index struct {
	opts  Options
	codes []graphCode // sorted by (labelBits, id): the "balanced search tree"
	// byID holds the positions in codes in ascending graph id order, the
	// order candidates stream in. It depends on the index alone, so it is
	// kept with codes (setCodes, maintenance), not sorted per query.
	byID []int32
	// lazy, when non-nil, backs the code table with a mapped v2 container
	// (storage=mmap): codes is nil and the table resolves through view.
	lazy  *lazyCodes
	built bool
}

// setCodes installs a code table sorted in the index's order, and its id
// order.
func (ix *Index) setCodes(codes []graphCode) {
	ix.codes = codes
	ix.byID = idOrder(len(codes), func(i int) graph.ID { return codes[i].id })
}

// idOrder returns the positions of n codes, whose graph ids id gives,
// sorted by graph id.
func idOrder(n int, id func(int) graph.ID) []int32 {
	byID := make([]int32, n)
	for i := range byID {
		byID[i] = int32(i)
	}
	slices.SortFunc(byID, func(a, b int32) int { return cmp.Compare(id(int(a)), id(int(b))) })
	return byID
}

// idRank returns the first position in id order whose graph id is at
// least id.
func (ix *Index) idRank(id graph.ID) int {
	return sort.Search(len(ix.byID), func(k int) bool { return ix.codes[ix.byID[k]].id >= id })
}

// codeView is a single-query read view over the code table, uniform
// across heap and lazy storage. Not safe for concurrent use (the lazy
// form reuses an eigenvalue scratch buffer); each query takes its own.
type codeView struct {
	codes []graphCode // heap form
	lz    *lazyCodes  // lazy form
	eig   []float64   // lazy summary decode scratch
	byID  []int32     // code positions in ascending graph id order
}

// view captures the current storage form. For a lazy index this fetches
// the mapped sections once (under the store lock), so the per-code
// accessors below need no further synchronization to read them.
func (ix *Index) view() (codeView, error) {
	if lz := ix.lazy; lz != nil {
		lz.mu.Lock()
		err := lz.fetchSections()
		lz.mu.Unlock()
		if err != nil {
			return codeView{}, err
		}
		return codeView{lz: lz, eig: make([]float64, lz.numEig), byID: lz.byID}, nil
	}
	return codeView{codes: ix.codes, byID: ix.byID}, nil
}

// summary returns code i's phase-1 fields. The lazy form decodes into the
// view's scratch buffer, valid until the next summary call.
func (v *codeView) summary(i int) codeSummary {
	if v.lz != nil {
		return v.lz.summaryAt(i, v.eig)
	}
	gc := &v.codes[i]
	return codeSummary{
		id: gc.id, nVertices: gc.nVertices, nEdges: gc.nEdges,
		labelBits: gc.labelBits, nbrBits: gc.nbrBits, maxEig: gc.maxEig,
	}
}

// sigs returns code i's vertex signatures, materializing them on first
// touch in the lazy form.
func (v *codeView) sigs(i int) ([]vertexSignature, error) {
	if v.lz != nil {
		return v.lz.sigsAt(i)
	}
	return v.codes[i].sigs, nil
}

// New returns an unbuilt gCode index.
func New(opts Options) *Index {
	opts.fill()
	return &Index{opts: opts}
}

// Name implements core.Method.
func (ix *Index) Name() string { return "gCode" }

// Build implements core.Method.
func (ix *Index) Build(ctx context.Context, ds *graph.Dataset) error {
	codes := make([]graphCode, 0, ds.NumAlive())
	for _, g := range ds.Graphs {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !ds.Alive(g.ID()) {
			continue // tombstoned slots index nothing
		}
		codes = append(codes, ix.encode(g))
	}
	sort.Slice(codes, func(a, b int) bool { return codeLess(&codes[a], &codes[b]) })
	ix.setCodes(codes)
	ix.built = true
	return nil
}

func labelBit(l graph.Label) uint32 { return 1 << (uint32(l) % signatureBits) }

// encode computes the graph code of g.
func (ix *Index) encode(g *graph.Graph) graphCode {
	n := g.NumVertices()
	gc := graphCode{
		id:        g.ID(),
		nVertices: int32(n),
		nEdges:    int32(g.NumEdges()),
		maxEig:    make([]float64, ix.opts.NumEigenvalues),
		sigs:      make([]vertexSignature, n),
	}
	for v := int32(0); int(v) < n; v++ {
		sig := ix.vertexSig(g, v)
		gc.sigs[v] = sig
		gc.labelBits |= labelBit(sig.label)
		gc.nbrBits |= sig.nbrBits
		for i, e := range sig.eig {
			if e > gc.maxEig[i] {
				gc.maxEig[i] = e
			}
		}
	}
	return gc
}

// vertexSig computes the signature of one vertex: the label/neighbor
// bit-strings over paths of length <= PathLen, and the top eigenvalues of
// the level-PathLen path tree rooted at the vertex.
func (ix *Index) vertexSig(g *graph.Graph, v int32) vertexSignature {
	sig := vertexSignature{
		label:  g.Label(v),
		degree: int32(g.Degree(v)),
		eig:    make([]float64, ix.opts.NumEigenvalues),
	}
	sig.labelBits |= labelBit(g.Label(v))
	for _, w := range g.Neighbors(v) {
		sig.nbrBits |= labelBit(g.Label(w))
	}

	// Build the level-N path tree: nodes are simple paths from v; children
	// extend by one edge. Collect the tree's adjacency matrix.
	type node struct {
		vertex int32
		parent int
	}
	tree := []node{{vertex: v, parent: -1}}
	onPath := make([]bool, g.NumVertices())
	var walk func(cur int32, depth int, parent int, path []int32)
	walk = func(cur int32, depth int, parent int, path []int32) {
		sig.labelBits |= labelBit(g.Label(cur))
		if depth == ix.opts.PathLen {
			return
		}
		for _, w := range g.Neighbors(cur) {
			if onPath[w] {
				continue
			}
			tree = append(tree, node{vertex: w, parent: parent})
			child := len(tree) - 1
			onPath[w] = true
			walk(w, depth+1, child, append(path, w))
			onPath[w] = false
		}
	}
	onPath[v] = true
	walk(v, 0, 0, []int32{v})
	onPath[v] = false

	m := spectral.NewSymmetric(len(tree))
	for i := 1; i < len(tree); i++ {
		m.Set(i, tree[i].parent, 1)
	}
	copy(sig.eig, m.TopEigenvalues(ix.opts.NumEigenvalues))
	// Clamp tiny negatives from numeric noise: path trees are bipartite,
	// their spectra are symmetric, top eigenvalues are >= 0.
	for i, e := range sig.eig {
		if e < 0 && e > -1e-9 {
			sig.eig[i] = 0
		} else if math.IsNaN(e) {
			sig.eig[i] = 0
		}
	}
	return sig
}

// scanChunk is the number of graph codes the lazy producer tests per
// emitted chunk.
const scanChunk = 512

// analysis is gCode's analysis of a query (Analyze): its graph code and
// its compiled matcher.
type analysis struct {
	code graphCode
	prep *subiso.Prepared
}

// Analyze implements core.Method: the query's graph code and the compiled
// query.
func (ix *Index) Analyze(q *graph.Graph) core.Analysis {
	return &analysis{code: ix.encode(q), prep: subiso.Compile(q, subiso.Options{})}
}

// Probe implements core.Method: phase 1 graph-code dominance, phase 2
// vertex-signature bipartite matching, verified against whole graphs. The
// two-phase filter runs lazily over windows of the code table in its id
// order (the table itself is sorted by (labelBits, id)), so candidates
// stream out in ascending ID order.
func (ix *Index) Probe(ctx context.Context, ds *graph.Dataset, a core.Analysis) (core.QueryPlan, error) {
	if !ix.built {
		return nil, core.ErrNotBuilt
	}
	an, ok := a.(*analysis)
	if !ok {
		return nil, core.ErrForeignAnalysis
	}
	v, err := ix.view()
	if err != nil {
		return nil, err
	}
	qc := &an.code
	chunks := func(yield func(graph.IDSet) bool) {
		for lo := 0; lo < len(v.byID); lo += scanChunk {
			hi := min(lo+scanChunk, len(v.byID))
			var chunk graph.IDSet
			for _, pos := range v.byID[lo:hi] {
				s := v.summary(int(pos))
				if !s.dominatesQ(qc) {
					continue
				}
				// A signature decode failure mid-stream conservatively keeps
				// the candidate: the filter may produce false positives
				// (verification prunes them), never false negatives.
				if sigs, err := v.sigs(int(pos)); err == nil && !signatureMatch(qc.sigs, sigs) {
					continue
				}
				chunk = append(chunk, s.id)
			}
			if len(chunk) > 0 && !yield(chunk) {
				return
			}
		}
	}
	return core.WholeGraphPlan(ctx, ds, an.prep, chunks), nil
}

// signatureMatch reports whether every query vertex signature can be
// assigned a distinct dominating data vertex signature — a maximum bipartite
// matching (Kuhn's augmenting paths). If the query embeds in the data graph,
// a perfect matching exists, so failure proves non-containment and the test
// produces no false negatives.
func signatureMatch(qs, gs []vertexSignature) bool {
	if len(qs) > len(gs) {
		return false
	}
	// adjacency: query vertex -> candidate data vertices
	adj := make([][]int32, len(qs))
	for i := range qs {
		for j := range gs {
			if gs[j].dominatesQ(&qs[i]) {
				adj[i] = append(adj[i], int32(j))
			}
		}
		if len(adj[i]) == 0 {
			return false
		}
	}
	matchG := make([]int32, len(gs))
	for i := range matchG {
		matchG[i] = -1
	}
	var try func(int, []bool) bool
	try = func(qi int, visited []bool) bool {
		for _, gj := range adj[qi] {
			if visited[gj] {
				continue
			}
			visited[gj] = true
			if matchG[gj] < 0 || try(int(matchG[gj]), visited) {
				matchG[gj] = int32(qi)
				return true
			}
		}
		return false
	}
	for i := range qs {
		visited := make([]bool, len(gs))
		if !try(i, visited) {
			return false
		}
	}
	return true
}

// SizeBytes implements core.Method. A lazily-opened index reports only
// the materialized signature blocks.
func (ix *Index) SizeBytes() int64 {
	if ix.lazy != nil {
		return ix.lazy.residentBytes()
	}
	var sz int64
	for i := range ix.codes {
		gc := &ix.codes[i]
		sz += 40 + int64(len(gc.maxEig))*8
		sz += int64(len(gc.sigs)) * (16 + int64(len(gc.maxEig))*8)
	}
	return sz
}
