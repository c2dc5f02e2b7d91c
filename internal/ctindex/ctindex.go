// Package ctindex implements CT-Index (Klein, Kriege, Mutzel, ICDE 2011):
// for every graph, all subtrees and simple cycles up to a size limit are
// exhaustively enumerated; the canonical label of each feature is hashed into
// a fixed-size bit-array fingerprint. Filtering is a bitwise subset test of
// the query fingerprint against each graph fingerprint, and verification uses
// a tuned subgraph isomorphism matcher — the combination the paper credits
// for CT-Index's fast query processing despite its weak filtering power.
//
// CT-Index is one of the six indexed subgraph query processing methods
// compared in the reproduced paper (Katsarou, Ntarmos, Triantafillou,
// PVLDB 2015); register.go exposes it to the engine registry as "ctindex".
package ctindex

import (
	"context"
	"hash/fnv"

	"repro/internal/bitset"
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/graph"
	"repro/internal/subiso"
)

// Defaults from §4.1 of the paper: 4096-bit fingerprints over trees and
// cycles of up to 4 edges (the original CT-Index paper used 6/8; the study
// adopts 4/4 after Grapes's finding that it trades a little filtering power
// for much lower times).
const (
	DefaultFingerprintBits = 4096
	DefaultMaxTreeSize     = 4
	DefaultMaxCycleSize    = 4
	// hashFunctions is the number of bits set per feature (Bloom-style).
	hashFunctions = 2
)

// Options configures a CT-Index.
type Options struct {
	FingerprintBits int
	MaxTreeSize     int // maximum tree feature size in edges
	MaxCycleSize    int // maximum cycle feature size in edges
}

func (o *Options) fill() {
	if o.FingerprintBits <= 0 {
		o.FingerprintBits = DefaultFingerprintBits
	}
	if o.MaxTreeSize <= 0 {
		o.MaxTreeSize = DefaultMaxTreeSize
	}
	if o.MaxCycleSize <= 0 {
		o.MaxCycleSize = DefaultMaxCycleSize
	}
}

// Index is a built CT-Index. Create with New, then Build.
type Index struct {
	opts      Options
	fps       []*bitset.Bitset // fingerprint per graph
	labelFreq []int            // label occurrences in ds, for Analyze's matcher
	built     bool
}

// New returns an unbuilt CT-Index.
func New(opts Options) *Index {
	opts.fill()
	return &Index{opts: opts}
}

// Name implements core.Method.
func (ix *Index) Name() string { return "CT-Index" }

// Build implements core.Method.
func (ix *Index) Build(ctx context.Context, ds *graph.Dataset) error {
	ix.fps = make([]*bitset.Bitset, ds.Len())
	for i, g := range ds.Graphs {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !ds.Alive(graph.ID(i)) {
			continue // tombstoned slots keep a nil fingerprint
		}
		ix.fps[i] = ix.fingerprint(g)
	}
	ix.labelFreq = countLabels(ds)
	ix.built = true
	return nil
}

// AddGraphToIndex implements core.Method: g's fingerprint fills its slot,
// and its labels join the frequencies the matcher orders by.
func (ix *Index) AddGraphToIndex(g *graph.Graph) error {
	if !ix.built {
		return core.ErrNotBuilt
	}
	if n := int(g.ID()) + 1; n > len(ix.fps) {
		ix.fps = append(ix.fps, make([]*bitset.Bitset, n-len(ix.fps))...)
	}
	ix.fps[g.ID()] = ix.fingerprint(g)
	ix.labelFreq = subiso.LabelFreq(ix.labelFreq, g)
	return nil
}

// RemoveGraphFromIndex implements core.Method: the slot drops its
// fingerprint, as a tombstoned slot holds none. The label frequencies keep
// the graph's labels: they order the matcher and never decide an answer.
func (ix *Index) RemoveGraphFromIndex(id graph.ID) error {
	if !ix.built {
		return core.ErrNotBuilt
	}
	if int(id) < len(ix.fps) {
		ix.fps[id] = nil
	}
	return nil
}

// fingerprint enumerates the tree and cycle features of g and hashes their
// canonical labels into a fresh fingerprint. The subtree canonization runs
// on canon's allocation-free fast path: this loop visits millions of edge
// sets on dense graphs and dominates CT-Index's build time.
func (ix *Index) fingerprint(g *graph.Graph) *bitset.Bitset {
	fp := bitset.New(ix.opts.FingerprintBits)
	ix.setFeatures(fp, g)
	return fp
}

// setFeatures sets the bits of g's features in fp.
func (ix *Index) setFeatures(fp *bitset.Bitset, g *graph.Graph) {
	es := features.NewEdgeSet(g)
	scratch := canon.NewTreeScratch(ix.opts.MaxTreeSize)
	edgeBuf := make([][2]int32, 0, ix.opts.MaxTreeSize)
	labelOf := func(v int32) graph.Label { return g.Label(v) }
	es.VisitConnectedEdgeSets(ix.opts.MaxTreeSize, func(edgeIDs []int) bool {
		edgeBuf = edgeBuf[:0]
		for _, id := range edgeIDs {
			edgeBuf = append(edgeBuf, es.Edge(id))
		}
		key, ok := scratch.TreeKeyEdges(edgeBuf, labelOf)
		if ok {
			ix.setBits(fp, string(key))
		}
		return true
	})
	var labelBuf []graph.Label
	features.VisitCycles(g, ix.opts.MaxCycleSize, func(vs []int32) bool {
		labelBuf = features.CycleLabels(g, vs, labelBuf)
		ix.setBits(fp, string(canon.CycleKey(labelBuf)))
		return true
	})
}

// setBits hashes the canonical key into hashFunctions bit positions.
func (ix *Index) setBits(fp *bitset.Bitset, key string) {
	h := fnv.New64a()
	h.Write([]byte(key))
	v := h.Sum64()
	n := uint64(ix.opts.FingerprintBits)
	for k := 0; k < hashFunctions; k++ {
		fp.Set(int(v % n))
		// Derive the next position by mixing (splitmix-style step).
		v ^= v >> 33
		v *= 0xff51afd7ed558ccd
		v ^= v >> 33
	}
}

// scanChunk is the number of fingerprint slots the lazy producer tests per
// emitted chunk: the subset tests stay cache-friendly while a limit-1
// stream touches a sliver of the table.
const scanChunk = 2048

// analysis is CT-Index's analysis of a query (Analyze): its fingerprint
// and its matcher. The matcher is the tuned variant, its rarity order
// driven by the analysing index's label frequencies — the one analysis
// that reads an index. Another index of the spec probing it matches in
// that order: a search's speed changes, never its answer.
type analysis struct {
	fp   bitset.Bitset
	prep *subiso.Prepared
}

// Analyze implements core.Method: the query fingerprint and the tuned
// matcher.
func (ix *Index) Analyze(q *graph.Graph) core.Analysis {
	a := &analysis{
		fp:   bitset.Make(ix.opts.FingerprintBits),
		prep: subiso.Compile(q, subiso.Options{LabelFreq: ix.labelFreq}),
	}
	ix.setFeatures(&a.fp, q)
	return a
}

// Probe implements core.Method: graphs whose fingerprint covers the
// query's, verified by the analysis's matcher. The per-graph subset tests
// run lazily, a window of fingerprint slots per chunk, so an
// early-terminated stream never scans the whole table.
func (ix *Index) Probe(ctx context.Context, ds *graph.Dataset, a core.Analysis) (core.QueryPlan, error) {
	if !ix.built {
		return nil, core.ErrNotBuilt
	}
	an, ok := a.(*analysis)
	if !ok {
		return nil, core.ErrForeignAnalysis
	}
	qfp, fps := &an.fp, ix.fps
	chunks := func(yield func(graph.IDSet) bool) {
		for lo := 0; lo < len(fps); lo += scanChunk {
			hi := min(lo+scanChunk, len(fps))
			var chunk graph.IDSet
			for i := lo; i < hi; i++ {
				if fps[i] == nil {
					continue // tombstoned slot
				}
				if qfp.IsSubsetOf(fps[i]) {
					chunk = append(chunk, graph.ID(i))
				}
			}
			if len(chunk) > 0 && !yield(chunk) {
				return
			}
		}
	}
	return core.WholeGraphPlan(ctx, ds, an.prep, chunks), nil
}

// countLabels tallies label occurrences over the live graphs of ds.
func countLabels(ds *graph.Dataset) []int {
	freq := []int{}
	for _, g := range ds.Graphs {
		if ds.Alive(g.ID()) {
			freq = subiso.LabelFreq(freq, g)
		}
	}
	return freq
}

// SizeBytes implements core.Method: CT-Index stores one fixed-size
// fingerprint per graph.
func (ix *Index) SizeBytes() int64 {
	var sz int64
	for _, fp := range ix.fps {
		if fp != nil {
			sz += fp.SizeBytes()
		}
	}
	return sz
}
