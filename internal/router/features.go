// Package router is the adaptive decision-making layer above the engine
// stack: a Multi engine that co-builds several method indexes over one
// dataset and routes every query to the method predicted cheapest for it.
//
// The paper's headline finding is that no single indexed subgraph query
// method wins everywhere — the best method flips with dataset density,
// label distribution, and query size and shape. Multi operationalizes that
// conclusion: per query it extracts a cheap structural feature vector,
// consults a per-feature-bucket cost model learned online from observed
// latencies (falling back to static heuristics distilled from the paper's
// figures while a bucket is cold), and serves the query through the chosen
// method's index. A race policy runs the top two predictions concurrently
// and cancels the loser. Because every method's filter-and-verify pipeline
// returns the exact answer set, routing never changes answers — only
// latency.
package router

import (
	"fmt"

	"repro/internal/graph"
)

// Shape classifies a query's structure — the paper's figure 4 analysis
// shows query shape (paths vs trees vs cyclic subgraphs) shifting which
// method's features filter best.
type Shape int8

// Query shapes, from most to least restricted.
const (
	// ShapePath: every component is a simple path (max degree <= 2, no
	// cycles).
	ShapePath Shape = iota
	// ShapeTree: acyclic but not all paths (some vertex branches).
	ShapeTree
	// ShapeCyclic: at least one cycle somewhere.
	ShapeCyclic
)

func (s Shape) String() string {
	switch s {
	case ShapePath:
		return "path"
	case ShapeTree:
		return "tree"
	case ShapeCyclic:
		return "cyclic"
	}
	return fmt.Sprintf("Shape(%d)", int8(s))
}

// Features is the cheap per-query feature vector routing keys on. Every
// field is computable in one pass over the query graph plus O(1) lookups
// into the dataset label-frequency table — far below the cost of even the
// cheapest filter stage.
type Features struct {
	Vertices   int
	Edges      int
	Components int
	// Cyclomatic is the cycle-space dimension |E| - |V| + components: 0 for
	// forests, >= 1 as soon as any cycle exists.
	Cyclomatic int
	MaxDegree  int
	Shape      Shape
	// MinLabelFreq is the dataset frequency (fraction of dataset graphs
	// containing the label) of the query's rarest label. A rare label means
	// every method's candidate set is small, so the cheapest filter wins.
	MinLabelFreq float64
	// AvgLabelFreq is the mean dataset frequency over the query's vertices.
	AvgLabelFreq float64
}

// Extractor computes query features against one dataset's label
// statistics. It is safe for concurrent readers; the mutation hooks make
// it an engine.Maintainer of the router's Store, which calls them under
// its write lock, while the router extracts under its read lock.
type Extractor struct {
	freq   []float64 // label -> fraction of live dataset graphs containing it
	counts []int     // label -> live graphs containing it
	graphs int       // live graphs
}

// NewExtractor scans ds once and returns an extractor bound to its label
// distribution. Only live graphs count: a label whose last carrier was
// tombstoned classifies as rare again, and frequencies are fractions of
// the live population (the router's Store refreshes its extractor on every
// mutation so this snapshot tracks the dataset).
func NewExtractor(ds *graph.Dataset) *Extractor {
	e := &Extractor{graphs: ds.NumAlive()}
	maxLabel := ds.MaxLabel()
	if maxLabel < 0 {
		return e
	}
	e.counts = make([]int, int(maxLabel)+1)
	for _, g := range ds.Graphs {
		if !ds.Alive(g.ID()) {
			continue
		}
		for _, l := range g.DistinctLabels() {
			e.counts[l]++
		}
	}
	e.recompute()
	return e
}

// Added implements engine.Maintainer: one added graph joins the label
// statistics — O(graph), so a router mutation never rescans the dataset.
func (e *Extractor) Added(g *graph.Graph) error {
	for _, l := range g.DistinctLabels() {
		for int(l) >= len(e.counts) {
			e.counts = append(e.counts, 0)
		}
		e.counts[l]++
	}
	e.graphs++
	e.recompute()
	return nil
}

// Removed implements engine.Maintainer: one removed graph leaves the label
// statistics; a label whose last carrier leaves classifies as rarest
// again.
func (e *Extractor) Removed(g *graph.Graph) error {
	for _, l := range g.DistinctLabels() {
		if int(l) < len(e.counts) && e.counts[l] > 0 {
			e.counts[l]--
		}
	}
	if e.graphs > 0 {
		e.graphs--
	}
	e.recompute()
	return nil
}

// Compact implements engine.Maintainer: the statistics hold no file.
func (e *Extractor) Compact() {}

// recompute rebuilds the derived frequency table from the counts —
// O(labels), far below any scan of the graphs.
func (e *Extractor) recompute() {
	if len(e.freq) != len(e.counts) {
		e.freq = make([]float64, len(e.counts))
	}
	for l, c := range e.counts {
		if e.graphs > 0 {
			e.freq[l] = float64(c) / float64(e.graphs)
		} else {
			e.freq[l] = 0
		}
	}
}

// labelFreq returns the dataset frequency of l; labels the dataset never
// uses have frequency 0.
func (e *Extractor) labelFreq(l graph.Label) float64 {
	if int(l) < 0 || int(l) >= len(e.freq) {
		return 0
	}
	return e.freq[l]
}

// Extract computes the feature vector of q.
func (e *Extractor) Extract(q *graph.Graph) Features {
	f := Features{
		Vertices:     q.NumVertices(),
		Edges:        q.NumEdges(),
		MinLabelFreq: 1,
	}
	if f.Vertices == 0 {
		f.MinLabelFreq = 0
		return f
	}
	var freqSum float64
	for v := int32(0); int(v) < f.Vertices; v++ {
		if d := q.Degree(v); d > f.MaxDegree {
			f.MaxDegree = d
		}
		lf := e.labelFreq(q.Label(v))
		freqSum += lf
		if lf < f.MinLabelFreq {
			f.MinLabelFreq = lf
		}
	}
	f.AvgLabelFreq = freqSum / float64(f.Vertices)
	f.Components = len(q.ConnectedComponents())
	f.Cyclomatic = f.Edges - f.Vertices + f.Components
	switch {
	case f.Cyclomatic > 0:
		f.Shape = ShapeCyclic
	case f.MaxDegree > 2:
		f.Shape = ShapeTree
	default:
		f.Shape = ShapePath
	}
	return f
}

// Bucket is the coarse feature key the cost model aggregates observations
// under: query size class x shape x label rarity class — 36 cells, few
// enough that each accumulates observations quickly under real traffic,
// many enough to separate the regimes where the paper's winners flip.
type Bucket struct {
	Size   int8  `json:"size"`   // 0: <=4 edges, 1: <=8, 2: <=16, 3: larger
	Shape  Shape `json:"shape"`  // path / tree / cyclic
	Rarity int8  `json:"rarity"` // 0: rare (<0.25), 1: mid (<0.75), 2: common
}

// Bucket coarsens the feature vector into its cost-model cell.
func (f Features) Bucket() Bucket {
	b := Bucket{Shape: f.Shape}
	switch {
	case f.Edges <= 4:
		b.Size = 0
	case f.Edges <= 8:
		b.Size = 1
	case f.Edges <= 16:
		b.Size = 2
	default:
		b.Size = 3
	}
	switch {
	case f.MinLabelFreq < 0.25:
		b.Rarity = 0
	case f.MinLabelFreq < 0.75:
		b.Rarity = 1
	default:
		b.Rarity = 2
	}
	return b
}

// String renders the bucket compactly for stats keys: "s2/tree/r1".
func (b Bucket) String() string {
	return fmt.Sprintf("s%d/%s/r%d", b.Size, b.Shape, b.Rarity)
}
