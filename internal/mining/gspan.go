// Package mining implements gSpan-style frequent subgraph mining over a
// graph dataset (Yan & Han, ICDM 2002), the feature-extraction engine of the
// frequent-mining indexing methods: gIndex mines general subgraphs, Tree+Δ
// mines subtrees (gSpan restricted to forward extensions enumerates exactly
// the trees).
//
// Patterns are enumerated by rightmost-path extension of minimum DFS codes,
// with embedding (projection) lists carried along so support counting and
// extension discovery never re-run subgraph isomorphism. Non-minimal codes
// are pruned via the canonical-code check, so every pattern is emitted
// exactly once, parents before children.
package mining

import (
	"context"
	"errors"
	"math"
	"sort"

	"repro/internal/dfscode"
	"repro/internal/graph"
)

// Config controls a mining run.
type Config struct {
	// MinSupportRatio is the fraction of dataset graphs that must contain a
	// pattern for it to be frequent (paper: 0.1 for gIndex and Tree+Δ).
	MinSupportRatio float64
	// MaxEdges bounds the pattern size in edges (paper: 10).
	MaxEdges int
	// TreesOnly restricts mining to acyclic patterns (Tree+Δ).
	TreesOnly bool
	// MaxPatterns aborts the run with ErrPatternBudget after emitting this
	// many patterns (0 = unlimited). It is a safety valve for stress tests;
	// the paper's analogue is the 8-hour experiment timeout.
	MaxPatterns int
}

// ErrPatternBudget is returned by Mine when Config.MaxPatterns runs out:
// the run stopped on its pattern budget, not on a deadline.
var ErrPatternBudget = errors.New("mining: pattern budget exhausted")

// Pattern is one frequent pattern discovered by Mine.
type Pattern struct {
	// Code is the minimum DFS code of the pattern.
	Code dfscode.Code
	// Support lists the dataset graphs containing the pattern (sorted).
	Support graph.IDSet
	// Parent is the pattern this one was grown from (one edge smaller),
	// or nil for single-edge patterns.
	Parent *Pattern
}

// SupportRatio returns |Support| / n for a dataset of n graphs.
func (p *Pattern) SupportRatio(n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(len(p.Support)) / float64(n)
}

// embedding is one occurrence of a pattern: the graph and the pattern-vertex
// to graph-vertex mapping.
type embedding struct {
	gid graph.ID
	m   []int32
}

// Mine enumerates all frequent patterns of ds under cfg, invoking fn for
// each in DFS (parent-before-child) order. fn returning false stops the
// pattern's expansion but continues with its siblings; use ctx to abort the
// whole run.
func Mine(ctx context.Context, ds *graph.Dataset, cfg Config, fn func(p *Pattern) bool) error {
	if cfg.MaxEdges <= 0 {
		cfg.MaxEdges = 10
	}
	minSup := int(math.Ceil(cfg.MinSupportRatio * float64(ds.NumAlive())))
	if minSup < 1 {
		minSup = 1
	}
	m := &miner{ds: ds, cfg: cfg, minSup: minSup, fn: fn, ctx: ctx}
	return m.run()
}

type miner struct {
	ds      *graph.Dataset
	cfg     Config
	minSup  int
	fn      func(*Pattern) bool
	ctx     context.Context
	emitted int
}

// extGroup accumulates the embeddings of one extension entry.
type extGroup struct {
	entry dfscode.Entry
	embs  []embedding
}

func (m *miner) run() error {
	// Seed: all frequent single-edge patterns, grouped by (0,1,li,lj) with
	// li <= lj so each undirected edge instance appears once per valid
	// orientation of the code entry.
	seeds := make(map[dfscode.Entry]*extGroup)
	for _, g := range m.ds.Graphs {
		if err := m.ctx.Err(); err != nil {
			return err
		}
		if !m.ds.Alive(g.ID()) {
			continue // tombstoned graphs seed no embeddings
		}
		for _, e := range g.Edges() {
			lu, lv := g.Label(e[0]), g.Label(e[1])
			orients := [][2]int32{{e[0], e[1]}}
			if lu != lv {
				if lu > lv {
					orients[0] = [2]int32{e[1], e[0]}
				}
			} else {
				orients = append(orients, [2]int32{e[1], e[0]})
			}
			for _, o := range orients {
				ent := dfscode.Entry{I: 0, J: 1, LI: g.Label(o[0]), LJ: g.Label(o[1])}
				grp := seeds[ent]
				if grp == nil {
					grp = &extGroup{entry: ent}
					seeds[ent] = grp
				}
				grp.embs = append(grp.embs, embedding{gid: g.ID(), m: []int32{o[0], o[1]}})
			}
		}
	}
	ordered := make([]*extGroup, 0, len(seeds))
	for _, grp := range seeds {
		ordered = append(ordered, grp)
	}
	sort.Slice(ordered, func(a, b int) bool {
		return dfscode.Compare(ordered[a].entry, ordered[b].entry) < 0
	})
	for _, grp := range ordered {
		sup := supportOf(grp.embs)
		if len(sup) < m.minSup {
			continue
		}
		p := &Pattern{Code: dfscode.Code{grp.entry}, Support: sup}
		if err := m.grow(p, grp.embs); err != nil {
			return err
		}
	}
	return nil
}

func supportOf(embs []embedding) graph.IDSet {
	var out graph.IDSet
	var prev graph.ID = -1
	// Embeddings are produced in graph order, so support comes out sorted.
	for _, e := range embs {
		if e.gid != prev {
			out = append(out, e.gid)
			prev = e.gid
		}
	}
	return out
}

// grow emits p and recursively extends it.
func (m *miner) grow(p *Pattern, embs []embedding) error {
	if err := m.ctx.Err(); err != nil {
		return err
	}
	m.emitted++
	if m.cfg.MaxPatterns > 0 && m.emitted > m.cfg.MaxPatterns {
		return ErrPatternBudget
	}
	if !m.fn(p) || len(p.Code) >= m.cfg.MaxEdges {
		return nil
	}

	// Pattern-side structures for extension generation.
	rmPath := rightmostPath(p.Code)
	rm := rmPath[0]
	nVerts := int32(p.Code.NumVertices())
	patGraph := p.Code.Graph()

	groups := make(map[dfscode.Entry]*extGroup)
	addExt := func(ent dfscode.Entry, emb embedding, newVertex int32) {
		grp := groups[ent]
		if grp == nil {
			grp = &extGroup{entry: ent}
			groups[ent] = grp
		}
		nm := emb.m
		if newVertex >= 0 {
			nm = append(append(make([]int32, 0, len(emb.m)+1), emb.m...), newVertex)
		}
		grp.embs = append(grp.embs, embedding{gid: emb.gid, m: nm})
	}

	onRM := make(map[int32]bool, len(rmPath))
	for _, v := range rmPath {
		onRM[v] = true
	}

	for _, emb := range embs {
		g := m.ds.Graph(emb.gid)
		inImage := make(map[int32]int32, len(emb.m)) // graph vertex -> pattern idx
		for pi, gv := range emb.m {
			inImage[gv] = int32(pi)
		}
		// Backward extensions from the rightmost vertex (skipped for trees).
		if !m.cfg.TreesOnly {
			grm := emb.m[rm]
			for _, gw := range g.Neighbors(grm) {
				pi, mapped := inImage[gw]
				if !mapped || pi == rm || !onRM[pi] {
					continue
				}
				if patGraph.HasEdge(rm, pi) {
					continue // edge already in the pattern
				}
				ent := dfscode.Entry{I: rm, J: pi, LI: patGraph.Label(rm), LJ: patGraph.Label(pi)}
				addExt(ent, emb, -1)
			}
		}
		// Forward extensions from every rightmost-path vertex.
		for _, pu := range rmPath {
			gu := emb.m[pu]
			for _, gw := range g.Neighbors(gu) {
				if _, mapped := inImage[gw]; mapped {
					continue
				}
				ent := dfscode.Entry{I: pu, J: nVerts, LI: patGraph.Label(pu), LJ: g.Label(gw)}
				addExt(ent, emb, gw)
			}
		}
	}

	ordered := make([]*extGroup, 0, len(groups))
	for _, grp := range groups {
		ordered = append(ordered, grp)
	}
	sort.Slice(ordered, func(a, b int) bool {
		return dfscode.Compare(ordered[a].entry, ordered[b].entry) < 0
	})
	for _, grp := range ordered {
		sup := supportOf(grp.embs)
		if len(sup) < m.minSup {
			continue
		}
		child := append(p.Code.Clone(), grp.entry)
		if !dfscode.IsMinimal(child) {
			continue // duplicate pattern, reached by a smaller code elsewhere
		}
		cp := &Pattern{Code: child, Support: sup, Parent: p}
		if err := m.grow(cp, grp.embs); err != nil {
			return err
		}
	}
	return nil
}

// rightmostPath returns the rightmost path of a DFS code (rightmost vertex
// first, root last).
func rightmostPath(c dfscode.Code) []int32 {
	rm := int32(0)
	for _, e := range c {
		if e.Forward() && e.J > rm {
			rm = e.J
		}
	}
	path := []int32{rm}
	cur := rm
	for cur != 0 {
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
