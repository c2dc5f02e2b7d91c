package canon

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/subiso"
)

// Postings maps each feature of a mined feature index (gIndex, Tree+Δ) to
// the sorted ids of the graphs that contain it. The feature set is fixed
// at build; under mutation only the postings move, which keeps filtering
// exact: a feature's posting is always exactly its containment set.
type Postings = map[Key]graph.IDSet

// Matcher folds graphs into Postings. The tables store only keys, so it
// rebuilds each feature from its key (KeyGraph) and compiles it once, on
// first use.
type Matcher struct {
	preps map[Key]*subiso.Prepared
}

// Add inserts g's id into every posting, across tables, whose feature g
// contains. The containment test is exhaustive: a truncated test would
// leave g out of a posting and lose answers. On error — a key that does
// not decode — no table has changed.
func (m *Matcher) Add(g *graph.Graph, tables ...Postings) error {
	type hit struct {
		t   Postings
		key Key
	}
	var hits []hit
	for _, t := range tables {
		for key := range t {
			prep, err := m.compiled(key)
			if err != nil {
				return err
			}
			if prep.Exists(context.Background(), g) {
				hits = append(hits, hit{t, key})
			}
		}
	}
	id := g.ID()
	for _, h := range hits {
		post := h.t[h.key]
		if i, found := slices.BinarySearch(post, id); !found {
			h.t[h.key] = slices.Insert(post, i, id)
		}
	}
	return nil
}

// Remove drops id from every posting of tables.
func Remove(id graph.ID, tables ...Postings) {
	for _, t := range tables {
		for key, post := range t {
			if i, found := slices.BinarySearch(post, id); found {
				t[key] = slices.Delete(post, i, i+1)
			}
		}
	}
}

func (m *Matcher) compiled(key Key) (*subiso.Prepared, error) {
	if prep, ok := m.preps[key]; ok {
		return prep, nil
	}
	g, ok := KeyGraph(key)
	if !ok {
		return nil, fmt.Errorf("canon: feature key %q does not decode", string(key))
	}
	if m.preps == nil {
		m.preps = make(map[Key]*subiso.Prepared)
	}
	prep := subiso.Compile(g, subiso.Options{})
	m.preps[key] = prep
	return prep, nil
}
