package pathkey

import (
	"repro/internal/features"
	"repro/internal/graph"
)

// Counter counts the label paths of one graph at a time by canonical key,
// numbering the keys in a Table as they are first seen. GraphGrepSX builds
// and maintains its postings from the counts; Grapes removes a graph by
// the distinct keys alone.
type Counter struct {
	pk         Packing
	tab        *Table
	maxPathLen int
	rank       []uint64
	Visits     []int32 // by key number, for the graph counted last
	Seen       []int32 // the key numbers of the graph counted last, in first-seen order
	buf        []byte
}

// NewCounter returns a counter of paths of at most maxPathLen edges over
// the given label alphabet.
func NewCounter(alphabet []graph.Label, maxPathLen int) *Counter {
	c := &Counter{maxPathLen: maxPathLen}
	c.pk.Reset(alphabet, maxPathLen)
	c.tab = NewTable(c.pk.Words())
	return c
}

// Count sets Seen and Visits to g's paths: VisitPaths visits a path of one
// or more edges once from each end, and only the visit from its lower
// vertex is looked up, counting for both.
func (c *Counter) Count(g *graph.Graph) {
	for _, k := range c.Seen {
		c.Visits[k] = 0
	}
	c.Seen = c.Seen[:0]
	c.rank = c.pk.Ranks(g, c.rank)
	var key []uint64
	features.VisitPaths(g, c.maxPathLen, func(vs []int32) bool {
		if vs[0] > vs[len(vs)-1] {
			return true
		}
		key = c.pk.AppendKey(key[:0], g, c.rank, vs)
		k, added := c.tab.Find(key)
		if added {
			c.Visits = append(c.Visits, 0)
		}
		if c.Visits[k] == 0 {
			c.Seen = append(c.Seen, int32(k))
		}
		c.Visits[k] += min(int32(len(vs)), 2)
		return true
	})
}

// KeyBytes returns the canon.PathKey bytes of key number k, valid until
// the next call.
func (c *Counter) KeyBytes(k int) []byte {
	c.buf = c.pk.AppendKeyBytes(c.buf[:0], c.tab.Key(k))
	return c.buf
}
