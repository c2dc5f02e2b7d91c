package pathkey

import (
	"slices"
	"sync"

	"repro/internal/features"
	"repro/internal/graph"
)

// Query is the analysis of one graph's label paths of at most MaxPathLen
// edges: their distinct canonical keys (canon.PathKey bytes) in ascending
// byte order, each with the number of path visits that produce it. A path
// of k >= 1 edges is visited once from each end, so it counts twice; a
// single vertex counts once — the count both path methods index per
// graph. It depends on the graph and MaxPathLen alone, never on an index:
// it is both methods' analysis of a query.
type Query struct {
	keys   string  // the distinct keys, concatenated in ascending order
	ends   []int32 // key i is keys[ends[i-1]:ends[i]], with ends[-1] = 0
	counts []int32 // path visits of key i
}

// Len returns the number of distinct keys.
func (q *Query) Len() int { return len(q.counts) }

// Key returns key i.
func (q *Query) Key(i int) string {
	start := int32(0)
	if i > 0 {
		start = q.ends[i-1]
	}
	return q.keys[start:q.ends[i]]
}

// Count returns the path visits of key i.
func (q *Query) Count(i int) int32 { return q.counts[i] }

// scratch is Extract's working memory, pooled across calls.
type scratch struct {
	pk     Packing  // over the graph's own labels
	rank   []uint64 // vertex → rank
	recs   []uint64 // one fixed-width record per recorded path
	order  []int32  // multi-word records only: record indexes, sorted
	sorted []uint64 // multi-word records only: recs in sorted order
	keys   []byte
	ends   []int32
	counts []int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Extract enumerates g's label paths into fixed-width records in one
// reusable buffer, sorts the records and counts the runs of equal ones.
// A record is the path's packed key (see Packing), with ranks over g's own
// labels; for the path lengths and label counts of real queries it is one
// word, sorted as an integer. Of the two visits of a path of one or more
// edges only the one from the lower vertex id is recorded, and it counts
// twice.
func Extract(g *graph.Graph, maxPathLen int) Query {
	if g.NumVertices() == 0 {
		return Query{}
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	pk := &sc.pk
	pk.Reset(g.Labels(), maxPathLen)
	sc.rank = pk.Ranks(g, sc.rank)
	w := pk.w

	sc.recs = sc.recs[:0]
	features.VisitPaths(g, maxPathLen, func(vs []int32) bool {
		if vs[0] <= vs[len(vs)-1] {
			sc.recs = pk.AppendKey(sc.recs, g, sc.rank, vs)
		}
		return true
	})
	if w == 1 {
		slices.Sort(sc.recs)
	} else {
		sc.sortRecords(w)
	}

	sc.keys, sc.ends, sc.counts = sc.keys[:0], sc.ends[:0], sc.counts[:0]
	visits := int32(0)
	for at := 0; at < len(sc.recs); at += w {
		rec := sc.recs[at : at+w]
		if at > 0 && slices.Equal(sc.recs[at-w:at], rec) {
			sc.counts[len(sc.counts)-1] += visits
			continue
		}
		from := len(sc.keys)
		sc.keys = pk.AppendKeyBytes(sc.keys, rec)
		visits = 2
		if len(sc.keys)-from == 4 {
			visits = 1
		}
		sc.ends = append(sc.ends, int32(len(sc.keys)))
		sc.counts = append(sc.counts, visits)
	}
	// The ends and counts share one array sized to the distinct keys, so
	// the analysis costs one allocation besides its key bytes.
	n := len(sc.ends)
	buf := make([]int32, 2*n)
	copy(buf, sc.ends)
	copy(buf[n:], sc.counts)
	return Query{keys: string(sc.keys), ends: buf[:n:n], counts: buf[n:]}
}

// sortRecords sorts records of w > 1 words through an index.
func (sc *scratch) sortRecords(w int) {
	rec := func(i int32) []uint64 { return sc.recs[int(i)*w : int(i+1)*w] }
	sc.order = sc.order[:0]
	for i := range int32(len(sc.recs) / w) {
		sc.order = append(sc.order, i)
	}
	slices.SortFunc(sc.order, func(a, b int32) int { return slices.Compare(rec(a), rec(b)) })
	sc.sorted = sc.sorted[:0]
	for _, i := range sc.order {
		sc.sorted = append(sc.sorted, rec(i)...)
	}
	sc.recs, sc.sorted = sc.sorted, sc.recs
}
