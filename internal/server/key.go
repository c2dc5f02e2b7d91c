// Package server is the long-lived serving layer over the query engine: an
// isomorphism-invariant result cache with single-flight deduplication
// (CachedEngine) and an HTTP/JSON front end (Server) with admission
// control, NDJSON streaming, and observable stats — the subsystem behind
// cmd/sqserve. It wraps any engine.Querier, so the index behind it may be
// flat or sharded.
package server

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/canon"
	"repro/internal/dfscode"
	"repro/internal/graph"
)

// QueryKey returns a canonical, isomorphism-invariant cache key for a query
// graph: two queries receive the same key iff they are isomorphic as
// labelled graphs, so a cache keyed by it hits regardless of vertex
// ordering. Connected queries key on their minimum DFS code
// (canon.GraphKey); disconnected queries on the sorted, length-prefixed
// multiset of their components' keys. Each canonical search is bounded by
// dfscode.StepBudget, since QueryKey runs on the request path and takes no
// context. ok is false for the empty graph, which has no meaningful key,
// and for a query whose search ran out of steps (a highly symmetric one,
// such as a one-label clique): such queries bypass the cache and run
// through the engine under their request context.
func QueryKey(q *graph.Graph) (key string, ok bool) {
	k, err := canon.GraphKeyWithin(q, dfscode.StepBudget)
	switch {
	case err == nil:
		return string(k), true
	case err == dfscode.ErrBudget || q.NumVertices() == 0:
		return "", false
	}
	comps := q.ConnectedComponents()
	keys := make([]string, 0, len(comps))
	for _, vs := range comps {
		sub, _, err := q.InducedSubgraph(vs)
		if err != nil {
			return "", false
		}
		k, err := canon.GraphKeyWithin(sub, dfscode.StepBudget)
		if err != nil {
			return "", false
		}
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(strconv.Itoa(len(k)))
		b.WriteByte(':')
		b.WriteString(k)
	}
	return b.String(), true
}
