package server

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/router"
)

// GraphJSON is the wire form of a query graph: vertex labels by index plus
// undirected vertex-id edge pairs — the JSON analogue of one GFD record.
// Labels are the dataset's label strings; a label no dataset graph carries
// makes the query unsatisfiable and the server answers it empty without
// touching the engine.
//
// It decodes (UnmarshalJSON, and the request handlers directly) with the
// one decoder in wire.go, whose grammar is encoding/json's for this struct,
// kept on purpose: keys match case-insensitively, a repeated key's last
// value wins (its list decodes over the slots of the earlier one, as a
// decode into a GraphJSON already holding lists does, so a null element
// keeps what its slot held), unknown keys are skipped whatever they hold,
// null leaves a field (or the whole value) unset, strings unescape as
// encoding/json does (invalid UTF-8 and unpaired surrogates become
// U+FFFD), an endpoint is an integer within int32 ("1.0", "1e0" and
// 2147483648 are rejected), and an edge is an array whose first two
// elements are its endpoints, missing ones zero ([[0]] is the self-loop
// (0,0), [[0,1,2]] the edge (0,1)). A request body with anything but
// whitespace after the value is rejected. Only the error text is the
// decoder's own: one error naming the byte offset where parsing stopped.
type GraphJSON struct {
	Vertices []string   `json:"vertices"`
	Edges    [][2]int32 `json:"edges"`
}

// GraphToJSON renders g in wire form, naming labels through dict; labels
// never interned render as their numeric value, mirroring the GFD writer.
func GraphToJSON(g *graph.Graph, dict *graph.Dictionary) GraphJSON {
	gj := GraphJSON{
		Vertices: make([]string, g.NumVertices()),
		Edges:    g.Edges(),
	}
	if gj.Edges == nil {
		gj.Edges = [][2]int32{}
	}
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		name := dict.Name(g.Label(v))
		if name == "" {
			name = strconv.Itoa(int(g.Label(v)))
		}
		gj.Vertices[v] = name
	}
	return gj
}

// ToGraph converts a wire graph into a query against dict's label space.
// unknown reports a vertex label absent from the dictionary: no dataset
// graph can then contain the query, so the caller short-circuits to an
// empty result instead of growing the shared dictionary with a label no
// graph carries. gj's edges are normalized and sorted in place.
func ToGraph(gj GraphJSON, dict *graph.Dictionary) (q *graph.Graph, unknown bool, err error) {
	return build("query", len(gj.Vertices), gj.Edges, func(v int) (graph.Label, bool) {
		return dict.Lookup(gj.Vertices[v])
	})
}

// InternGraph converts a wire graph for insertion: unlike ToGraph, a
// label the dictionary has never seen is interned rather than reported —
// an added graph is allowed to grow the label universe. Labels are
// interned only once the edges are valid, so a rejected graph leaves dict
// as it was. gj's edges are normalized and sorted in place.
func InternGraph(gj GraphJSON, dict *graph.Dictionary) (*graph.Graph, error) {
	g, _, err := build("graph", len(gj.Vertices), gj.Edges, func(v int) (graph.Label, bool) {
		return dict.Intern(gj.Vertices[v]), true
	})
	return g, err
}

// build is ToGraph and InternGraph over either decoded form: n vertices,
// whose labels resolve returns (ok false for an unknown one), and edges,
// checked and sorted in place. The errors come in a fixed order: no
// vertices, then a bad edge, and only then an unknown label, so a query
// with both an unknown label and a bad edge is rejected.
func build(what string, n int, edges [][2]int32, resolve func(v int) (graph.Label, bool)) (*graph.Graph, bool, error) {
	if n == 0 {
		return nil, false, fmt.Errorf("%s has no vertices", what)
	}
	if err := sortEdges(edges, n); err != nil {
		return nil, false, err
	}
	labels := make([]graph.Label, n)
	for v := range labels {
		l, ok := resolve(v)
		if !ok {
			return nil, true, nil
		}
		labels[v] = l
	}
	return graph.FromSortedEdges(0, labels, edges), false, nil
}

// sortEdges validates edges over n vertices and puts each lower endpoint
// first, then sorts them, all in place: an out-of-range endpoint, a
// self-loop or a repeated edge is an error, so the sorted edges build a
// graph as they are (graph.FromSortedEdges), in O(E log E) however the
// client ordered them.
func sortEdges(edges [][2]int32, n int) error {
	for i, e := range edges {
		switch {
		case e[0] < 0 || int(e[0]) >= n || e[1] < 0 || int(e[1]) >= n:
			return fmt.Errorf("edge (%d,%d) out of range [0,%d)", e[0], e[1], n)
		case e[0] == e[1]:
			return fmt.Errorf("self-loop on vertex %d", e[0])
		case e[0] > e[1]:
			edges[i] = [2]int32{e[1], e[0]}
		}
	}
	slices.SortFunc(edges, func(a, b [2]int32) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	for i := 1; i < len(edges); i++ {
		if e := edges[i]; e == edges[i-1] {
			return fmt.Errorf("duplicate edge (%d,%d)", e[0], e[1])
		}
	}
	return nil
}

// MutationResponse is the body of a successful POST /graphs or
// DELETE /graphs/{id}: the affected graph id, the dataset epoch after the
// mutation, and the live graph count.
type MutationResponse struct {
	ID     graph.ID `json:"id"`
	Epoch  uint64   `json:"epoch"`
	Graphs int      `json:"graphs"`
}

// QueryResponse is the non-streaming /query (and per-item /batch) result.
type QueryResponse struct {
	Candidates []graph.ID `json:"candidates"`
	Answers    []graph.ID `json:"answers"`
	// Method names the concrete method that served the query — under an
	// adaptive router this is the routing decision, observable per
	// response. Empty for short-circuited unknown-label queries, which no
	// method ever saw.
	Method   string `json:"method,omitempty"`
	Cached   bool   `json:"cached"`
	FilterUs int64  `json:"filter_us"`
	VerifyUs int64  `json:"verify_us"`
	TotalUs  int64  `json:"total_us"`
	// Partial marks a degraded cluster answer: one or more logical shards
	// (listed in FailedShards) had no reachable owner, so their graphs are
	// absent from Candidates and Answers. A single-process server never
	// sets it — an answer is complete or the request fails.
	Partial      bool  `json:"partial,omitempty"`
	FailedShards []int `json:"failed_shards,omitempty"`
	// Limit echoes the request's limit=N cap when one was applied: Answers
	// then holds at most Limit ids, Candidates is omitted (the limited
	// path never materializes the candidate set), and Produced/Verified
	// expose how much pipeline work the early-terminated query actually
	// did — the observable form of "limit=1 does one verification's worth
	// of work, not the full query's".
	Limit    int `json:"limit,omitempty"`
	Produced int `json:"produced,omitempty"`
	Verified int `json:"verified,omitempty"`
	// Trace is the server-side span tree, echoed when the request carried
	// an X-Sq-Trace header. On a cluster coordinator it includes the
	// grafted node-side subtrees.
	Trace *obs.SpanTree `json:"trace,omitempty"`
}

func queryResponse(res *core.QueryResult) QueryResponse {
	r := QueryResponse{
		Candidates:   res.Candidates,
		Answers:      res.Answers,
		Method:       res.Method,
		Cached:       res.Cached,
		FilterUs:     res.FilterTime.Microseconds(),
		VerifyUs:     res.VerifyTime.Microseconds(),
		TotalUs:      res.TotalTime().Microseconds(),
		Produced:     res.Produced,
		Verified:     res.Verified,
		Partial:      res.FailedShards != nil,
		FailedShards: res.FailedShards,
	}
	// Encode empty sets as [] rather than null.
	if r.Candidates == nil {
		r.Candidates = graph.IDSet{}
	}
	if r.Answers == nil {
		r.Answers = graph.IDSet{}
	}
	return r
}

// BatchRequest is the /batch request body.
type BatchRequest struct {
	Queries []GraphJSON `json:"queries"`
	// Workers bounds the batch's internal parallelism; 0 or out-of-range
	// values are clamped to the server's worker budget.
	Workers int `json:"workers,omitempty"`
}

// BatchItem is one query's outcome inside a /batch response: a result or an
// item-level error (a malformed graph, or the batch's context ending).
type BatchItem struct {
	QueryResponse
	Error string `json:"error,omitempty"`
}

// BatchResponse is the /batch response body.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// StreamLine is one NDJSON line of a streaming /query response: an answer
// id, a terminal error, or the terminal done marker with the match count
// and the pipeline's produced/verified candidate counters (how much work
// the stream did — a limit=N stream that stopped early reports the small
// numbers that prove it; produced may recount a few candidates per
// re-plan, see core.PipelineStats). On a cluster coordinator the done line
// may be marked Partial with the shards that lost every owner mid-stream;
// their answers beyond the merge frontier are missing.
type StreamLine struct {
	ID           *graph.ID `json:"id,omitempty"`
	Error        string    `json:"error,omitempty"`
	Done         bool      `json:"done,omitempty"`
	Matches      int       `json:"matches,omitempty"`
	Partial      bool      `json:"partial,omitempty"`
	FailedShards []int     `json:"failed_shards,omitempty"`
	Produced     int64     `json:"produced,omitempty"`
	Verified     int64     `json:"verified,omitempty"`
}

// MethodJSON is one registry entry in the /methods listing.
type MethodJSON struct {
	Name    string      `json:"name"`
	Display string      `json:"display"`
	Help    string      `json:"help,omitempty"`
	Params  []ParamJSON `json:"params,omitempty"`
}

// ParamJSON is one typed method parameter in the /methods listing.
type ParamJSON struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Default any    `json:"default"`
	Help    string `json:"help,omitempty"`
}

// AdmissionStats reports the worker pool and queue state in /stats.
type AdmissionStats struct {
	Workers    int   `json:"workers"`
	QueueLimit int   `json:"queue_limit"`
	InFlight   int64 `json:"in_flight"`
	Waiting    int64 `json:"waiting"`
	Rejected   int64 `json:"rejected"`
	TimedOut   int64 `json:"timed_out"`
}

// RequestStats counts requests by endpoint in /stats.
type RequestStats struct {
	Query  int64 `json:"query"`
	Batch  int64 `json:"batch"`
	Stream int64 `json:"stream"`
	// Mutate counts POST /graphs and DELETE /graphs/{id} requests.
	Mutate int64 `json:"mutate"`
	Errors int64 `json:"errors"`
}

// StatsResponse is the /stats body.
type StatsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Dataset       string  `json:"dataset"`
	// Graphs counts live graphs; Removed the tombstoned ones whose slots
	// remain. Epoch is the dataset version, bumped by every mutation.
	Graphs    int            `json:"graphs"`
	Removed   int            `json:"removed,omitempty"`
	Epoch     uint64         `json:"epoch"`
	Method    string         `json:"method"`
	Shards    int            `json:"shards,omitempty"`
	Draining  bool           `json:"draining"`
	Cache     CacheStats     `json:"cache"`
	Admission AdmissionStats `json:"admission"`
	Requests  RequestStats   `json:"requests"`
	// Routing is present when the served engine is the adaptive router:
	// per-method win rates and the learned cost model's cells.
	Routing *router.Snapshot `json:"routing,omitempty"`
}

// ErrorResponse is the body of every non-2xx JSON response.
type ErrorResponse struct {
	Error string `json:"error"`
}
