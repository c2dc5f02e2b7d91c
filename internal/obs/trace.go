package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// TraceHeader is the HTTP header carrying a trace ID across process
// boundaries: the coordinator sets it on /node/query legs (hedged legs
// included) so node-side spans join the coordinator's trace, and clients
// set it on /query to ask the server to trace and echo the span tree.
const TraceHeader = "X-Sq-Trace"

// Trace collects the spans of one query. A trace is cheap — spans append
// to a slice under a mutex — and short-lived: it exists for the duration
// of the request, is exported once (slow-query log, response echo), and
// dropped.
type Trace struct {
	id    string
	start time.Time

	mu    sync.Mutex
	spans []*Span
}

// NewTrace starts a trace with a fresh random 16-hex-digit ID.
func NewTrace() *Trace { return NewTraceWithID(newTraceID()) }

// NewTraceWithID starts a trace under an existing ID — the node side of a
// propagated trace.
func NewTraceWithID(id string) *Trace {
	return &Trace{id: id, start: time.Now()}
}

func newTraceID() string {
	var b [8]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// TraceIDFromHeader validates a propagated header value: a non-empty
// hex-ish token of sane length. Returns "" for anything else, so a garbage
// header degrades to an untraced request rather than an error.
func TraceIDFromHeader(v string) string {
	if v == "" || len(v) > 64 {
		return ""
	}
	for _, r := range v {
		ok := r >= '0' && r <= '9' || r >= 'a' && r <= 'f' || r >= 'A' && r <= 'F'
		if !ok {
			return ""
		}
	}
	return v
}

// ID returns the trace ID ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Span is one timed operation inside a trace. All methods are nil-safe:
// instrumented code calls StartSpan/End/Attr unconditionally and pays a
// nil check when tracing is off.
type Span struct {
	tr     *Trace
	idx    int // index in tr.spans
	parent int // parent's idx, -1 for a root
	name   string
	start  time.Time

	mu        sync.Mutex
	dur       time.Duration
	ended     bool
	cancelled bool
	attrs     map[string]any
	grafts    []*SpanTree // remote subtrees attached under this span
}

// StartSpan opens a span under parent (nil parent = a root span of the
// trace). Returns nil on a nil trace.
func (t *Trace) StartSpan(parent *Span, name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{tr: t, parent: -1, name: name, start: time.Now()}
	if parent != nil && parent.tr == t {
		s.parent = parent.idx
	}
	t.mu.Lock()
	s.idx = len(t.spans)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Trace returns the span's trace (nil on a nil span).
func (s *Span) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.tr
}

// End closes the span, fixing its duration. Idempotent; safe on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
}

// Cancel marks the span cancelled (a hedged leg that lost the race, a
// stream the consumer abandoned) and ends it.
func (s *Span) Cancel() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.cancelled = true
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
}

// Attr attaches a key/value to the span (candidate counts, chosen method,
// shard list). Safe on nil.
func (s *Span) Attr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// Graft attaches a remote span tree (a node's echoed spans) as a child of
// this span, linking cross-process trees into one. Safe on nil.
func (s *Span) Graft(t *SpanTree) {
	if s == nil || t == nil {
		return
	}
	s.mu.Lock()
	s.grafts = append(s.grafts, t)
	s.mu.Unlock()
}

// ctxKey carries the active span through a context.
type ctxKey struct{}

// ContextWithSpan returns ctx with s as the active span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFromContext returns the active span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// StartSpan opens a child of the context's active span and returns a
// context carrying it. With no active span it returns ctx unchanged and a
// nil span — the instrumentation no-op.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := parent.tr.StartSpan(parent, name)
	return ContextWithSpan(ctx, s), s
}

// SpanTree is the exported (JSON) form of a trace: spans nested under
// their parents, times as microsecond offsets from the trace start so
// trees from different processes read the same way.
type SpanTree struct {
	TraceID   string         `json:"trace,omitempty"` // set on roots only
	Node      string         `json:"node,omitempty"`  // process that recorded the subtree
	Name      string         `json:"name"`
	StartUs   int64          `json:"start_us"`
	DurUs     int64          `json:"dur_us"`
	Cancelled bool           `json:"cancelled,omitempty"`
	Attrs     map[string]any `json:"attrs,omitempty"`
	Children  []*SpanTree    `json:"children,omitempty"`
}

// Tree exports the trace as a span tree. A trace normally has exactly one
// root; with several (or none ended yet) a synthetic root named "trace"
// holds them. Unended spans export with their duration so far. Safe on
// nil (returns nil).
func (t *Trace) Tree() *SpanTree {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := make([]*Span, len(t.spans))
	copy(spans, t.spans)
	t.mu.Unlock()

	nodes := make([]*SpanTree, len(spans))
	var roots []*SpanTree
	for i, s := range spans {
		s.mu.Lock()
		dur := s.dur
		if !s.ended {
			dur = time.Since(s.start)
		}
		n := &SpanTree{
			Name:      s.name,
			StartUs:   s.start.Sub(t.start).Microseconds(),
			DurUs:     dur.Microseconds(),
			Cancelled: s.cancelled,
		}
		if len(s.attrs) > 0 {
			n.Attrs = make(map[string]any, len(s.attrs))
			for k, v := range s.attrs {
				n.Attrs[k] = v
			}
		}
		n.Children = append(n.Children, s.grafts...)
		s.mu.Unlock()
		nodes[i] = n
	}
	for i, s := range spans {
		if s.parent >= 0 {
			p := nodes[s.parent]
			p.Children = append(p.Children, nodes[i])
		} else {
			roots = append(roots, nodes[i])
		}
	}
	var root *SpanTree
	if len(roots) == 1 {
		root = roots[0]
	} else {
		root = &SpanTree{Name: "trace", Children: roots}
	}
	root.TraceID = t.id
	return root
}

// Fprint renders the tree human-readably, one span per line, children
// indented under parents:
//
//	cluster-query 12.43ms  trace=0123abcd
//	  node:n0 8.10ms  shards=[0 3]
//	    node-query 7.92ms  [n0]  answers=4
//	  node:n1 2.31ms  CANCELLED hedge=true
//
// Safe on nil (prints nothing).
func (st *SpanTree) Fprint(w io.Writer) {
	st.fprint(w, 0)
}

func (st *SpanTree) fprint(w io.Writer, depth int) {
	if st == nil {
		return
	}
	fmt.Fprintf(w, "%s%s %s", strings.Repeat("  ", depth), st.Name,
		(time.Duration(st.DurUs) * time.Microsecond).Round(10*time.Microsecond))
	if st.Cancelled {
		fmt.Fprint(w, "  CANCELLED")
	}
	if st.Node != "" {
		fmt.Fprintf(w, "  [%s]", st.Node)
	}
	if st.TraceID != "" {
		fmt.Fprintf(w, "  trace=%s", st.TraceID)
	}
	keys := make([]string, 0, len(st.Attrs))
	for k := range st.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %s=%v", k, st.Attrs[k])
	}
	fmt.Fprintln(w)
	for _, c := range st.Children {
		c.fprint(w, depth+1)
	}
}

// Walk visits every node of the tree depth-first, parents before children.
func (st *SpanTree) Walk(fn func(*SpanTree)) {
	if st == nil {
		return
	}
	fn(st)
	for _, c := range st.Children {
		c.Walk(fn)
	}
}
