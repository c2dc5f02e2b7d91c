package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/graph"
)

// The GraphJSON decoder. A request body is read whole into a pooled
// buffer and parsed in one pass into pooled scratch: each vertex label as
// a span of unescaped bytes, each edge as a [2]int32. A query resolves its
// labels against the dictionary from those bytes, so it materializes no
// string and reflects over nothing; the graph is then built in one arena
// (graph.FromSortedEdges). (*GraphJSON).UnmarshalJSON runs the same
// parser, so every GraphJSON the program decodes goes through this one
// grammar, the one GraphJSON's doc states. The reflection decode it
// replaced is the test reference it is fuzzed against.

// maxWireDepth is encoding/json's nesting limit, kept.
const maxWireDepth = 10000

// keepWire bounds the buffers a released wireGraph may take back to the
// pool, so one large body does not stay pinned there.
const keepWire = 64 << 10

// wireList is one array field of a GraphJSON body, decoded the way
// encoding/json decodes into a slice: a repeated key decodes over the
// slots the previous array left, so a null element there keeps the
// earlier value, while a null field or an empty array drops them.
type wireList struct {
	slots [][2]int32 // every slot written since the field was last dropped
	n     int        // length of the field's last array
	seen  bool       // the key occurred
	null  bool       // its last value was null
}

func (l *wireList) drop(null bool) { l.slots, l.n, l.null = l.slots[:0], 0, null }

// slot returns slot i, extending the slots by a zero one when i is new.
func (l *wireList) slot(i int) *[2]int32 {
	if i == len(l.slots) {
		l.slots = append(l.slots, [2]int32{})
	}
	return &l.slots[i]
}

// list is the decoded field; nil when it is absent or null.
func (l *wireList) list() [][2]int32 {
	if !l.seen || l.null {
		return nil
	}
	return l.slots[:l.n]
}

// wireGraph is the pooled scratch of one decode: the body read, and the
// GraphJSON value parsed from it.
type wireGraph struct {
	body  []byte
	names []byte   // every label decoded, unescaped, back to back
	verts wireList // each vertex's label, as a [start, end) span of names
	edges wireList
	key   []byte // the object key being matched, or a skipped string

	data  []byte // the value being parsed
	pos   int
	depth int
}

var wirePool = sync.Pool{New: func() any { return new(wireGraph) }}

func getWire() *wireGraph { return wirePool.Get().(*wireGraph) }

func (w *wireGraph) release() {
	w.data = nil
	if cap(w.body)+cap(w.names)+cap(w.key)+8*(cap(w.verts.slots)+cap(w.edges.slots)) > keepWire {
		return
	}
	wirePool.Put(w)
}

// read reads r's body whole into w's buffer; a body over MaxBodyBytes is
// an error. The buffer grows only with the bytes that arrive, whatever
// length the request declares, so a client that declares a large body
// and withholds it pins no memory for it.
func (w *wireGraph) read(r *http.Request) ([]byte, error) {
	buf := w.body[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):min(cap(buf), MaxBodyBytes+1)])
		buf = buf[:len(buf)+n]
		w.body = buf
		switch {
		case len(buf) > MaxBodyBytes:
			return nil, &http.MaxBytesError{Limit: MaxBodyBytes}
		case err == io.EOF:
			return buf, nil
		case err != nil:
			return nil, err
		}
	}
}

// readWire reads and parses r's body as one GraphJSON. The caller builds
// the graph from the returned scratch and then releases it.
func readWire(r *http.Request) (*wireGraph, error) {
	w := getWire()
	body, err := w.read(r)
	if err == nil {
		err = w.decode(body)
	}
	if err != nil {
		w.release()
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	return w, nil
}

// DecodeJSON reads r's body whole, bounded by MaxBodyBytes, and decodes
// it into v; data after the JSON value is an error.
func DecodeJSON(r *http.Request, v any) error {
	w := getWire()
	defer w.release()
	body, err := w.read(r)
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
}

// ReadQuery reads r's body, bounded by MaxBodyBytes, as one GraphJSON
// query against dict's label space, with ToGraph's checks and results.
func ReadQuery(r *http.Request, dict *graph.Dictionary) (q *graph.Graph, unknown bool, err error) {
	w, err := readWire(r)
	if err != nil {
		return nil, false, err
	}
	defer w.release()
	return w.query(dict)
}

func (w *wireGraph) label(v int) []byte {
	s := w.verts.slots[v]
	return w.names[s[0]:s[1]]
}

// query is ToGraph over the decoded value.
func (w *wireGraph) query(dict *graph.Dictionary) (*graph.Graph, bool, error) {
	return build("query", w.verts.n, w.edges.list(), func(v int) (graph.Label, bool) {
		return dict.LookupBytes(w.label(v))
	})
}

// intern is InternGraph over the decoded value.
func (w *wireGraph) intern(dict *graph.Dictionary) (*graph.Graph, error) {
	g, _, err := build("graph", w.verts.n, w.edges.list(), func(v int) (graph.Label, bool) {
		return dict.Intern(string(w.label(v))), true
	})
	return g, err
}

// UnmarshalJSON decodes one GraphJSON value with the request decoder. A
// field the value does not name keeps its value. As in encoding/json, a
// list decodes over the slots of the one gj holds, out to its capacity,
// so a null element keeps what its slot held; the decoded list never
// shares storage with the one it replaces.
func (gj *GraphJSON) UnmarshalJSON(data []byte) error {
	w := getWire()
	defer w.release()
	w.reset(data)
	for _, name := range gj.Vertices[:cap(gj.Vertices)] {
		*w.verts.slot(len(w.verts.slots)) = [2]int32{int32(len(w.names)), int32(len(w.names) + len(name))}
		w.names = append(w.names, name...)
	}
	w.edges.slots = append(w.edges.slots, gj.Edges[:cap(gj.Edges)]...)
	if err := w.parse(); err != nil {
		return err
	}
	if w.verts.seen {
		gj.Vertices = nil
		if !w.verts.null {
			names := string(w.names)
			gj.Vertices = make([]string, w.verts.n)
			for v := range gj.Vertices {
				s := w.verts.slots[v]
				gj.Vertices[v] = names[s[0]:s[1]]
			}
		}
	}
	if w.edges.seen {
		gj.Edges = nil
		if !w.edges.null {
			gj.Edges = append(make([][2]int32, 0, w.edges.n), w.edges.list()...)
		}
	}
	return nil
}

// decode parses data as one GraphJSON value into w.
func (w *wireGraph) decode(data []byte) error {
	w.reset(data)
	return w.parse()
}

// reset empties w's scratch, keeping its buffers, to parse data.
func (w *wireGraph) reset(data []byte) {
	*w = wireGraph{
		body: w.body, names: w.names[:0], key: w.key[:0],
		verts: wireList{slots: w.verts.slots[:0]}, edges: wireList{slots: w.edges.slots[:0]},
		data: data,
	}
}

// parse parses w.data as one GraphJSON value.
func (w *wireGraph) parse() error {
	w.space()
	var err error
	switch w.peek() {
	case '{':
		err = w.object()
	case 'n':
		err = w.literal("null")
	default:
		err = w.fail()
	}
	if err != nil {
		return err
	}
	if w.space(); w.pos < len(w.data) {
		return w.fail()
	}
	return nil
}

func (w *wireGraph) peek() byte {
	if w.pos < len(w.data) {
		return w.data[w.pos]
	}
	return 0
}

func (w *wireGraph) space() {
	for w.pos < len(w.data) {
		switch w.data[w.pos] {
		case ' ', '\t', '\n', '\r':
			w.pos++
		default:
			return
		}
	}
}

// fail is the one decode error: malformed JSON, a value of the wrong
// kind, an endpoint outside int32 or nesting too deep, at w.pos.
func (w *wireGraph) fail() error {
	return fmt.Errorf("invalid GraphJSON at offset %d", w.pos)
}

// elements parses an array or object from its opening byte to its
// closing one, calling each with w at the start of the i-th element (or
// member) and returning how many there were.
func (w *wireGraph) elements(close byte, each func(i int) error) (int, error) {
	if w.depth++; w.depth > maxWireDepth {
		return 0, w.fail()
	}
	w.pos++
	w.space()
	i := 0
	for more := w.peek() != close; more; i++ {
		if err := each(i); err != nil {
			return i, err
		}
		w.space()
		switch w.peek() {
		case ',':
			w.pos++
			w.space()
		case close:
			more = false
		default:
			return i, w.fail()
		}
	}
	w.pos++
	w.depth--
	return i, nil
}

func (w *wireGraph) literal(lit string) error {
	if end := w.pos + len(lit); end > len(w.data) || string(w.data[w.pos:end]) != lit {
		return w.fail()
	}
	w.pos += len(lit)
	return nil
}

// object parses the top-level object: "vertices" and "edges" decode,
// anything else is skipped.
func (w *wireGraph) object() error {
	_, err := w.elements('}', func(int) error {
		key, err := w.member()
		if err != nil {
			return err
		}
		switch w.key = key; {
		case bytes.EqualFold(key, []byte("vertices")):
			return w.field(&w.verts, true)
		case bytes.EqualFold(key, []byte("edges")):
			return w.field(&w.edges, false)
		}
		return w.skip()
	})
	return err
}

// member parses an object member's key and colon into w.key.
func (w *wireGraph) member() ([]byte, error) {
	if w.peek() != '"' {
		return nil, w.fail()
	}
	key, err := w.str(w.key[:0])
	if err != nil {
		return nil, err
	}
	if w.space(); w.peek() != ':' {
		return nil, w.fail()
	}
	w.pos++
	w.space()
	return key, nil
}

// field decodes the value of "vertices" (verts) or "edges" into l.
func (w *wireGraph) field(l *wireList, verts bool) error {
	l.seen = true
	switch w.peek() {
	case 'n':
		l.drop(true)
		return w.literal("null")
	case '[':
	default:
		return w.fail()
	}
	n, err := w.elements(']', func(i int) error {
		if verts {
			return w.vertex(l.slot(i))
		}
		return w.pair(l.slot(i))
	})
	if err != nil {
		return err
	}
	l.n, l.null = n, false
	if n == 0 {
		l.drop(false)
	}
	return nil
}

// vertex decodes one label into s as a span of w.names; null keeps s.
func (w *wireGraph) vertex(s *[2]int32) error {
	switch w.peek() {
	case 'n':
		return w.literal("null")
	case '"':
		start := len(w.names)
		names, err := w.str(w.names)
		w.names = names
		*s = [2]int32{int32(start), int32(len(names))}
		return err
	}
	return w.fail()
}

// pair decodes one edge into s: its first two elements, null keeping
// what s holds, missing ones zeroed, further ones skipped.
func (w *wireGraph) pair(s *[2]int32) error {
	switch w.peek() {
	case 'n':
		return w.literal("null")
	case '[':
	default:
		return w.fail()
	}
	n, err := w.elements(']', func(j int) (err error) {
		switch c := w.peek(); {
		case j >= 2:
			return w.skip()
		case c == 'n':
			return w.literal("null")
		case c == '-' || '0' <= c && c <= '9':
			s[j], err = w.int32()
			return err
		}
		return w.fail()
	})
	for j := n; j < 2; j++ {
		s[j] = 0
	}
	return err
}

// number scans a JSON number and returns its integer part (sign included)
// and whether it has neither fraction nor exponent.
func (w *wireGraph) number() (integer []byte, integral bool, err error) {
	start := w.pos
	if w.peek() == '-' {
		w.pos++
	}
	switch c := w.peek(); {
	case c == '0':
		w.pos++
	case '1' <= c && c <= '9':
		w.digits()
	default:
		return nil, false, w.fail()
	}
	integer, integral = w.data[start:w.pos], true
	if w.peek() == '.' {
		w.pos++
		if !w.digits() {
			return nil, false, w.fail()
		}
		integral = false
	}
	if c := w.peek(); c == 'e' || c == 'E' {
		w.pos++
		if c := w.peek(); c == '+' || c == '-' {
			w.pos++
		}
		if !w.digits() {
			return nil, false, w.fail()
		}
		integral = false
	}
	return integer, integral, nil
}

// digits skips a run of decimal digits and reports whether there was one.
func (w *wireGraph) digits() bool {
	start := w.pos
	for c := w.peek(); '0' <= c && c <= '9'; c = w.peek() {
		w.pos++
	}
	return w.pos > start
}

// int32 decodes a number that must be an integer within int32.
func (w *wireGraph) int32() (int32, error) {
	start := w.pos
	integer, integral, err := w.number()
	if err != nil {
		return 0, err
	}
	digits := bytes.TrimPrefix(integer, []byte("-"))
	if integral && len(digits) <= 10 {
		var v int64
		for _, c := range digits {
			v = 10*v + int64(c-'0')
		}
		if len(digits) < len(integer) {
			v = -v
		}
		if v >= -1<<31 && v < 1<<31 {
			return int32(v), nil
		}
	}
	w.pos = start
	return 0, w.fail()
}

// skip checks and skips any one value.
func (w *wireGraph) skip() error {
	switch c := w.peek(); {
	case c == '{' || c == '[':
		_, err := w.elements(c+2, func(int) error { // c+2 is '}' or ']'
			if c == '{' {
				if _, err := w.member(); err != nil {
					return err
				}
			}
			return w.skip()
		})
		return err
	case c == '"':
		var err error
		w.key, err = w.str(w.key[:0])
		return err
	case c == 't':
		return w.literal("true")
	case c == 'f':
		return w.literal("false")
	case c == 'n':
		return w.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, _, err := w.number()
		return err
	}
	return w.fail()
}

// str parses the string at w.pos and appends it, unescaped, to dst the
// way encoding/json unquotes: invalid UTF-8 and a surrogate that does
// not pair become U+FFFD.
func (w *wireGraph) str(dst []byte) ([]byte, error) {
	data := w.data
	w.pos++ // the opening quote
	for {
		start := w.pos
		for w.pos < len(data) {
			if c := data[w.pos]; c < ' ' || c == '"' || c == '\\' || c >= utf8.RuneSelf {
				break
			}
			w.pos++
		}
		dst = append(dst, data[start:w.pos]...)
		switch c := w.peek(); {
		case c < ' ': // a control character, or the end of data
			return dst, w.fail()
		case c == '"':
			w.pos++
			return dst, nil
		case c == '\\':
			var err error
			if dst, err = w.escape(dst); err != nil {
				return dst, err
			}
		default:
			r, n := utf8.DecodeRune(data[w.pos:])
			if r == utf8.RuneError && n == 1 {
				dst = utf8.AppendRune(dst, utf8.RuneError)
			} else {
				dst = append(dst, data[w.pos:w.pos+n]...)
			}
			w.pos += n
		}
	}
}

// escape decodes the escape sequence at w.pos onto dst.
func (w *wireGraph) escape(dst []byte) ([]byte, error) {
	w.pos++ // the backslash
	c := w.peek()
	if c != 'u' {
		if i := strings.IndexByte(`"\/bfnrt`, c); i >= 0 {
			w.pos++
			return append(dst, "\"\\/\b\f\n\r\t"[i]), nil
		}
		return dst, w.fail()
	}
	r := hex4(w.data[w.pos+1:])
	if r < 0 {
		return dst, w.fail()
	}
	w.pos += 5
	if utf16.IsSurrogate(r) {
		r2 := rune(-1)
		if rest := w.data[w.pos:]; len(rest) >= 2 && rest[0] == '\\' && rest[1] == 'u' {
			r2 = hex4(rest[2:])
		}
		if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
			w.pos += 6
		}
	}
	return utf8.AppendRune(dst, r), nil
}

// hex4 is the value of the four hex digits b starts with, or -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = 16*r + rune(c)
	}
	return r
}
