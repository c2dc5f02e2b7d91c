package server

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/workload"
)

// The reference decode: the reflection decode the wire decoder replaced,
// kept unchanged as the oracle FuzzWireGraphAgreesWithReference holds it
// to. refGraphJSON has GraphJSON's shape without its UnmarshalJSON, so
// json.Unmarshal decodes it by reflection.
type refGraphJSON struct {
	Vertices []string   `json:"vertices"`
	Edges    [][2]int32 `json:"edges"`
}

func refToGraph(gj refGraphJSON, dict *graph.Dictionary) (q *graph.Graph, unknown bool, err error) {
	if len(gj.Vertices) == 0 {
		return nil, false, fmt.Errorf("query has no vertices")
	}
	if err := refSortEdges(gj); err != nil {
		return nil, false, err
	}
	g := graph.NewWithCapacity(0, len(gj.Vertices))
	for _, name := range gj.Vertices {
		l, ok := dict.Lookup(name)
		if !ok {
			return nil, true, nil
		}
		g.AddVertex(l)
	}
	for _, e := range gj.Edges {
		g.MustAddEdge(e[0], e[1])
	}
	return g, false, nil
}

func refInternGraph(gj refGraphJSON, dict *graph.Dictionary) (*graph.Graph, error) {
	if len(gj.Vertices) == 0 {
		return nil, fmt.Errorf("graph has no vertices")
	}
	if err := refSortEdges(gj); err != nil {
		return nil, err
	}
	g := graph.NewWithCapacity(0, len(gj.Vertices))
	for _, name := range gj.Vertices {
		g.AddVertex(dict.Intern(name))
	}
	for _, e := range gj.Edges {
		g.MustAddEdge(e[0], e[1])
	}
	return g, nil
}

func refSortEdges(gj refGraphJSON) error {
	n := len(gj.Vertices)
	for i, e := range gj.Edges {
		switch {
		case e[0] < 0 || int(e[0]) >= n || e[1] < 0 || int(e[1]) >= n:
			return fmt.Errorf("edge (%d,%d) out of range [0,%d)", e[0], e[1], n)
		case e[0] == e[1]:
			return fmt.Errorf("self-loop on vertex %d", e[0])
		case e[0] > e[1]:
			gj.Edges[i] = [2]int32{e[1], e[0]}
		}
	}
	slices.SortFunc(gj.Edges, func(a, b [2]int32) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	for i := 1; i < len(gj.Edges); i++ {
		if e := gj.Edges[i]; e == gj.Edges[i-1] {
			return fmt.Errorf("duplicate edge (%d,%d)", e[0], e[1])
		}
	}
	return nil
}

// refDecode is the reference request decode: the body, then the graph.
func refDecode(data []byte, dict *graph.Dictionary, intern bool) (g *graph.Graph, unknown bool, jsonOK bool, err error) {
	var gj refGraphJSON
	if err := json.Unmarshal(data, &gj); err != nil {
		return nil, false, false, err
	}
	if intern {
		g, err = refInternGraph(gj, dict)
	} else {
		g, unknown, err = refToGraph(gj, dict)
	}
	return g, unknown, true, err
}

// wireDecode is the request decode the handlers run.
func wireDecode(data []byte, dict *graph.Dictionary, intern bool) (g *graph.Graph, unknown bool, err error) {
	w := getWire()
	defer w.release()
	if err := w.decode(data); err != nil {
		return nil, false, err
	}
	if intern {
		g, err = w.intern(dict)
		return g, false, err
	}
	return w.query(dict)
}

// sameGraphs reports whether a and b have the same labels by name and
// the same edges.
func sameGraphs(a, b *graph.Graph, da, db *graph.Dictionary) bool {
	if a.NumVertices() != b.NumVertices() || !slices.Equal(a.Edges(), b.Edges()) {
		return false
	}
	for v := range int32(a.NumVertices()) {
		if da.Name(a.Label(v)) != db.Name(b.Label(v)) {
			return false
		}
	}
	return a.Validate() == nil && b.Validate() == nil
}

func abcDict() *graph.Dictionary {
	var d graph.Dictionary
	for _, name := range []string{"a", "b", "c", "é", "�"} {
		d.Intern(name)
	}
	return &d
}

// FuzzWireGraphAgreesWithReference: the wire decoder and the reflection
// decode it replaced agree on every body. Both accept or both reject;
// where the JSON decodes, the rejection's text is the same, and an
// accepted body gives the same unknown flag and the same graph (labels by
// name, edge set) for a query and for an insertion. A rejected insertion
// leaves the dictionary as it was, and one accepted grows it the same
// way. GraphJSON's UnmarshalJSON agrees with the reference struct field
// for field, nil lists included.
func FuzzWireGraphAgreesWithReference(f *testing.F) {
	for _, seed := range []string{
		`{"vertices":["a","b","c"],"edges":[[0,1],[2,1]]}`,
		`{"Vertices":["a","b"],"EDGES":[[1,0]]}`,
		`{"vErTiCeS":["a"],"x":{"y":[1,{"z":null}],"w":"s"},"edges":[]}`,
		`{"vertices":["a","b"],"extra":[[[[]]]],"edges":[[0,1]],"more":-1.5e+3}`,
		`{"vertices":null,"edges":null}`,
		`{"vertices":["a"],"edges":null}`,
		`null`,
		` null `,
		`{"vertices":["a","b"],"vertices":["c","a","b"],"edges":[[0,2]]}`,
		`{"vertices":["a","b","c"],"vertices":[null,"a"],"edges":[[0,1]]}`,
		`{"vertices":["a","b"],"vertices":[],"vertices":[null,null],"edges":[[0,1]]}`,
		`{"vertices":["a","b","c"],"edges":[[0,1],[1,2]],"edges":[null,[null,0]]}`,
		`{"vertices":["a","b","c"],"edges":[[0,1],[1,2]],"edges":null,"edges":[null]}`,
		`{"vertices":[null,null,null,null],"edges":[null,null,[null,2]]}`,
		`{"edges":[[null]]}`,
		`{"vertices":["a","é","😀","\ud83d","\ude00x","\"\\\/\b\f\n\r\t"],"edges":[]}`,
		"{\"vertices\":[\"\xff\",\"a\xc3\",\"\xed\xa0\x80\"],\"edges\":[[0,1]]}",
		`{"vertices":["a"],"edges":[]}`,
		" \t\r\n{ \"vertices\" : [ \"a\" , \"b\" ] , \"edges\" : [ [ 0 , 1 ] ] } \n",
		`{"vertices":["a","b"],"edges":[[-0,1]]}`,
		`{"vertices":["a","b"],"edges":[[1.0,0]]}`,
		`{"vertices":["a","b"],"edges":[[1e0,0]]}`,
		`{"vertices":["a","b"],"edges":[[2147483648,0]]}`,
		`{"vertices":["a","b"],"edges":[[-2147483649,0]]}`,
		`{"vertices":["a","b"],"edges":[[0]]}`,
		`{"vertices":["a","b","c"],"edges":[[0,1,2]]}`,
		`{"vertices":["a","b","c"],"edges":[[0,1,"x",{"k":[true,false]}]]}`,
		`{"vertices":["a","b"],"edges":[[]]}`,
		`{"vertices":["new","a"],"edges":[[0,1]]}`,
		`{"vertices":["new","a"],"edges":[[1,1]]}`,
		`{"vertices":["a","b"],"edges":[[0,1],[1,0]]}`,
		`{"vertices":["a"],"edges":[[0,1]]}`,
		`{"vertices":["a","b"],"edges":[[0,1]]}x`,
		`{"vertices":["a","b"],"edges":[[0,1]]}{}`,
		`{"vertices":["a",1]}`,
		`{"vertices":"a"}`,
		`{"edges":[["0",1]],"vertices":["a","b"]}`,
		`{"vertices":["a","b"],"edges":[[0,01]]}`,
		`["a"]`,
		`{"vertices":["a"],}`,
		`{"vertices":["a"]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, intern := range []bool{false, true} {
			rd, wd := abcDict(), abcDict()
			rg, runknown, jsonOK, rerr := refDecode(data, rd, intern)
			wg, wunknown, werr := wireDecode(data, wd, intern)
			switch {
			case (rerr == nil) != (werr == nil):
				t.Fatalf("intern=%v %q: reference error %v, wire error %v", intern, data, rerr, werr)
			case rerr != nil && jsonOK && rerr.Error() != werr.Error():
				t.Fatalf("intern=%v %q: reference error %q, wire error %q", intern, data, rerr, werr)
			case runknown != wunknown:
				t.Fatalf("intern=%v %q: unknown %v, want %v", intern, data, wunknown, runknown)
			case rg != nil && !sameGraphs(rg, wg, rd, wd):
				t.Fatalf("intern=%v %q: wire graph differs from the reference's", intern, data)
			case rg == nil && wg != nil:
				t.Fatalf("intern=%v %q: wire decode built a graph the reference did not", intern, data)
			}
			if !slices.Equal(rd.Names(), wd.Names()) {
				t.Fatalf("intern=%v %q: dictionary %q, want %q", intern, data, wd.Names(), rd.Names())
			}
			if rerr != nil && !slices.Equal(wd.Names(), abcDict().Names()) {
				t.Fatalf("intern=%v %q: a rejected graph changed the dictionary", intern, data)
			}
		}
		// Into a zero value, and over one already holding lists with spare
		// capacity, whose slots encoding/json decodes over.
		for _, prior := range []func() ([]string, [][2]int32){
			func() ([]string, [][2]int32) { return nil, nil },
			func() ([]string, [][2]int32) {
				return []string{"a", "b", "c"}[:1], [][2]int32{{0, 1}, {1, 2}, {2, 0}}[:2]
			},
		} {
			var ref refGraphJSON
			var gj GraphJSON
			ref.Vertices, ref.Edges = prior()
			gj.Vertices, gj.Edges = prior()
			rerr, werr := json.Unmarshal(data, &ref), json.Unmarshal(data, &gj)
			if (rerr == nil) != (werr == nil) {
				t.Fatalf("Unmarshal %q: reference error %v, GraphJSON error %v", data, rerr, werr)
			}
			if rerr == nil && (!slices.Equal(ref.Vertices, gj.Vertices) || (ref.Vertices == nil) != (gj.Vertices == nil) ||
				!slices.Equal(ref.Edges, gj.Edges) || (ref.Edges == nil) != (gj.Edges == nil)) {
				t.Fatalf("Unmarshal %q: got %#v, want %#v", data, gj, ref)
			}
		}
	})
}

// TestBatchDecodeOverPriorQueries: a repeated "queries" key decodes each
// query over the one the earlier array left in its slot, as the
// reflection decode does, so a null label there keeps the earlier label.
func TestBatchDecodeOverPriorQueries(t *testing.T) {
	type refBatch struct {
		Queries []refGraphJSON `json:"queries"`
	}
	for _, body := range []string{
		`{"queries":[{"vertices":["a","b"]}],"queries":[{"vertices":[null]}]}`,
		`{"queries":[{"vertices":["a","b"],"edges":[[0,1]]}],"queries":[{"edges":[null,[1,0]]},null]}`,
		`{"queries":[{"vertices":["a"]},{"vertices":["b"]}],"queries":[null,{"vertices":[]}]}`,
	} {
		var ref refBatch
		var got BatchRequest
		if err := json.Unmarshal([]byte(body), &ref); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(body), &got); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		want := make([]GraphJSON, len(ref.Queries))
		for i, q := range ref.Queries {
			want[i] = GraphJSON(q)
		}
		if fmt.Sprintf("%#v", got.Queries) != fmt.Sprintf("%#v", want) {
			t.Errorf("%s: queries %#v, want %#v", body, got.Queries, want)
		}
	}
}

// withheldBody sends the first bytes of a body and then fails, as a client
// that declares a length and stops sending does.
type withheldBody struct{ sent bool }

func (b *withheldBody) Read(p []byte) (int, error) {
	if b.sent {
		return 0, io.ErrUnexpectedEOF
	}
	b.sent = true
	return copy(p, `{"vertices":`), nil
}

func (*withheldBody) Close() error { return nil }

// TestDeclaredLengthPinsNoMemory: a request that declares a body of
// MaxBodyBytes and sends a few bytes allocates for the bytes sent, not
// for the length declared, on both read paths every endpoint goes through.
func TestDeclaredLengthPinsNoMemory(t *testing.T) {
	for _, c := range []struct {
		name string
		read func(*http.Request) error
	}{
		{"ReadQuery", func(r *http.Request) error { _, _, err := ReadQuery(r, abcDict()); return err }},
		{"DecodeJSON", func(r *http.Request) error { var req BatchRequest; return DecodeJSON(r, &req) }},
	} {
		req, err := http.NewRequest(http.MethodPost, "/query", &withheldBody{})
		if err != nil {
			t.Fatal(err)
		}
		req.ContentLength = MaxBodyBytes
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = c.read(req)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a body cut short decoded", c.name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > MaxBodyBytes/8 {
			t.Errorf("%s: %d bytes allocated for a %d-byte declared body that sent 12, want far fewer", c.name, got, MaxBodyBytes)
		}
	}
}

// TestWireDepthLimit: nesting past encoding/json's limit of 10000 is
// rejected, and up to it accepted, in a skipped field as anywhere.
func TestWireDepthLimit(t *testing.T) {
	for _, c := range []struct {
		depth int
		ok    bool
	}{{maxWireDepth - 1, true}, {maxWireDepth, false}} {
		body := `{"vertices":["a"],"x":` + strings.Repeat("[", c.depth) + strings.Repeat("]", c.depth) + `}`
		_, _, jsonOK, _ := refDecode([]byte(body), abcDict(), false)
		_, _, err := wireDecode([]byte(body), abcDict(), false)
		if jsonOK != c.ok || (err == nil) != c.ok {
			t.Errorf("object holding %d nested arrays: reference ok %v, wire error %v, want ok %v", c.depth, jsonOK, err, c.ok)
		}
	}
}

// reusedBody is a request body that can be rewound, so a request is
// served repeatedly without allocating a new one.
type reusedBody struct{ bytes.Reader }

func (*reusedBody) Close() error { return nil }

// memWriter is a reusable http.ResponseWriter.
type memWriter struct {
	h    http.Header
	code int
	buf  bytes.Buffer
}

func (m *memWriter) Header() http.Header         { return m.h }
func (m *memWriter) WriteHeader(code int)        { m.code = code }
func (m *memWriter) Write(p []byte) (int, error) { return m.buf.Write(p) }
func (m *memWriter) reset()                      { clear(m.h); m.code = http.StatusOK; m.buf.Reset() }

// wireQueries returns serve_zipf-shaped queries of the given size in wire form,
// with the dataset they were drawn from.
func wireQueries(t testing.TB, edges int) (*graph.Dataset, [][]byte) {
	ds := gen.Synthetic(gen.SynthConfig{NumGraphs: 60, MeanNodes: 40, MeanDensity: 0.06, NumLabels: 4, Seed: 1})
	qs, err := workload.Generate(ds, workload.Config{NumQueries: 8, QueryEdges: edges, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([][]byte, len(qs))
	for i, q := range qs {
		if bodies[i], err = json.Marshal(GraphToJSON(q, &ds.Dict)); err != nil {
			t.Fatal(err)
		}
	}
	return ds, bodies
}

// TestDecodeQueryAllocs: a query body becomes a graph in the graph's own
// four allocations (Graph, labels, adjacency headers, arena); the read,
// the parse and the label lookups allocate nothing.
func TestDecodeQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	ds, bodies := wireQueries(t, 8)
	body := &reusedBody{}
	req, err := http.NewRequest(http.MethodPost, "/query", body)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bodies {
		req.ContentLength = int64(len(b))
		got := testing.AllocsPerRun(50, func() {
			body.Reset(b)
			if _, _, err := ReadQuery(req, &ds.Dict); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%.1f allocations per decode", got)
		if got > 4 {
			t.Errorf("decoding %s: %.1f allocations, want <= 4", b, got)
		}
	}
}

// TestServeHitAllocs: a cached 8-edge POST /query through the handler,
// with the request and response writer reused, stays within a fixed
// allocation budget (56 before the wire decoder).
func TestServeHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	ds, bodies := wireQueries(t, 8)
	eng, err := engine.Open(context.Background(), ds, engine.WithSpec("ggsx"))
	if err != nil {
		t.Fatal(err)
	}
	h := New(eng, Config{Spec: "ggsx"}).Handler()
	body := &reusedBody{}
	req, err := http.NewRequest(http.MethodPost, "/query", body)
	if err != nil {
		t.Fatal(err)
	}
	rw := &memWriter{h: http.Header{}}
	for _, b := range bodies {
		req.ContentLength = int64(len(b))
		serve := func() {
			body.Reset(b)
			rw.reset()
			h.ServeHTTP(rw, req)
		}
		serve() // the miss that fills the cache
		if rw.code != http.StatusOK || !bytes.Contains(rw.buf.Bytes(), []byte(`"cached":false`)) {
			t.Fatalf("first serve of %s: %d %s", b, rw.code, rw.buf.Bytes())
		}
		got := testing.AllocsPerRun(50, serve)
		if !bytes.Contains(rw.buf.Bytes(), []byte(`"cached":true`)) {
			t.Fatalf("repeat of %s was not a hit: %s", b, rw.buf.Bytes())
		}
		t.Logf("%.1f allocations per hit", got)
		if got > 24 {
			t.Errorf("cached POST /query of %s: %.1f allocations, want <= 24", b, got)
		}
	}
}

// BenchmarkDecodeQuery: a query body to a graph, the wire decoder against
// the reflection decode it replaced, over random-walk queries of each
// size from 40-vertex graphs with 4 labels.
func BenchmarkDecodeQuery(b *testing.B) {
	for _, edges := range []int{4, 8, 16, 32} {
		ds, bodies := wireQueries(b, edges)
		for _, dec := range []struct {
			name string
			run  func([]byte) error
		}{
			{"wire", func(body []byte) error {
				_, _, err := wireDecode(body, &ds.Dict, false)
				return err
			}},
			{"reference", func(body []byte) error {
				_, _, _, err := refDecode(body, &ds.Dict, false)
				return err
			}},
		} {
			b.Run(fmt.Sprintf("edges=%d/%s", edges, dec.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; b.Loop(); i++ {
					if err := dec.run(bodies[i%len(bodies)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
