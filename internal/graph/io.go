package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// The text serialization follows the GFD format used by the Grapes and
// GraphGrepSX distributions, one graph after another:
//
//	#<graph name>
//	<number of vertices>
//	<label of vertex 0>
//	...
//	<label of vertex n-1>
//	<number of edges>
//	<u> <v>
//	...
//
// Labels are arbitrary whitespace-free strings interned into the dataset
// Dictionary; edges are undirected vertex-id pairs.

// WriteDataset serializes the dataset in GFD text form.
func WriteDataset(w io.Writer, ds *Dataset) error {
	bw := bufio.NewWriter(w)
	for _, g := range ds.Graphs {
		if !ds.Alive(g.ID()) {
			continue // tombstoned graphs compact away on save
		}
		if _, err := fmt.Fprintf(bw, "#%d\n%d\n", g.ID(), g.NumVertices()); err != nil {
			return err
		}
		for v := int32(0); int(v) < g.NumVertices(); v++ {
			name := ds.Dict.Name(g.Label(v))
			if name == "" {
				name = strconv.Itoa(int(g.Label(v)))
			}
			if _, err := fmt.Fprintln(bw, name); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw, g.NumEdges()); err != nil {
			return err
		}
		for _, e := range g.Edges() {
			if _, err := fmt.Fprintf(bw, "%d %d\n", e[0], e[1]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadDataset parses a GFD text stream into a dataset named name. Labels
// are interned into the dataset's own fresh dictionary; use
// ReadDatasetWithDict when the stream must share a label space with an
// already-loaded dataset (query files against their data file).
func ReadDataset(r io.Reader, name string) (*Dataset, error) {
	ds := NewDataset(name)
	return ds, readDatasetInto(ds, r, &ds.Dict)
}

// ReadDatasetWithDict parses a GFD text stream, interning labels into dict
// so that label IDs agree with every other dataset loaded through the same
// dictionary. Labels first seen in this stream are appended to dict, and
// the returned dataset's Dict is a copy of dict afterwards.
func ReadDatasetWithDict(r io.Reader, name string, dict *Dictionary) (*Dataset, error) {
	ds := NewDataset(name)
	err := readDatasetInto(ds, r, dict)
	ds.Dict.CopyFrom(dict)
	return ds, err
}

// readDatasetInto appends the stream's graphs to ds, interning labels into
// dict.
func readDatasetInto(ds *Dataset, r io.Reader, dict *Dictionary) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	next := func() (string, bool) {
		for sc.Scan() {
			line++
			s := strings.TrimSpace(sc.Text())
			if s != "" {
				return s, true
			}
		}
		return "", false
	}
	for {
		header, ok := next()
		if !ok {
			break
		}
		if !strings.HasPrefix(header, "#") {
			return fmt.Errorf("graph: line %d: expected #<name> header, got %q", line, header)
		}
		ns, ok := next()
		if !ok {
			return fmt.Errorf("graph: line %d: missing vertex count", line)
		}
		n, err := strconv.Atoi(ns)
		if err != nil || n < 0 || n > math.MaxInt32 {
			return fmt.Errorf("graph: line %d: bad vertex count %q", line, ns)
		}
		// The count is input: reserve at most 64k vertices up front, so a
		// forged count fails on its missing labels, not on the allocation.
		g := NewWithCapacity(ID(ds.Len()), min(n, 1<<16))
		for i := 0; i < n; i++ {
			ls, ok := next()
			if !ok {
				return fmt.Errorf("graph: line %d: missing label %d/%d", line, i+1, n)
			}
			g.AddVertex(dict.Intern(ls))
		}
		es, ok := next()
		if !ok {
			return fmt.Errorf("graph: line %d: missing edge count", line)
		}
		m, err := strconv.Atoi(es)
		if err != nil || m < 0 {
			return fmt.Errorf("graph: line %d: bad edge count %q", line, es)
		}
		for i := 0; i < m; i++ {
			el, ok := next()
			if !ok {
				return fmt.Errorf("graph: line %d: missing edge %d/%d", line, i+1, m)
			}
			fields := strings.Fields(el)
			if len(fields) != 2 {
				return fmt.Errorf("graph: line %d: bad edge %q", line, el)
			}
			u, err1 := strconv.Atoi(fields[0])
			v, err2 := strconv.Atoi(fields[1])
			if err1 != nil || err2 != nil {
				return fmt.Errorf("graph: line %d: bad edge %q", line, el)
			}
			if err := g.AddEdge(int32(u), int32(v)); err != nil {
				return fmt.Errorf("graph: line %d: %w", line, err)
			}
		}
		ds.Add(g)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("graph: read: %w", err)
	}
	return nil
}

// LoadDatasetFile reads a GFD dataset from path.
func LoadDatasetFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadDataset(f, path)
}

// LoadDatasetFileWithDict reads a GFD dataset from path, sharing dict with
// previously loaded data so label IDs agree across files (a query file must
// be loaded with its data file's dictionary, or its labels filter against
// the wrong IDs).
func LoadDatasetFileWithDict(path string, dict *Dictionary) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadDatasetWithDict(f, path, dict)
}

// SaveDatasetFile writes the dataset in GFD text form to path.
func SaveDatasetFile(path string, ds *Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteDataset(f, ds); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
