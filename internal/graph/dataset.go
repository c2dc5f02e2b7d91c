package graph

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Dictionary interns string vertex labels to dense Label values. It is used
// when loading external data; synthetic generators produce Labels directly.
// The zero value is ready for use, and every method is safe for concurrent
// use: a server resolves query labels while POST /graphs interns new ones.
// Reads take the read lock only and never allocate. A Dictionary must not
// be copied; CopyFrom takes a snapshot of another one.
type Dictionary struct {
	mu     sync.RWMutex
	byName map[string]Label
	names  []string
}

// Intern returns the Label for name, assigning the next dense id on first use.
func (d *Dictionary) Intern(name string) Label {
	if l, ok := d.Lookup(name); ok {
		return l
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if l, ok := d.byName[name]; ok {
		return l
	}
	if d.byName == nil {
		d.byName = make(map[string]Label)
	}
	l := Label(len(d.names))
	d.byName[name] = l
	d.names = append(d.names, name)
	return l
}

// Lookup returns the Label for name if it has been interned.
func (d *Dictionary) Lookup(name string) (Label, bool) {
	d.mu.RLock()
	l, ok := d.byName[name]
	d.mu.RUnlock()
	return l, ok
}

// LookupBytes is Lookup for a label held as bytes, without making a string
// of them.
func (d *Dictionary) LookupBytes(name []byte) (Label, bool) {
	d.mu.RLock()
	l, ok := d.byName[string(name)]
	d.mu.RUnlock()
	return l, ok
}

// Name returns the string for a Label; Labels never interned map to "".
func (d *Dictionary) Name(l Label) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(l) < 0 || int(l) >= len(d.names) {
		return ""
	}
	return d.names[l]
}

// Len returns the number of interned labels.
func (d *Dictionary) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.names)
}

// Names returns the interned label names in Label order.
func (d *Dictionary) Names() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return append([]string(nil), d.names...)
}

// CopyFrom replaces d's contents with a snapshot of src: the two share no
// state afterwards, so labels interned into either stay private to it.
func (d *Dictionary) CopyFrom(src *Dictionary) {
	names := src.Names()
	byName := make(map[string]Label, len(names))
	for i, n := range names {
		byName[n] = Label(i)
	}
	d.mu.Lock()
	d.byName, d.names = byName, names
	d.mu.Unlock()
}

// Dataset is an ordered collection of graphs sharing one label space.
//
// Datasets are mutable: Add appends a graph under a fresh ID and Remove
// tombstones one in place. IDs are positional and never reused — a removed
// graph's slot stays occupied (so persisted indexes keyed by ID stay
// aligned) but Graph returns nil for it and Alive reports false. Every
// mutation bumps the dataset's monotonically increasing Epoch, the version
// stamp caches and persisted indexes validate against.
//
// Mutating a dataset concurrently with readers is not safe; the engine
// layer serializes mutations against queries. Dict, Epoch and Counts are
// the exceptions: they are safe under concurrent mutation.
//
// A graph must be complete when it is added — every generator, the file
// reader and the serving layer build the graph first — because Add seals it
// (see Graph) and folds its content into VersionTag once; changing it
// afterwards unseals it and leaves the tag describing the graph as it was
// added.
type Dataset struct {
	Name   string
	Graphs []*Graph
	Dict   Dictionary

	removed map[ID]struct{}
	epoch   atomic.Uint64
	// tag is the wrapping sum of every slot's slotTerm (see VersionTag).
	tag uint64
	// slots and dead mirror len(Graphs) and len(removed) for Counts, which
	// readers call without the lock that serializes mutations.
	slots, dead atomic.Int64
}

// NewDataset returns an empty dataset with the given name.
func NewDataset(name string) *Dataset {
	return &Dataset{Name: name}
}

// Add seals g and appends it to the dataset, assigning it the next
// dataset-local ID and bumping the epoch. A graph that is already sealed
// (a shard's re-homed copy of a graph its global dataset holds) is not
// sealed again.
func (ds *Dataset) Add(g *Graph) ID {
	id := ID(len(ds.Graphs))
	g.SetID(id)
	g.Seal()
	ds.Graphs = append(ds.Graphs, g)
	ds.tag += slotTerm(id, g)
	ds.slots.Add(1)
	ds.epoch.Add(1)
	return id
}

// Remove tombstones the graph with the given ID and bumps the epoch,
// reporting whether a live graph was removed. The slot is retained — IDs
// are positional and never reused — but Graph returns nil for it, Alive
// reports false, and FilterLive drops it from candidate sets.
func (ds *Dataset) Remove(id ID) bool {
	if !ds.Alive(id) {
		return false
	}
	if ds.removed == nil {
		ds.removed = make(map[ID]struct{})
	}
	ds.removed[id] = struct{}{}
	ds.tag += slotTerm(id, nil) - slotTerm(id, ds.Graphs[id])
	ds.dead.Add(1)
	ds.epoch.Add(1)
	return true
}

// Prefix returns a read-only view of ds's first n slots, sharing their
// graphs, in which a slot is live when it is live in ds or listed in
// revive. It reconstructs an earlier state of ds — the n slots it held
// then, with the graphs removed since then live again — for validating an
// index persisted at that state. The view's Epoch and VersionTag are not
// that state's, and it must not be mutated.
func (ds *Dataset) Prefix(n int, revive []ID) *Dataset {
	v := &Dataset{Name: ds.Name, Graphs: ds.Graphs[:n:n], removed: make(map[ID]struct{})}
	for id := range ds.removed {
		if int(id) < n {
			v.removed[id] = struct{}{}
		}
	}
	for _, id := range revive {
		delete(v.removed, id)
	}
	v.slots.Store(int64(n))
	v.dead.Store(int64(len(v.removed)))
	return v
}

// Alive reports whether id names a live (present and not removed) graph.
func (ds *Dataset) Alive(id ID) bool {
	if int(id) < 0 || int(id) >= len(ds.Graphs) {
		return false
	}
	_, dead := ds.removed[id]
	return !dead
}

// Epoch returns the dataset's version: a counter bumped by every Add and
// Remove (loading a dataset counts one Add per graph). Two reads returning
// the same value bracket an unchanged dataset, which is what the serving
// layer's result cache and the persisted index files key on.
func (ds *Dataset) Epoch() uint64 { return ds.epoch.Load() }

// VersionTag returns a content fingerprint of the dataset in O(1): the
// wrapping sum, over every slot, of a hash of the slot's id and either the
// live graph's vertex labels and edge list or, for a tombstoned slot, a
// sentinel. Add adds its graph's term and Remove swaps that term for the
// sentinel's, each in O(graph), so the tag is never recomputed. Persisted
// indexes store it next to the epoch: the epoch alone is an operation
// counter, so two different mutation histories of equal length (remove 3
// vs remove 5, or adds of different graphs) would collide on it, and a
// stale index could restore silently against the wrong content. The sum
// is seeded so that no dataset's tag is the zero stamp of an unbound file.
func (ds *Dataset) VersionTag() uint64 { return offset64 + ds.tag }

const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// slotTerm is slot id's summand of VersionTag: FNV-1a over the id and the
// graph's vertex count, labels and edges (or, with g nil, a sentinel no
// vertex count can equal), finished with splitmix64's mixer so that the
// sum of terms depends on every bit of each.
func slotTerm(id ID, g *Graph) uint64 {
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	mix(uint64(uint32(id)))
	if g == nil {
		mix(^uint64(0))
	} else {
		mix(uint64(g.NumVertices()))
		for _, l := range g.Labels() {
			mix(uint64(uint32(l)))
		}
		for v := int32(0); int(v) < g.NumVertices(); v++ {
			for _, w := range g.Neighbors(v) {
				if w > v {
					mix(uint64(uint32(v))<<32 | uint64(uint32(w)))
				}
			}
		}
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// Counts returns the live and tombstoned graph counts. Unlike NumAlive and
// NumRemoved it is safe to call while another goroutine mutates the
// dataset, so a server's /stats never waits on a running mutation.
func (ds *Dataset) Counts() (live, removed int) {
	dead := ds.dead.Load()
	return int(ds.slots.Load() - dead), int(dead)
}

// NumRemoved returns the number of tombstoned graphs.
func (ds *Dataset) NumRemoved() int { return len(ds.removed) }

// NumAlive returns the number of live graphs (Len minus tombstones).
func (ds *Dataset) NumAlive() int { return len(ds.Graphs) - len(ds.removed) }

// Len returns the number of graph slots, tombstoned ones included; it is
// also one past the largest ID ever assigned.
func (ds *Dataset) Len() int { return len(ds.Graphs) }

// Graph returns the live graph with the given dataset-local ID, or nil for
// out-of-range and tombstoned IDs.
func (ds *Dataset) Graph(id ID) *Graph {
	if !ds.Alive(id) {
		return nil
	}
	return ds.Graphs[id]
}

// LiveIDSet returns the sorted IDs of all live graphs.
func (ds *Dataset) LiveIDSet() IDSet {
	out := make(IDSet, 0, ds.NumAlive())
	for i := range ds.Graphs {
		if _, dead := ds.removed[ID(i)]; !dead {
			out = append(out, ID(i))
		}
	}
	return out
}

// FilterLive returns s with tombstoned and out-of-range IDs dropped. With
// no tombstones it returns s unchanged (no allocation), so the common
// immutable path pays nothing.
func (ds *Dataset) FilterLive(s IDSet) IDSet {
	if len(ds.removed) == 0 {
		if len(s) == 0 || int(s[len(s)-1]) < len(ds.Graphs) {
			return s
		}
	}
	out := make(IDSet, 0, len(s))
	for _, id := range s {
		if ds.Alive(id) {
			out = append(out, id)
		}
	}
	return out
}

// MaxLabel returns the largest label value used by any graph — tombstoned
// slots included, so the result stays a safe upper bound for label-keyed
// arrays sized at build time — or -1 for an empty dataset. Labels interned
// after a structure was sized can still exceed it: consumers must
// bounds-check (and treat unseen labels as unused/rarest) rather than
// index blindly.
func (ds *Dataset) MaxLabel() Label {
	max := Label(-1)
	for _, g := range ds.Graphs {
		for _, l := range g.Labels() {
			if l > max {
				max = l
			}
		}
	}
	return max
}

// Validate validates every member graph.
func (ds *Dataset) Validate() error {
	for i, g := range ds.Graphs {
		if g.ID() != ID(i) {
			return fmt.Errorf("dataset %q: graph at position %d has id %d", ds.Name, i, g.ID())
		}
		if err := g.Validate(); err != nil {
			return fmt.Errorf("dataset %q graph %d: %w", ds.Name, i, err)
		}
	}
	return nil
}

// Stats summarizes a dataset with the characteristics reported in Table 1 of
// the paper.
type Stats struct {
	NumGraphs         int
	NumDisconnected   int
	NumLabels         int     // distinct labels across the dataset
	AvgNodes          float64 // mean vertices per graph
	StdDevNodes       float64
	AvgEdges          float64
	AvgDensity        float64
	AvgDegree         float64
	AvgLabelsPerGraph float64 // mean distinct labels per graph
}

// ComputeStats scans the live graphs and returns their Table 1-style
// summary; tombstoned graphs are excluded.
func (ds *Dataset) ComputeStats() Stats {
	s := Stats{NumGraphs: ds.NumAlive()}
	if s.NumGraphs == 0 {
		return s
	}
	labels := make(map[Label]struct{})
	var sumN, sumN2, sumE, sumD, sumDeg, sumLG float64
	for _, g := range ds.Graphs {
		if !ds.Alive(g.ID()) {
			continue
		}
		n := float64(g.NumVertices())
		sumN += n
		sumN2 += n * n
		sumE += float64(g.NumEdges())
		sumD += g.Density()
		sumDeg += g.AvgDegree()
		gl := g.DistinctLabels()
		sumLG += float64(len(gl))
		for _, l := range gl {
			labels[l] = struct{}{}
		}
		if !g.IsConnected() {
			s.NumDisconnected++
		}
	}
	n := float64(s.NumGraphs)
	s.NumLabels = len(labels)
	s.AvgNodes = sumN / n
	variance := sumN2/n - s.AvgNodes*s.AvgNodes
	if variance > 0 {
		s.StdDevNodes = math.Sqrt(variance)
	}
	s.AvgEdges = sumE / n
	s.AvgDensity = sumD / n
	s.AvgDegree = sumDeg / n
	s.AvgLabelsPerGraph = sumLG / n
	return s
}

// SizeBytes estimates the in-memory footprint of all graphs.
func (ds *Dataset) SizeBytes() int64 {
	var sz int64
	for _, g := range ds.Graphs {
		sz += g.SizeBytes()
	}
	return sz
}

// IDSet is a sorted set of graph IDs, the currency of filtering: postings
// lists, candidate sets, and answer sets are all IDSets.
type IDSet []ID

// NewIDSet returns a sorted, deduplicated IDSet from ids.
func NewIDSet(ids ...ID) IDSet {
	s := append(IDSet(nil), ids...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:0]
	var prev ID = -1
	for _, id := range s {
		if id != prev {
			out = append(out, id)
			prev = id
		}
	}
	return out
}

// UniverseIDSet returns {0, 1, ..., n-1}.
func UniverseIDSet(n int) IDSet {
	s := make(IDSet, n)
	for i := range s {
		s[i] = ID(i)
	}
	return s
}

// Contains reports whether id is in the set.
func (s IDSet) Contains(id ID) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	return i < len(s) && s[i] == id
}

// Intersect returns the intersection of two sorted IDSets.
func (s IDSet) Intersect(t IDSet) IDSet {
	// Iterate the smaller, binary-search or merge the larger.
	if len(s) > len(t) {
		s, t = t, s
	}
	out := make(IDSet, 0, len(s))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] == t[j]:
			out = append(out, s[i])
			i++
			j++
		case s[i] < t[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// Union returns the union of two sorted IDSets.
func (s IDSet) Union(t IDSet) IDSet {
	out := make(IDSet, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) || j < len(t) {
		switch {
		case j >= len(t) || (i < len(s) && s[i] < t[j]):
			out = append(out, s[i])
			i++
		case i >= len(s) || t[j] < s[i]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

// Equal reports whether two IDSets hold the same ids.
func (s IDSet) Equal(t IDSet) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}
