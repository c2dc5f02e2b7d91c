package ggsx

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/diskfmt"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Container layout for GGSX. The trie is flattened post-order into
// one record stream: each node stores its roaring-compressed posting ids,
// parallel counts, and a label-sorted child table pointing at child record
// offsets. Children are written before parents, so every offset in a
// child table refers backwards and the root record — whose offset the
// meta section records — comes last. A query materializes exactly the
// nodes its query trie visits.
//
//	secTrieMeta  maxPathLen, numGraphs, nodeCount (excl. root), rootOff (4×u32)
//	secNodes     per node: card u32, nChildren u32, pLen u32,
//	             roaring ids [pLen], counts card×u32,
//	             children nChildren × {label u32, off u32}, labels ascending
const (
	secTrieMeta = 1
	secNodes    = 2
)

var (
	_ core.Persistable     = (*Index)(nil)
	_ core.StorageSelector = (*Index)(nil)
	_ core.Warmable        = (*Index)(nil)
)

// StorageMode implements core.StorageSelector.
func (ix *Index) StorageMode() string { return core.StorageMode(ix.opts.Storage) }

// SaveIndex implements core.Persistable. A mapped index is written from
// its mapped nodes section once its checksum holds, and stays mapped: the
// caller may hold only a read lock, under which queries still read the
// mapping.
func (ix *Index) SaveIndex(w *diskfmt.Writer) error {
	if !ix.built {
		return fmt.Errorf("ggsx: save before Build")
	}
	if lz := ix.lazy; lz != nil {
		nodes, err := lz.r.Section(secNodes) // checks the CRC
		if err != nil {
			return fmt.Errorf("ggsx: save: %w", err)
		}
		w.AddSection(secTrieMeta, ix.meta(lz.nodeCount, lz.rootOff))
		w.AddSection(secNodes, nodes)
		return nil
	}
	var nodes []byte
	nodeCount := 0
	var emit func(n *node) uint32
	emit = func(n *node) uint32 {
		childOffs := make([]uint32, len(n.kids))
		for i, c := range n.kids {
			childOffs[i] = emit(c)
			nodeCount++
		}
		off := uint32(len(nodes))
		nodes = binary.LittleEndian.AppendUint32(nodes, uint32(len(n.ids)))
		nodes = binary.LittleEndian.AppendUint32(nodes, uint32(len(n.kids)))
		pLen := len(nodes)
		nodes = diskfmt.AppendIDs(append(nodes, 0, 0, 0, 0), n.ids)
		binary.LittleEndian.PutUint32(nodes[pLen:], uint32(len(nodes)-pLen-4))
		for _, c := range n.counts {
			nodes = binary.LittleEndian.AppendUint32(nodes, uint32(c))
		}
		for i, l := range n.labels {
			nodes = binary.LittleEndian.AppendUint32(nodes, uint32(l))
			nodes = binary.LittleEndian.AppendUint32(nodes, childOffs[i])
		}
		return off
	}
	rootOff := emit(ix.root)
	w.AddSection(secTrieMeta, ix.meta(nodeCount, rootOff))
	w.AddSection(secNodes, nodes)
	return nil
}

// meta encodes the meta section.
func (ix *Index) meta(nodeCount int, rootOff uint32) []byte {
	meta := binary.LittleEndian.AppendUint32(nil, uint32(ix.opts.MaxPathLen))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(ix.nGr))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(nodeCount))
	return binary.LittleEndian.AppendUint32(meta, rootOff)
}

// LoadIndex implements core.Persistable. storage=heap decodes the whole
// trie eagerly; storage=mmap touches only the meta section and resolves
// trie nodes on demand, taking ownership of the reader.
func (ix *Index) LoadIndex(r *diskfmt.Reader, ds *graph.Dataset) error {
	meta, err := r.Section(secTrieMeta)
	if err != nil {
		return fmt.Errorf("ggsx: load: %w", err)
	}
	if len(meta) != 16 {
		return fmt.Errorf("ggsx: load: meta section of %d bytes", len(meta))
	}
	numGraphs := int(binary.LittleEndian.Uint32(meta[4:]))
	if numGraphs != ds.Len() {
		return fmt.Errorf("ggsx: load: index covers %d graphs, dataset has %d", numGraphs, ds.Len())
	}
	opts := Options{MaxPathLen: int(binary.LittleEndian.Uint32(meta)), Storage: ix.opts.Storage}
	if err := diskfmt.CheckSizeParams(opts.MaxPathLen); err != nil {
		return fmt.Errorf("ggsx: load: %w", err)
	}
	ix.opts = opts
	ix.opts.fill()
	lz := &lazyTrie{
		r:         r,
		nGraphs:   numGraphs,
		nodeCount: int(binary.LittleEndian.Uint32(meta[8:])),
		rootOff:   binary.LittleEndian.Uint32(meta[12:]),
		nodes:     make(map[uint32]*lnode),
	}

	if ix.StorageMode() == core.StorageMmap {
		ix.root = nil
		ix.lazy = lz
		ix.nGr = numGraphs
		ix.built = true
		return nil
	}

	if err := r.VerifySection(secNodes); err != nil {
		return fmt.Errorf("ggsx: load: %w", err)
	}
	root, err := lz.decodeSubtree(lz.rootOff)
	if err != nil {
		return fmt.Errorf("ggsx: load: %w", err)
	}
	ix.root = root
	ix.lazy = nil
	ix.nGr = numGraphs
	ix.built = true
	return nil
}

// WarmIndex implements core.Warmable: resolve the root record so the
// first query starts from a warm trie top. Child subtrees stay lazy.
func (ix *Index) WarmIndex() {
	if lz := ix.lazy; lz != nil {
		lz.node(lz.rootOff)
	}
}

// Close releases the container mapping behind a storage=mmap index that
// will not be queried again; a heap-resident index holds none.
func (ix *Index) Close() error {
	if ix.lazy == nil {
		return nil
	}
	return ix.lazy.r.Close()
}

// materializeAll decodes the whole trie into heap nodes and releases the
// mapping; mutations splice heap structures and require it. The engine
// mutates under its write lock, so no query or warm-up still reads the
// mapping released here.
func (ix *Index) materializeAll() error {
	lz := ix.lazy
	if lz == nil {
		return nil
	}
	root, err := lz.decodeSubtree(lz.rootOff)
	if err != nil {
		return fmt.Errorf("ggsx: materialize: %w", err)
	}
	ix.root = root
	ix.lazy = nil
	obs.IndexResidentSet("GGSX", core.StorageMmap, 0)
	return lz.r.Close()
}

// lnode is a materialized lazy trie node: its posting, decoded to the
// heap, and its child table, read in place from the mapping.
type lnode struct {
	posting
	// kids is the record's child table: {label u32, off u32} entries with
	// labels strictly ascending and offsets below the record's own.
	kids []byte
}

// child returns the record offset of the child under label l.
func (ln *lnode) child(l graph.Label) (uint32, bool) {
	lo, hi := 0, len(ln.kids)/8
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if graph.Label(binary.LittleEndian.Uint32(ln.kids[8*m:])) < l {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(ln.kids)/8 || graph.Label(binary.LittleEndian.Uint32(ln.kids[8*lo:])) != l {
		return 0, false
	}
	return binary.LittleEndian.Uint32(ln.kids[8*lo+4:]), true
}

// lazyTrie resolves trie node records on demand from the mapped nodes
// section, caching materialized nodes by offset.
type lazyTrie struct {
	r         *diskfmt.Reader
	rootOff   uint32
	nGraphs   int
	nodeCount int

	mu       sync.RWMutex
	raw      []byte // secNodes, fetched lazily (unverified: decode bounds-checks)
	nodes    map[uint32]*lnode
	resident int64
}

// section returns the nodes section. Callers hold lz.mu.
func (lz *lazyTrie) section() ([]byte, error) {
	if lz.raw != nil {
		return lz.raw, nil
	}
	b, err := lz.r.SectionLazy(secNodes)
	if err != nil {
		return nil, err
	}
	lz.raw = b
	return b, nil
}

// node materializes (and caches) the record at off.
func (lz *lazyTrie) node(off uint32) (*lnode, error) {
	lz.mu.RLock()
	n, ok := lz.nodes[off]
	lz.mu.RUnlock()
	if ok {
		return n, nil
	}
	lz.mu.Lock()
	defer lz.mu.Unlock()
	if n, ok = lz.nodes[off]; ok {
		return n, nil
	}
	n, err := lz.decodeNode(off)
	if err != nil {
		return nil, err
	}
	lz.nodes[off] = n
	delta := n.size() + 64
	lz.resident += delta
	obs.IndexLazyLoadInc("GGSX")
	obs.IndexResidentAdd("GGSX", core.StorageMmap, delta)
	return n, nil
}

// decodeNode decodes the single record at off. Callers hold lz.mu.
func (lz *lazyTrie) decodeNode(off uint32) (*lnode, error) {
	raw, err := lz.section()
	if err != nil {
		return nil, err
	}
	if uint64(off)+12 > uint64(len(raw)) {
		return nil, fmt.Errorf("ggsx: trie record at %d out of bounds", off)
	}
	card := binary.LittleEndian.Uint32(raw[off:])
	nCh := binary.LittleEndian.Uint32(raw[off+4:])
	pLen := binary.LittleEndian.Uint32(raw[off+8:])
	base := uint64(off) + 12
	end := base + uint64(pLen) + 4*uint64(card) + 8*uint64(nCh)
	if end > uint64(len(raw)) {
		return nil, fmt.Errorf("ggsx: trie record at %d overruns section", off)
	}
	ps, err := diskfmt.MakePostings(raw[base : base+uint64(pLen)])
	if err != nil {
		return nil, err
	}
	ids, err := ps.DecodeIDs(lz.nGraphs)
	if err != nil {
		return nil, err
	}
	if uint32(len(ids)) != card {
		return nil, fmt.Errorf("ggsx: trie record at %d holds %d ids, header says %d", off, len(ids), card)
	}
	n := &lnode{posting: posting{ids: ids, counts: make([]int32, card)}}
	countsAt := base + uint64(pLen)
	for i := uint32(0); i < card; i++ {
		n.counts[i] = int32(binary.LittleEndian.Uint32(raw[countsAt+4*uint64(i):]))
	}
	n.index()
	chAt := countsAt + 4*uint64(card)
	n.kids = raw[chAt:end:end]
	for i := 0; i < int(nCh); i++ {
		l := binary.LittleEndian.Uint32(n.kids[8*i:])
		if i > 0 && l <= binary.LittleEndian.Uint32(n.kids[8*i-8:]) {
			return nil, fmt.Errorf("ggsx: trie record at %d has child labels out of order", off)
		}
		if cOff := binary.LittleEndian.Uint32(n.kids[8*i+4:]); cOff >= off {
			return nil, fmt.Errorf("ggsx: trie record at %d has forward child offset %d", off, cOff)
		}
	}
	return n, nil
}

// decodeSubtree materializes the record at off and its whole subtree into
// heap nodes. Child offsets strictly decrease, so the walk terminates; the
// budget of nodeCount+1 records stops a damaged file whose records share
// children from expanding exponentially.
func (lz *lazyTrie) decodeSubtree(off uint32) (*node, error) {
	lz.mu.Lock()
	defer lz.mu.Unlock()
	budget := lz.nodeCount + 1
	var walk func(off uint32) (*node, error)
	walk = func(off uint32) (*node, error) {
		if budget--; budget < 0 {
			return nil, fmt.Errorf("ggsx: trie holds more than its %d recorded nodes", lz.nodeCount)
		}
		ln, err := lz.decodeNode(off)
		if err != nil {
			return nil, err
		}
		nCh := len(ln.kids) / 8
		n := &node{posting: ln.posting, labels: make([]graph.Label, nCh), kids: make([]*node, nCh)}
		for i := range nCh {
			n.labels[i] = graph.Label(binary.LittleEndian.Uint32(ln.kids[8*i:]))
			if n.kids[i], err = walk(binary.LittleEndian.Uint32(ln.kids[8*i+4:])); err != nil {
				return nil, err
			}
		}
		return n, nil
	}
	return walk(off)
}

// residentBytes estimates heap bytes pinned by materialized nodes.
func (lz *lazyTrie) residentBytes() int64 {
	lz.mu.RLock()
	defer lz.mu.RUnlock()
	return lz.resident
}

// trieRef is a resolved reference to one index trie node — a heap *node,
// or a materialized lazy record. The query path walks trieRefs so the
// same matching code serves both storage modes.
type trieRef struct {
	hn *node
	lz *lazyTrie
	ln *lnode
}

// rootRef resolves the trie root.
func (ix *Index) rootRef() (trieRef, error) {
	if ix.lazy != nil {
		ln, err := ix.lazy.node(ix.lazy.rootOff)
		if err != nil {
			return trieRef{}, err
		}
		return trieRef{lz: ix.lazy, ln: ln}, nil
	}
	return trieRef{hn: ix.root}, nil
}

// child resolves the edge labeled l, materializing the child in lazy mode.
func (t trieRef) child(l graph.Label) (trieRef, bool, error) {
	if t.hn != nil {
		c := t.hn.lookup(l)
		return trieRef{hn: c}, c != nil, nil
	}
	off, ok := t.ln.child(l)
	if !ok {
		return trieRef{}, false, nil
	}
	ln, err := t.lz.node(off)
	if err != nil {
		return trieRef{}, false, err
	}
	return trieRef{lz: t.lz, ln: ln}, true, nil
}

// posting returns the node's posting.
func (t trieRef) posting() *posting {
	if t.hn != nil {
		return &t.hn.posting
	}
	return &t.ln.posting
}
