package grapes

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/diskfmt"
	"repro/internal/graph"
	"repro/internal/pathkey"
)

// Container layout for Grapes. The feature directory is pathkey's key
// directory, sorted by key bytes so a single feature resolves by binary
// search against the mapping; postings are roaring-compressed id sets
// followed by their location payloads, and component tables get a
// fixed-stride directory so compCount is readable without materializing
// the table.
//
//	secMeta     maxPathLen, workers, numGraphs, numFeatures (4×u32)
//	pathkey.SecKeyDir, pathkey.SecKeyBlob: the key directory (2, 3)
//	pathkey.SecPostings (4) per feature: pLen u32, roaring ids, then per id
//	            ascending: count u32, nStarts u32, starts nStarts×u32
//	secCompDir  numGraphs × {blobOff, nVerts, compCount} (3×u32)
//	secCompBlob concatenated vertex→component arrays (u32 each)
const (
	secMeta     = 1
	secCompDir  = 5
	secCompBlob = 6

	compDirEntrySize = 12
)

var (
	_ core.Persistable     = (*Index)(nil)
	_ core.StorageSelector = (*Index)(nil)
	_ core.Warmable        = (*Index)(nil)
)

// StorageMode implements core.StorageSelector.
func (ix *Index) StorageMode() string { return core.StorageMode(ix.opts.Storage) }

// SaveIndex implements core.Persistable. A counting pass sizes every
// section before a filling pass writes it, so no section grows. A mapped
// index is written from its mapped sections once their checksums hold, and
// stays mapped: the caller may hold only a read lock, under which queries
// still read the mapping.
func (ix *Index) SaveIndex(w *diskfmt.Writer) error {
	if !ix.built {
		return fmt.Errorf("grapes: save before Build")
	}
	if lz := ix.lazy; lz != nil {
		w.AddSection(secMeta, ix.meta(lz.nGraphs, lz.keys.Len()))
		if err := lz.keys.CopyTo(w, secCompDir, secCompBlob); err != nil {
			return fmt.Errorf("grapes: save: %w", err)
		}
		return nil
	}

	w.AddSection(secMeta, ix.meta(len(ix.comps), len(ix.features)))
	pathkey.WriteDir(w, ix.features, cardinality, func(p *posting) int {
		n := 4 + diskfmt.EncodedIDsLen(p.ids) + 8*len(p.ids)
		for _, loc := range p.locs {
			n += 4 * len(loc.starts)
		}
		return n
	}, func(post []byte, p *posting) []byte {
		off := len(post)
		post = diskfmt.AppendIDs(append(post, 0, 0, 0, 0), p.ids)
		binary.LittleEndian.PutUint32(post[off:], uint32(len(post)-off-4))
		for i := range p.ids {
			post = binary.LittleEndian.AppendUint32(post, uint32(p.locs[i].count))
			post = binary.LittleEndian.AppendUint32(post, uint32(len(p.locs[i].starts)))
			for _, s := range p.locs[i].starts {
				post = binary.LittleEndian.AppendUint32(post, uint32(s))
			}
		}
		return post
	})

	nVerts := 0
	for _, comp := range ix.comps {
		nVerts += len(comp)
	}
	compDir := make([]byte, 0, len(ix.comps)*compDirEntrySize)
	compBlob := make([]byte, 0, 4*nVerts)
	for i, comp := range ix.comps {
		compDir = binary.LittleEndian.AppendUint32(compDir, uint32(len(compBlob)))
		compDir = binary.LittleEndian.AppendUint32(compDir, uint32(len(comp)))
		compDir = binary.LittleEndian.AppendUint32(compDir, uint32(ix.compCount[i]))
		for _, c := range comp {
			compBlob = binary.LittleEndian.AppendUint32(compBlob, uint32(c))
		}
	}
	w.AddSection(secCompDir, compDir)
	w.AddSection(secCompBlob, compBlob)
	return nil
}

// meta encodes the meta section.
func (ix *Index) meta(numGraphs, numFeatures int) []byte {
	meta := binary.LittleEndian.AppendUint32(make([]byte, 0, 16), uint32(ix.opts.MaxPathLen))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(ix.opts.Workers))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(numGraphs))
	return binary.LittleEndian.AppendUint32(meta, uint32(numFeatures))
}

// LoadIndex implements core.Persistable. Under storage=heap every section
// is decoded eagerly; under storage=mmap only the 16-byte meta section is
// touched and the index resolves features and component tables lazily
// through the reader, which it then owns (materializeAll closes it).
func (ix *Index) LoadIndex(r *diskfmt.Reader, ds *graph.Dataset) error {
	meta, err := r.Section(secMeta)
	if err != nil {
		return fmt.Errorf("grapes: load: %w", err)
	}
	if len(meta) != 16 {
		return fmt.Errorf("grapes: load: meta section of %d bytes", len(meta))
	}
	numGraphs := int(binary.LittleEndian.Uint32(meta[8:]))
	if numGraphs != ds.Len() {
		return fmt.Errorf("grapes: load: index covers %d graphs, dataset has %d", numGraphs, ds.Len())
	}
	opts := Options{
		MaxPathLen: int(binary.LittleEndian.Uint32(meta)),
		Workers:    int(binary.LittleEndian.Uint32(meta[4:])),
		Storage:    ix.opts.Storage,
	}
	if err := diskfmt.CheckSizeParams(opts.MaxPathLen); err != nil {
		return fmt.Errorf("grapes: load: %w", err)
	}
	ix.opts = opts
	ix.opts.fill()

	lz := &lazyStore{nGraphs: numGraphs}
	lz.keys = pathkey.NewMapped(r, int(binary.LittleEndian.Uint32(meta[12:])), "Grapes", lz.decode, (*posting).residentBytes)
	if ix.StorageMode() == core.StorageMmap {
		ix.features = nil
		ix.comps = nil
		ix.compCount = nil
		ix.graphs = liveGraphs(ds)
		ix.lazy = lz
		ix.built = true
		return nil
	}

	// Heap mode reads everything anyway, so verify every payload CRC up
	// front — a bit-flipped file fails here and triggers a rebuild.
	if err := r.VerifySections(pathkey.SecKeyDir, pathkey.SecKeyBlob, pathkey.SecPostings, secCompDir, secCompBlob); err != nil {
		return fmt.Errorf("grapes: load: %w", err)
	}
	comps, compCount, err := lz.decodeComps()
	if err != nil {
		return fmt.Errorf("grapes: load: %w", err)
	}
	features, err := lz.keys.All()
	if err != nil {
		return fmt.Errorf("grapes: load: %w", err)
	}
	for i, comp := range comps {
		if !ds.Alive(graph.ID(i)) {
			continue
		}
		if len(comp) != ds.Graphs[i].NumVertices() {
			return fmt.Errorf("grapes: load: graph %d has %d vertices, index recorded %d",
				i, ds.Graphs[i].NumVertices(), len(comp))
		}
	}
	ix.features = features
	ix.comps = comps
	ix.compCount = compCount
	ix.graphs = liveGraphs(ds)
	ix.lazy = nil
	ix.built = true
	return nil
}

// WarmIndex implements core.Warmable: fetch and validate the directory
// sections (a small fraction of the file) so first queries resolve
// features without a checksum pass. Postings stay lazy.
func (ix *Index) WarmIndex() {
	if lz := ix.lazy; lz != nil {
		lz.fetch()
	}
}

// Close releases the container mapping behind a storage=mmap index that
// will not be queried again; a heap-resident index holds none.
func (ix *Index) Close() error {
	if ix.lazy == nil {
		return nil
	}
	return ix.lazy.keys.R.Close()
}

// materializeAll converts a lazily-opened index into the fully resident
// form and releases the mapping. Only mutations call it: incremental
// maintenance splices heap structures in place, which mapped sections
// cannot support. The engine mutates under its write lock, so no query or
// warm-up still reads the mapping released here; a save leaves the index
// mapped.
func (ix *Index) materializeAll() error {
	lz := ix.lazy
	if lz == nil {
		return nil
	}
	comps, compCount, err := lz.decodeComps()
	if err != nil {
		return fmt.Errorf("grapes: materialize: %w", err)
	}
	features, err := lz.keys.Materialize()
	if err != nil {
		return fmt.Errorf("grapes: materialize: %w", err)
	}
	ix.features = features
	ix.comps = comps
	ix.compCount = compCount
	ix.lazy = nil
	return nil
}

// lazyStore resolves Grapes index structures on demand from an open
// container, caching what queries touch: the features through their
// mapped key directory, and the component tables in a slice of atomic
// pointers by graph id, filled as pathkey.Mapped fills its postings.
type lazyStore struct {
	keys    *pathkey.Mapped[posting] // owns the reader
	nGraphs int

	once     sync.Once
	err      error // sticky: a section failed to fetch or validate
	compDir  []byte
	compBlob []byte
	comps    []atomic.Pointer[[]int32] // by graph id
}

// fetch resolves the directory and payload sections and validates the
// directories, once; the outcome is sticky.
func (lz *lazyStore) fetch() error {
	lz.once.Do(func() { lz.err = lz.fetchSections() })
	return lz.err
}

func (lz *lazyStore) fetchSections() error {
	// Directories are small and CRC-checked up front; the posting and
	// component payloads stay unverified so only the records a query
	// touches ever fault in (every decode below is bounds-checked).
	r := lz.keys.R
	var err error
	if lz.compDir, err = r.Section(secCompDir); err != nil {
		return err
	}
	if lz.compBlob, err = r.SectionLazy(secCompBlob); err != nil {
		return err
	}
	if len(lz.compDir) != lz.nGraphs*compDirEntrySize {
		return fmt.Errorf("grapes: component directory of %d bytes for %d graphs", len(lz.compDir), lz.nGraphs)
	}
	// Component tables in range with at most one component per vertex.
	// (This reads no dataset state: WarmIndex runs it off the engine's
	// lock.)
	for id := range lz.nGraphs {
		off, nVerts, cc := lz.compEntry(graph.ID(id))
		if cc > nVerts || uint64(off)+4*uint64(nVerts) > uint64(len(lz.compBlob)) {
			return fmt.Errorf("grapes: component table for graph %d out of bounds", id)
		}
	}
	lz.comps = make([]atomic.Pointer[[]int32], lz.nGraphs)
	return lz.keys.Fetch()
}

// compEntry reads graph id's component directory entry.
func (lz *lazyStore) compEntry(id graph.ID) (off, nVerts, cc uint32) {
	e := lz.compDir[int(id)*compDirEntrySize:]
	return binary.LittleEndian.Uint32(e), binary.LittleEndian.Uint32(e[4:]), binary.LittleEndian.Uint32(e[8:])
}

// decode decodes a posting record of card ids. The component directory
// must be fetched: location starts are checked against it.
func (lz *lazyStore) decode(rec []byte, card int) (*posting, error) {
	if len(rec) < 4 {
		return nil, errors.New("grapes: posting record truncated")
	}
	pLen := binary.LittleEndian.Uint32(rec)
	if uint64(4)+uint64(pLen) > uint64(len(rec)) {
		return nil, errors.New("grapes: posting record truncated")
	}
	ps, err := diskfmt.MakePostings(rec[4 : 4+pLen])
	if err != nil {
		return nil, err
	}
	ids, err := ps.DecodeIDs(lz.nGraphs)
	if err != nil {
		return nil, err
	}
	if card != len(ids) {
		return nil, fmt.Errorf("grapes: posting holds %d ids, directory says %d", len(ids), card)
	}
	p := &posting{ids: ids, locs: make([]location, len(ids))}
	pos := 4 + int(pLen)
	for k, id := range ids {
		// Starts index the graph's component table, so they are checked
		// against its recorded vertex count.
		_, nVerts, _ := lz.compEntry(id)
		if pos+8 > len(rec) {
			return nil, errors.New("grapes: location payload truncated")
		}
		count := int32(binary.LittleEndian.Uint32(rec[pos:]))
		nStarts := int(binary.LittleEndian.Uint32(rec[pos+4:]))
		pos += 8
		if nStarts > (len(rec)-pos)/4 {
			return nil, errors.New("grapes: location payload truncated")
		}
		starts := make([]int32, nStarts)
		for s := range starts {
			v := binary.LittleEndian.Uint32(rec[pos+4*s:])
			if v >= nVerts {
				return nil, fmt.Errorf("grapes: location starts at vertex %d of a %d-vertex graph", v, nVerts)
			}
			starts[s] = int32(v)
		}
		pos += 4 * nStarts
		p.locs[k] = location{count: count, starts: starts}
	}
	return p, nil
}

// decodeComps fetches the sections and decodes every component table —
// with the features' keys.All, the fully resident form of the index.
func (lz *lazyStore) decodeComps() ([][]int32, []int, error) {
	if err := lz.fetch(); err != nil {
		return nil, nil, err
	}
	comps := make([][]int32, lz.nGraphs)
	compCount := make([]int, lz.nGraphs)
	for i := range comps {
		var err error
		if comps[i], err = lz.decodeComp(graph.ID(i)); err != nil {
			return nil, nil, err
		}
		_, _, cc := lz.compEntry(graph.ID(i))
		compCount[i] = int(cc)
	}
	return comps, compCount, nil
}

// residentBytes estimates the heap bytes a decoded posting pins.
func (p *posting) residentBytes() int64 {
	n := int64(len(p.ids)) * 4
	for _, loc := range p.locs {
		n += 28 + int64(len(loc.starts))*4
	}
	return n
}

// decodeComp decodes graph id's component table. Sections must be fetched.
func (lz *lazyStore) decodeComp(id graph.ID) ([]int32, error) {
	off, nVerts, cc := lz.compEntry(id)
	if nVerts == 0 {
		return nil, nil
	}
	comp := make([]int32, nVerts)
	for v := range comp {
		c := binary.LittleEndian.Uint32(lz.compBlob[int(off)+4*v:])
		if c >= cc {
			return nil, fmt.Errorf("grapes: graph %d vertex %d in component %d of %d", id, v, c, cc)
		}
		comp[v] = int32(c)
	}
	return comp, nil
}

// compsOf returns graph id's component table and count, decoding the table
// on first touch.
func (lz *lazyStore) compsOf(id graph.ID) ([]int32, int, error) {
	if err := lz.fetch(); err != nil {
		return nil, 0, err
	}
	if int(id) < 0 || int(id) >= lz.nGraphs {
		return nil, 0, nil
	}
	_, _, cc := lz.compEntry(id)
	if c := lz.comps[id].Load(); c != nil {
		return *c, int(cc), nil
	}
	comp, err := lz.decodeComp(id)
	if err != nil {
		return nil, 0, err
	}
	if !lz.comps[id].CompareAndSwap(nil, &comp) {
		return *lz.comps[id].Load(), int(cc), nil
	}
	lz.keys.Account(int64(len(comp)) * 4)
	return comp, int(cc), nil
}
