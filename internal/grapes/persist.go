package grapes

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/diskfmt"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Container layout for Grapes. The feature directory is sorted by
// key bytes so a single feature resolves by binary search against the
// mapped directory, postings are roaring-compressed id sets followed by
// their location payloads, and component tables get a fixed-stride
// directory so compCount is readable without materializing the table.
//
//	secMeta     maxPathLen, workers, numGraphs, numFeatures (4×u32)
//	secKeyDir   numFeatures × {keyOff, keyLen, card, postOff, postLen} (5×u32)
//	secKeyBlob  concatenated key bytes
//	secPostings per feature: pLen u32, roaring ids, then per id
//	            ascending: count u32, nStarts u32, starts nStarts×u32
//	secCompDir  numGraphs × {blobOff, nVerts, compCount} (3×u32)
//	secCompBlob concatenated vertex→component arrays (u32 each)
const (
	secMeta     = 1
	secKeyDir   = 2
	secKeyBlob  = 3
	secPostings = 4
	secCompDir  = 5
	secCompBlob = 6

	keyDirEntrySize  = 20
	compDirEntrySize = 12
)

var (
	_ core.Persistable     = (*Index)(nil)
	_ core.StorageSelector = (*Index)(nil)
	_ core.Warmable        = (*Index)(nil)
)

// StorageMode implements core.StorageSelector.
func (ix *Index) StorageMode() string { return core.StorageMode(ix.opts.Storage) }

// SaveIndex implements core.Persistable.
func (ix *Index) SaveIndex(w *diskfmt.Writer) error {
	if !ix.built {
		return fmt.Errorf("grapes: save before Build")
	}
	if err := ix.materializeAll(); err != nil {
		return err
	}
	keys := make([]string, 0, len(ix.features))
	for k := range ix.features {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)

	var keyDir, keyBlob, post []byte
	for _, k := range keys {
		p := ix.features[canon.Key(k)]
		rec := binary.LittleEndian.AppendUint32(nil, 0)
		enc := diskfmt.EncodeIDs(p.ids)
		binary.LittleEndian.PutUint32(rec, uint32(len(enc)))
		rec = append(rec, enc...)
		for i := range p.ids {
			rec = binary.LittleEndian.AppendUint32(rec, uint32(p.locs[i].count))
			rec = binary.LittleEndian.AppendUint32(rec, uint32(len(p.locs[i].starts)))
			for _, s := range p.locs[i].starts {
				rec = binary.LittleEndian.AppendUint32(rec, uint32(s))
			}
		}
		keyDir = binary.LittleEndian.AppendUint32(keyDir, uint32(len(keyBlob)))
		keyDir = binary.LittleEndian.AppendUint32(keyDir, uint32(len(k)))
		keyDir = binary.LittleEndian.AppendUint32(keyDir, uint32(len(p.ids)))
		keyDir = binary.LittleEndian.AppendUint32(keyDir, uint32(len(post)))
		keyDir = binary.LittleEndian.AppendUint32(keyDir, uint32(len(rec)))
		keyBlob = append(keyBlob, k...)
		post = append(post, rec...)
	}

	var compDir, compBlob []byte
	for i, comp := range ix.comps {
		compDir = binary.LittleEndian.AppendUint32(compDir, uint32(len(compBlob)))
		compDir = binary.LittleEndian.AppendUint32(compDir, uint32(len(comp)))
		compDir = binary.LittleEndian.AppendUint32(compDir, uint32(ix.compCount[i]))
		for _, c := range comp {
			compBlob = binary.LittleEndian.AppendUint32(compBlob, uint32(c))
		}
	}

	meta := binary.LittleEndian.AppendUint32(nil, uint32(ix.opts.MaxPathLen))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(ix.opts.Workers))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(len(ix.comps)))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(len(keys)))

	w.AddSection(secMeta, meta)
	w.AddSection(secKeyDir, keyDir)
	w.AddSection(secKeyBlob, keyBlob)
	w.AddSection(secPostings, post)
	w.AddSection(secCompDir, compDir)
	w.AddSection(secCompBlob, compBlob)
	return nil
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
	nFeat := int(binary.LittleEndian.Uint32(meta[12:]))
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

	if ix.StorageMode() == core.StorageMmap {
		ix.features = nil
		ix.comps = nil
		ix.compCount = nil
		ix.lazy = &lazyStore{
			r:        r,
			nFeat:    nFeat,
			nGraphs:  numGraphs,
			postings: make(map[canon.Key]*posting),
			comps:    make(map[graph.ID][]int32),
		}
		ix.ds = ds
		ix.built = true
		return nil
	}

	// Heap mode reads everything anyway, so verify every payload CRC up
	// front — a bit-flipped file fails here and triggers a rebuild.
	if err := r.VerifySections(secKeyDir, secKeyBlob, secPostings, secCompDir, secCompBlob); err != nil {
		return fmt.Errorf("grapes: load: %w", err)
	}
	lz := &lazyStore{r: r, nFeat: nFeat, nGraphs: numGraphs}
	features, comps, compCount, err := lz.decodeAll()
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
	ix.lazy = nil
	ix.ds = ds
	ix.built = true
	return nil
}

// WarmIndex implements core.Warmable: pre-fault the directory sections (a
// small fraction of the file) so first queries resolve features without a
// checksum pass. Postings stay lazy.
func (ix *Index) WarmIndex() {
	if lz := ix.lazy; lz != nil {
		lz.mu.Lock()
		lz.fetchSections()
		lz.mu.Unlock()
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

// materializeAll converts a lazily-opened index into the fully resident
// form and releases the mapping. Mutations and saves call it: incremental
// maintenance splices heap structures in place, which mapped sections
// cannot support.
func (ix *Index) materializeAll() error {
	lz := ix.lazy
	if lz == nil {
		return nil
	}
	lz.mu.Lock()
	defer lz.mu.Unlock()
	features, comps, compCount, err := lz.decodeAll()
	if err != nil {
		return fmt.Errorf("grapes: materialize: %w", err)
	}
	ix.features = features
	ix.comps = comps
	ix.compCount = compCount
	ix.lazy = nil
	obs.IndexResidentSet("Grapes", core.StorageMmap, 0)
	return lz.r.Close()
}

// lazyStore resolves Grapes index structures on demand from an open
// container, caching what queries touch.
type lazyStore struct {
	r       *diskfmt.Reader
	nFeat   int
	nGraphs int

	mu       sync.RWMutex
	fetched  bool
	keyDir   []byte
	keyBlob  []byte
	postRaw  []byte
	compDir  []byte
	compBlob []byte
	postings map[canon.Key]*posting // nil value caches "absent"
	comps    map[graph.ID][]int32
	resident int64
	err      error // sticky first section/decode failure
}

// fetchSections resolves the directory and payload sections. Callers hold
// lz.mu.
func (lz *lazyStore) fetchSections() error {
	if lz.fetched {
		return lz.err
	}
	fetch := func(id uint32, dst *[]byte, lazy bool) {
		if lz.err != nil {
			return
		}
		var b []byte
		var err error
		if lazy {
			b, err = lz.r.SectionLazy(id)
		} else {
			b, err = lz.r.Section(id)
		}
		if err != nil {
			lz.err = err
			return
		}
		*dst = b
	}
	// Directories are small and CRC-checked up front; the posting and
	// component payloads stay unverified so only the records a query
	// touches ever fault in (every decode below is bounds-checked).
	fetch(secKeyDir, &lz.keyDir, false)
	fetch(secKeyBlob, &lz.keyBlob, false)
	fetch(secPostings, &lz.postRaw, true)
	fetch(secCompDir, &lz.compDir, false)
	fetch(secCompBlob, &lz.compBlob, true)
	if lz.err == nil {
		if len(lz.keyDir) != lz.nFeat*keyDirEntrySize {
			lz.err = fmt.Errorf("grapes: key directory of %d bytes for %d features", len(lz.keyDir), lz.nFeat)
		} else if len(lz.compDir) != lz.nGraphs*compDirEntrySize {
			lz.err = fmt.Errorf("grapes: component directory of %d bytes for %d graphs", len(lz.compDir), lz.nGraphs)
		}
	}
	lz.fetched = lz.err == nil
	return lz.err
}

// findKey binary-searches the sorted key directory. Callers hold lz.mu
// (read or write) with sections fetched.
func (lz *lazyStore) findKey(key canon.Key) (int, bool) {
	want := []byte(string(key))
	lo, hi := 0, lz.nFeat
	for lo < hi {
		mid := (lo + hi) / 2
		e := lz.keyDir[mid*keyDirEntrySize:]
		off := binary.LittleEndian.Uint32(e)
		klen := binary.LittleEndian.Uint32(e[4:])
		if bytes.Compare(lz.keyBlob[off:off+klen], want) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < lz.nFeat {
		e := lz.keyDir[lo*keyDirEntrySize:]
		off := binary.LittleEndian.Uint32(e)
		klen := binary.LittleEndian.Uint32(e[4:])
		if bytes.Equal(lz.keyBlob[off:off+klen], want) {
			return lo, true
		}
	}
	return 0, false
}

// card returns a feature's posting cardinality without materializing it.
func (lz *lazyStore) card(key canon.Key) int {
	lz.mu.Lock()
	defer lz.mu.Unlock()
	if lz.fetchSections() != nil {
		return 0
	}
	i, ok := lz.findKey(key)
	if !ok {
		return 0
	}
	return int(binary.LittleEndian.Uint32(lz.keyDir[i*keyDirEntrySize+8:]))
}

// decodeEntry decodes directory entry i into its key and posting. Callers
// hold lz.mu with sections fetched.
func (lz *lazyStore) decodeEntry(i int) (canon.Key, *posting, error) {
	e := lz.keyDir[i*keyDirEntrySize:]
	keyOff := binary.LittleEndian.Uint32(e)
	keyLen := binary.LittleEndian.Uint32(e[4:])
	card := binary.LittleEndian.Uint32(e[8:])
	postOff := binary.LittleEndian.Uint32(e[12:])
	postLen := binary.LittleEndian.Uint32(e[16:])
	if uint64(keyOff)+uint64(keyLen) > uint64(len(lz.keyBlob)) ||
		uint64(postOff)+uint64(postLen) > uint64(len(lz.postRaw)) {
		return "", nil, fmt.Errorf("grapes: directory entry %d out of bounds", i)
	}
	key := canon.Key(lz.keyBlob[keyOff : keyOff+keyLen])
	rec := lz.postRaw[postOff : postOff+postLen]
	if len(rec) < 4 {
		return "", nil, fmt.Errorf("grapes: posting record for %q truncated", string(key))
	}
	pLen := binary.LittleEndian.Uint32(rec)
	if uint64(4)+uint64(pLen) > uint64(len(rec)) {
		return "", nil, fmt.Errorf("grapes: posting record for %q truncated", string(key))
	}
	ps, err := diskfmt.MakePostings(rec[4 : 4+pLen])
	if err != nil {
		return "", nil, err
	}
	ids, err := ps.DecodeIDs(lz.nGraphs)
	if err != nil {
		return "", nil, err
	}
	if uint32(len(ids)) != card {
		return "", nil, fmt.Errorf("grapes: posting for %q holds %d ids, directory says %d", string(key), len(ids), card)
	}
	p := &posting{ids: ids, locs: make([]location, len(ids))}
	pos := 4 + int(pLen)
	for k, id := range ids {
		// Starts index the graph's component table, so they are checked
		// against its recorded vertex count.
		nVerts := binary.LittleEndian.Uint32(lz.compDir[int(id)*compDirEntrySize+4:])
		if pos+8 > len(rec) {
			return "", nil, fmt.Errorf("grapes: location payload for %q truncated", string(key))
		}
		count := int32(binary.LittleEndian.Uint32(rec[pos:]))
		nStarts := int(binary.LittleEndian.Uint32(rec[pos+4:]))
		pos += 8
		if pos+4*nStarts > len(rec) {
			return "", nil, fmt.Errorf("grapes: location payload for %q truncated", string(key))
		}
		starts := make([]int32, nStarts)
		for s := range starts {
			v := binary.LittleEndian.Uint32(rec[pos+4*s:])
			if v >= nVerts {
				return "", nil, fmt.Errorf("grapes: location for %q starts at vertex %d of a %d-vertex graph", string(key), v, nVerts)
			}
			starts[s] = int32(v)
		}
		pos += 4 * nStarts
		p.locs[k] = location{count: count, starts: starts}
	}
	return key, p, nil
}

// decodeAll decodes every feature posting and component table — the fully
// resident form of the index. Callers hold lz.mu or run before the index
// is shared.
func (lz *lazyStore) decodeAll() (map[canon.Key]*posting, [][]int32, []int, error) {
	if err := lz.fetchSections(); err != nil {
		return nil, nil, nil, err
	}
	features := make(map[canon.Key]*posting, lz.nFeat)
	for i := 0; i < lz.nFeat; i++ {
		key, p, err := lz.decodeEntry(i)
		if err != nil {
			return nil, nil, nil, err
		}
		features[key] = p
	}
	comps := make([][]int32, lz.nGraphs)
	compCount := make([]int, lz.nGraphs)
	for i := range comps {
		var err error
		if comps[i], compCount[i], err = lz.decodeComp(graph.ID(i)); err != nil {
			return nil, nil, nil, err
		}
	}
	return features, comps, compCount, nil
}

// posting materializes (and caches) one feature's posting; nil means the
// feature is absent from the index.
func (lz *lazyStore) posting(key canon.Key) (*posting, error) {
	lz.mu.RLock()
	p, cached := lz.postings[key]
	lz.mu.RUnlock()
	if cached {
		return p, nil
	}
	lz.mu.Lock()
	defer lz.mu.Unlock()
	if p, cached = lz.postings[key]; cached {
		return p, nil
	}
	if err := lz.fetchSections(); err != nil {
		return nil, err
	}
	i, ok := lz.findKey(key)
	if !ok {
		lz.postings[key] = nil
		return nil, nil
	}
	_, p, err := lz.decodeEntry(i)
	if err != nil {
		lz.err = err
		return nil, err
	}
	lz.postings[key] = p
	delta := int64(len(p.ids)) * 4
	for _, loc := range p.locs {
		delta += 28 + int64(len(loc.starts))*4
	}
	lz.resident += delta
	obs.IndexLazyLoadInc("Grapes")
	obs.IndexResidentAdd("Grapes", core.StorageMmap, delta)
	return p, nil
}

// decodeComp decodes graph id's component table. Callers hold lz.mu with
// sections fetched.
func (lz *lazyStore) decodeComp(id graph.ID) ([]int32, int, error) {
	e := lz.compDir[int(id)*compDirEntrySize:]
	off := binary.LittleEndian.Uint32(e)
	nVerts := binary.LittleEndian.Uint32(e[4:])
	cc := int(binary.LittleEndian.Uint32(e[8:]))
	if uint64(cc) > uint64(nVerts) || uint64(off)+4*uint64(nVerts) > uint64(len(lz.compBlob)) {
		return nil, 0, fmt.Errorf("grapes: component table for graph %d out of bounds", id)
	}
	if nVerts == 0 {
		return nil, 0, nil
	}
	comp := make([]int32, nVerts)
	for v := range comp {
		c := binary.LittleEndian.Uint32(lz.compBlob[off+4*uint32(v):])
		if c >= uint32(cc) {
			return nil, 0, fmt.Errorf("grapes: graph %d vertex %d in component %d of %d", id, v, c, cc)
		}
		comp[v] = int32(c)
	}
	return comp, cc, nil
}

// compsOf materializes (and caches) graph id's component table and count.
func (lz *lazyStore) compsOf(id graph.ID) ([]int32, int) {
	if int(id) < 0 || int(id) >= lz.nGraphs {
		return nil, 0
	}
	lz.mu.RLock()
	comp, cached := lz.comps[id]
	if cached && lz.fetched {
		cc := int(binary.LittleEndian.Uint32(lz.compDir[int(id)*compDirEntrySize+8:]))
		lz.mu.RUnlock()
		return comp, cc
	}
	lz.mu.RUnlock()
	lz.mu.Lock()
	defer lz.mu.Unlock()
	if err := lz.fetchSections(); err != nil {
		return nil, 0
	}
	cc := int(binary.LittleEndian.Uint32(lz.compDir[int(id)*compDirEntrySize+8:]))
	if comp, cached = lz.comps[id]; cached {
		return comp, cc
	}
	comp, cc, err := lz.decodeComp(id)
	if err != nil {
		lz.err = err
		return nil, 0
	}
	lz.comps[id] = comp
	delta := int64(len(comp)) * 4
	lz.resident += delta
	obs.IndexLazyLoadInc("Grapes")
	obs.IndexResidentAdd("Grapes", core.StorageMmap, delta)
	return comp, cc
}

// numFeaturesLazy returns the feature count recorded in the directory.
func (lz *lazyStore) numFeatures() int { return lz.nFeat }

// residentBytes estimates the heap bytes pinned by materialized cache
// entries.
func (lz *lazyStore) residentBytes() int64 {
	lz.mu.RLock()
	defer lz.mu.RUnlock()
	return lz.resident
}
