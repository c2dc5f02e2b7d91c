package grapes

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

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
		w.AddSection(secMeta, ix.meta(lz.nGraphs, lz.nFeat))
		for _, id := range payloadSections {
			b, err := lz.r.Section(id) // checks the CRC
			if err != nil {
				return fmt.Errorf("grapes: save: %w", err)
			}
			w.AddSection(id, b)
		}
		return nil
	}

	keys := slices.Sorted(maps.Keys(ix.features))
	keyLen, postLen := 0, 0
	for _, k := range keys {
		p := ix.features[k]
		keyLen += len(k)
		postLen += 4 + diskfmt.EncodedIDsLen(p.ids) + 8*len(p.ids)
		for _, loc := range p.locs {
			postLen += 4 * len(loc.starts)
		}
	}
	keyDir := make([]byte, 0, len(keys)*keyDirEntrySize)
	keyBlob := make([]byte, 0, keyLen)
	post := make([]byte, 0, postLen)
	for _, k := range keys {
		p := ix.features[k]
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
		keyDir = binary.LittleEndian.AppendUint32(keyDir, uint32(len(keyBlob)))
		keyDir = binary.LittleEndian.AppendUint32(keyDir, uint32(len(k)))
		keyDir = binary.LittleEndian.AppendUint32(keyDir, uint32(len(p.ids)))
		keyDir = binary.LittleEndian.AppendUint32(keyDir, uint32(off))
		keyDir = binary.LittleEndian.AppendUint32(keyDir, uint32(len(post)-off))
		keyBlob = append(keyBlob, k...)
	}

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

	w.AddSection(secMeta, ix.meta(len(ix.comps), len(keys)))
	w.AddSection(secKeyDir, keyDir)
	w.AddSection(secKeyBlob, keyBlob)
	w.AddSection(secPostings, post)
	w.AddSection(secCompDir, compDir)
	w.AddSection(secCompBlob, compBlob)
	return nil
}

// payloadSections are the sections after secMeta, in file order.
var payloadSections = []uint32{secKeyDir, secKeyBlob, secPostings, secCompDir, secCompBlob}

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

	lz := &lazyStore{r: r, nFeat: nFeat, nGraphs: numGraphs}
	if ix.StorageMode() == core.StorageMmap {
		ix.features = nil
		ix.comps = nil
		ix.compCount = nil
		ix.lazy = lz
		ix.built = true
		return nil
	}

	// Heap mode reads everything anyway, so verify every payload CRC up
	// front — a bit-flipped file fails here and triggers a rebuild.
	if err := r.VerifySections(payloadSections...); err != nil {
		return fmt.Errorf("grapes: load: %w", err)
	}
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
	return ix.lazy.r.Close()
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
// container, caching what queries touch. fetch runs once; after it every
// read is lock-free: the directories are immutable bytes, and the caches
// are slices of atomic pointers indexed by directory slot and graph id.
// Two goroutines that touch one entry first may both decode it; the one
// whose CompareAndSwap lands publishes it and is the only one counted.
type lazyStore struct {
	r       *diskfmt.Reader
	nFeat   int
	nGraphs int

	once     sync.Once
	err      error // sticky: a section failed to fetch or validate
	keyDir   []byte
	keyBlob  []byte
	postRaw  []byte
	compDir  []byte
	compBlob []byte
	postings []atomic.Pointer[posting] // by key directory slot
	comps    []atomic.Pointer[[]int32] // by graph id
	resident atomic.Int64
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
	var err error
	for _, s := range []struct {
		id   uint32
		dst  *[]byte
		lazy bool
	}{
		{secKeyDir, &lz.keyDir, false},
		{secKeyBlob, &lz.keyBlob, false},
		{secPostings, &lz.postRaw, true},
		{secCompDir, &lz.compDir, false},
		{secCompBlob, &lz.compBlob, true},
	} {
		if s.lazy {
			*s.dst, err = lz.r.SectionLazy(s.id)
		} else {
			*s.dst, err = lz.r.Section(s.id)
		}
		if err != nil {
			return err
		}
	}
	if len(lz.keyDir) != lz.nFeat*keyDirEntrySize {
		return fmt.Errorf("grapes: key directory of %d bytes for %d features", len(lz.keyDir), lz.nFeat)
	}
	if len(lz.compDir) != lz.nGraphs*compDirEntrySize {
		return fmt.Errorf("grapes: component directory of %d bytes for %d graphs", len(lz.compDir), lz.nGraphs)
	}
	if err := lz.validate(); err != nil {
		return err
	}
	lz.postings = make([]atomic.Pointer[posting], lz.nFeat)
	lz.comps = make([]atomic.Pointer[[]int32], lz.nGraphs)
	return nil
}

// validate checks every directory entry against the sections it points
// into, in one pass over bytes that fetch has just read and CRC-checked:
// keys in range and strictly ascending (findKey binary-searches them),
// posting records in range, component tables in range with at most one
// component per vertex. Nothing a query reads through the directories can
// then go out of bounds. (It reads no dataset state: WarmIndex runs it off
// the engine's lock.)
func (lz *lazyStore) validate() error {
	for i := 0; i < lz.nFeat; i++ {
		e := lz.keyDir[i*keyDirEntrySize:]
		keyOff := binary.LittleEndian.Uint32(e)
		keyLen := binary.LittleEndian.Uint32(e[4:])
		postOff := binary.LittleEndian.Uint32(e[12:])
		postLen := binary.LittleEndian.Uint32(e[16:])
		if uint64(keyOff)+uint64(keyLen) > uint64(len(lz.keyBlob)) ||
			uint64(postOff)+uint64(postLen) > uint64(len(lz.postRaw)) {
			return fmt.Errorf("grapes: directory entry %d out of bounds", i)
		}
		if i > 0 && string(lz.keyAt(i-1)) >= string(lz.keyAt(i)) {
			return fmt.Errorf("grapes: key directory out of order at entry %d", i)
		}
	}
	for id := range lz.nGraphs {
		off, nVerts, cc := lz.compEntry(graph.ID(id))
		if cc > nVerts || uint64(off)+4*uint64(nVerts) > uint64(len(lz.compBlob)) {
			return fmt.Errorf("grapes: component table for graph %d out of bounds", id)
		}
	}
	return nil
}

// keyAt returns the key bytes of directory slot i.
func (lz *lazyStore) keyAt(i int) []byte {
	e := lz.keyDir[i*keyDirEntrySize:]
	off := int(binary.LittleEndian.Uint32(e))
	return lz.keyBlob[off : off+int(binary.LittleEndian.Uint32(e[4:]))]
}

// compEntry reads graph id's component directory entry.
func (lz *lazyStore) compEntry(id graph.ID) (off, nVerts, cc uint32) {
	e := lz.compDir[int(id)*compDirEntrySize:]
	return binary.LittleEndian.Uint32(e), binary.LittleEndian.Uint32(e[4:]), binary.LittleEndian.Uint32(e[8:])
}

// findKey binary-searches the sorted key directory for key and returns its
// slot. Sections must be fetched; it takes no lock and allocates nothing.
func (lz *lazyStore) findKey(key string) (int, bool) {
	lo, hi := 0, lz.nFeat
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if string(lz.keyAt(mid)) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < lz.nFeat && string(lz.keyAt(lo)) == key
}

// card returns the posting cardinality of directory slot i.
func (lz *lazyStore) card(i int) int {
	return int(binary.LittleEndian.Uint32(lz.keyDir[i*keyDirEntrySize+8:]))
}

// decodeEntry decodes the posting of directory slot i. Sections must be
// fetched.
func (lz *lazyStore) decodeEntry(i int) (*posting, error) {
	e := lz.keyDir[i*keyDirEntrySize:]
	postOff := int(binary.LittleEndian.Uint32(e[12:]))
	rec := lz.postRaw[postOff : postOff+int(binary.LittleEndian.Uint32(e[16:]))]
	if len(rec) < 4 {
		return nil, fmt.Errorf("grapes: posting record %d truncated", i)
	}
	pLen := binary.LittleEndian.Uint32(rec)
	if uint64(4)+uint64(pLen) > uint64(len(rec)) {
		return nil, fmt.Errorf("grapes: posting record %d truncated", i)
	}
	ps, err := diskfmt.MakePostings(rec[4 : 4+pLen])
	if err != nil {
		return nil, err
	}
	ids, err := ps.DecodeIDs(lz.nGraphs)
	if err != nil {
		return nil, err
	}
	if card := lz.card(i); card != len(ids) {
		return nil, fmt.Errorf("grapes: posting %d holds %d ids, directory says %d", i, len(ids), card)
	}
	p := &posting{ids: ids, locs: make([]location, len(ids))}
	pos := 4 + int(pLen)
	for k, id := range ids {
		// Starts index the graph's component table, so they are checked
		// against its recorded vertex count.
		_, nVerts, _ := lz.compEntry(id)
		if pos+8 > len(rec) {
			return nil, fmt.Errorf("grapes: location payload of posting %d truncated", i)
		}
		count := int32(binary.LittleEndian.Uint32(rec[pos:]))
		nStarts := int(binary.LittleEndian.Uint32(rec[pos+4:]))
		pos += 8
		if nStarts > (len(rec)-pos)/4 {
			return nil, fmt.Errorf("grapes: location payload of posting %d truncated", i)
		}
		starts := make([]int32, nStarts)
		for s := range starts {
			v := binary.LittleEndian.Uint32(rec[pos+4*s:])
			if v >= nVerts {
				return nil, fmt.Errorf("grapes: location in posting %d starts at vertex %d of a %d-vertex graph", i, v, nVerts)
			}
			starts[s] = int32(v)
		}
		pos += 4 * nStarts
		p.locs[k] = location{count: count, starts: starts}
	}
	return p, nil
}

// decodeAll decodes every feature posting and component table — the fully
// resident form of the index.
func (lz *lazyStore) decodeAll() (map[canon.Key]*posting, [][]int32, []int, error) {
	if err := lz.fetch(); err != nil {
		return nil, nil, nil, err
	}
	features := make(map[canon.Key]*posting, lz.nFeat)
	for i := 0; i < lz.nFeat; i++ {
		p, err := lz.decodeEntry(i)
		if err != nil {
			return nil, nil, nil, err
		}
		features[canon.Key(lz.keyAt(i))] = p
	}
	comps := make([][]int32, lz.nGraphs)
	compCount := make([]int, lz.nGraphs)
	for i := range comps {
		var err error
		if comps[i], err = lz.decodeComp(graph.ID(i)); err != nil {
			return nil, nil, nil, err
		}
		_, _, cc := lz.compEntry(graph.ID(i))
		compCount[i] = int(cc)
	}
	return features, comps, compCount, nil
}

// posting returns the posting of directory slot i, decoding it on first
// touch.
func (lz *lazyStore) posting(i int) (*posting, error) {
	if p := lz.postings[i].Load(); p != nil {
		return p, nil
	}
	p, err := lz.decodeEntry(i)
	if err != nil {
		return nil, err
	}
	if !lz.postings[i].CompareAndSwap(nil, p) {
		return lz.postings[i].Load(), nil
	}
	lz.account(p.residentBytes())
	return p, nil
}

// residentBytes estimates the heap bytes a decoded posting pins.
func (p *posting) residentBytes() int64 {
	n := int64(len(p.ids)) * 4
	for _, loc := range p.locs {
		n += 28 + int64(len(loc.starts))*4
	}
	return n
}

// account records one lazy materialization of n heap bytes.
func (lz *lazyStore) account(n int64) {
	lz.resident.Add(n)
	obs.IndexLazyLoadInc("Grapes")
	obs.IndexResidentAdd("Grapes", core.StorageMmap, n)
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
	lz.account(int64(len(comp)) * 4)
	return comp, int(cc), nil
}

// numFeatures returns the feature count recorded in the directory.
func (lz *lazyStore) numFeatures() int { return lz.nFeat }

// residentBytes estimates the heap bytes pinned by materialized cache
// entries.
func (lz *lazyStore) residentBytes() int64 { return lz.resident.Load() }
