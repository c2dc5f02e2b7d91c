package gcode

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/diskfmt"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Container layout for gCode. Phase-1 filtering only needs the
// per-graph summaries, so those are a fixed-stride table read in place
// from the mapped file; the vertex signatures — the bulk of the index —
// live in a separate section and materialize per graph only when a code
// survives phase 1.
//
//	secMeta      pathLen, numEig, nCodes, reserved (4×u32)
//	secSummaries nCodes × {id, nVertices, nEdges, labelBits, nbrBits,
//	             sigOff, sigLen (7×u32), maxEig numEig×f64}
//	secSigs      per code: nSigs u32, then per sig {label, labelBits,
//	             nbrBits, degree (4×u32), eig numEig×f64}
const (
	secMeta      = 1
	secSummaries = 2
	secSigs      = 3

	summaryFixed = 28 // bytes before the maxEig tail
	sigFixed     = 16 // bytes before the eig tail
)

var (
	_ core.Persistable     = (*Index)(nil)
	_ core.StorageSelector = (*Index)(nil)
	_ core.Warmable        = (*Index)(nil)
)

// StorageMode implements core.StorageSelector.
func (ix *Index) StorageMode() string { return core.StorageMode(ix.opts.Storage) }

func (ix *Index) summaryStride() int { return summaryFixed + ix.opts.NumEigenvalues*8 }

// SaveIndex implements core.Persistable. A mapped index is written from
// its mapped sections once their checksums hold, and stays mapped: the
// caller may hold only a read lock, under which queries still read the
// mapping.
func (ix *Index) SaveIndex(w *diskfmt.Writer) error {
	if !ix.built {
		return fmt.Errorf("gcode: save before Build")
	}
	if lz := ix.lazy; lz != nil {
		w.AddSection(secMeta, ix.meta(lz.nCodes))
		for _, id := range []uint32{secSummaries, secSigs} {
			b, err := lz.r.Section(id) // checks the CRC
			if err != nil {
				return fmt.Errorf("gcode: save: %w", err)
			}
			w.AddSection(id, b)
		}
		return nil
	}
	var summaries, sigBlob []byte
	for i := range ix.codes {
		gc := &ix.codes[i]
		sigOff := len(sigBlob)
		sigBlob = binary.LittleEndian.AppendUint32(sigBlob, uint32(len(gc.sigs)))
		for j := range gc.sigs {
			s := &gc.sigs[j]
			sigBlob = binary.LittleEndian.AppendUint32(sigBlob, uint32(s.label))
			sigBlob = binary.LittleEndian.AppendUint32(sigBlob, s.labelBits)
			sigBlob = binary.LittleEndian.AppendUint32(sigBlob, s.nbrBits)
			sigBlob = binary.LittleEndian.AppendUint32(sigBlob, uint32(s.degree))
			for _, e := range s.eig {
				sigBlob = binary.LittleEndian.AppendUint64(sigBlob, math.Float64bits(e))
			}
		}
		summaries = binary.LittleEndian.AppendUint32(summaries, uint32(gc.id))
		summaries = binary.LittleEndian.AppendUint32(summaries, uint32(gc.nVertices))
		summaries = binary.LittleEndian.AppendUint32(summaries, uint32(gc.nEdges))
		summaries = binary.LittleEndian.AppendUint32(summaries, gc.labelBits)
		summaries = binary.LittleEndian.AppendUint32(summaries, gc.nbrBits)
		summaries = binary.LittleEndian.AppendUint32(summaries, uint32(sigOff))
		summaries = binary.LittleEndian.AppendUint32(summaries, uint32(len(sigBlob)-sigOff))
		for _, e := range gc.maxEig {
			summaries = binary.LittleEndian.AppendUint64(summaries, math.Float64bits(e))
		}
	}
	w.AddSection(secMeta, ix.meta(len(ix.codes)))
	w.AddSection(secSummaries, summaries)
	w.AddSection(secSigs, sigBlob)
	return nil
}

// meta encodes the meta section.
func (ix *Index) meta(nCodes int) []byte {
	meta := binary.LittleEndian.AppendUint32(nil, uint32(ix.opts.PathLen))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(ix.opts.NumEigenvalues))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(nCodes))
	return binary.LittleEndian.AppendUint32(meta, 0)
}

// LoadIndex implements core.Persistable. Under storage=heap every section
// is decoded eagerly; under storage=mmap only the 16-byte meta section is
// touched — summaries are scanned in place from the mapping during queries
// and signatures materialize per graph when a code survives phase-1
// filtering. The index then owns the reader (materializeAll closes it).
func (ix *Index) LoadIndex(r *diskfmt.Reader, ds *graph.Dataset) error {
	meta, err := r.Section(secMeta)
	if err != nil {
		return fmt.Errorf("gcode: load: %w", err)
	}
	if len(meta) != 16 {
		return fmt.Errorf("gcode: load: meta section of %d bytes", len(meta))
	}
	nCodes := int(binary.LittleEndian.Uint32(meta[8:]))
	if nCodes != ds.NumAlive() {
		return fmt.Errorf("gcode: load: index covers %d graphs, dataset has %d live", nCodes, ds.NumAlive())
	}
	opts := Options{
		PathLen:        int(binary.LittleEndian.Uint32(meta)),
		NumEigenvalues: int(binary.LittleEndian.Uint32(meta[4:])),
		Storage:        ix.opts.Storage,
	}
	if err := diskfmt.CheckSizeParams(opts.PathLen, opts.NumEigenvalues); err != nil {
		return fmt.Errorf("gcode: load: %w", err)
	}
	ix.opts = opts
	ix.opts.fill()
	if want := int64(nCodes * ix.summaryStride()); r.SectionLen(secSummaries) != want {
		return fmt.Errorf("gcode: load: summary table of %d bytes, want %d",
			r.SectionLen(secSummaries), want)
	}

	if ix.StorageMode() == core.StorageMmap {
		ix.codes, ix.byID = nil, nil
		ix.lazy = &lazyCodes{r: r, nCodes: nCodes, numEig: ix.opts.NumEigenvalues, sigs: make(map[int][]vertexSignature)}
		ix.built = true
		return nil
	}

	// Heap mode reads everything anyway: verify payload CRCs up front so a
	// bit-flipped file fails here and triggers a rebuild.
	if err := r.VerifySections(secSummaries, secSigs); err != nil {
		return fmt.Errorf("gcode: load: %w", err)
	}
	lz := &lazyCodes{r: r, nCodes: nCodes, numEig: ix.opts.NumEigenvalues}
	codes, err := lz.decodeAll()
	if err != nil {
		return fmt.Errorf("gcode: load: %w", err)
	}
	for i := range codes {
		if id := int(codes[i].id); id < 0 || id >= ds.Len() {
			return fmt.Errorf("gcode: load: graph id %d out of range", id)
		}
	}
	ix.setCodes(codes)
	ix.lazy = nil
	ix.built = true
	return nil
}

// WarmIndex implements core.Warmable: pre-fault the summary table (the
// small fixed-stride section phase-1 scans) so first queries skip the
// section lookup. Signatures stay lazy.
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
// form and releases the mapping. Only mutations call it: incremental
// maintenance splices ix.codes in place, which a mapped table cannot
// support. The engine mutates under its write lock, so no query or warm-up
// still reads the mapping released here; a save leaves the index mapped.
func (ix *Index) materializeAll() error {
	lz := ix.lazy
	if lz == nil {
		return nil
	}
	lz.mu.Lock()
	defer lz.mu.Unlock()
	codes, err := lz.decodeAll()
	if err != nil {
		return fmt.Errorf("gcode: materialize: %w", err)
	}
	ix.setCodes(codes)
	ix.lazy = nil
	obs.IndexResidentSet("gCode", core.StorageMmap, 0)
	return lz.r.Close()
}

// lazyCodes serves gCode summaries in place from an open container and
// materializes vertex signatures per graph on demand.
type lazyCodes struct {
	r      *diskfmt.Reader
	nCodes int
	numEig int

	mu        sync.RWMutex
	fetched   bool
	summaries []byte
	sigBlob   []byte
	sigs      map[int][]vertexSignature // by summary position
	byID      []int32                   // summary positions in graph id order, once fetched
	resident  int64
	err       error // sticky first section/decode failure
}

// fetchSections slices the payload sections out of the mapping. Neither is
// CRC-verified here — summaries decode by fixed stride (length checked at
// load) and signature decodes are bounds-checked — so only the pages a
// query touches ever fault in, besides the summaries' id fields: they are
// read once here for the table's id order. Callers hold lz.mu.
func (lz *lazyCodes) fetchSections() error {
	if lz.fetched {
		return lz.err
	}
	if lz.err == nil {
		lz.summaries, lz.err = lz.r.SectionLazy(secSummaries)
	}
	if lz.err == nil {
		lz.sigBlob, lz.err = lz.r.SectionLazy(secSigs)
	}
	lz.fetched = lz.err == nil
	if lz.fetched {
		stride := lz.summaryStride()
		lz.byID = idOrder(lz.nCodes, func(i int) graph.ID {
			return graph.ID(binary.LittleEndian.Uint32(lz.summaries[i*stride:]))
		})
	}
	return lz.err
}

func (lz *lazyCodes) summaryStride() int { return summaryFixed + lz.numEig*8 }
func (lz *lazyCodes) sigStride() int     { return sigFixed + lz.numEig*8 }

// summaryAt decodes the phase-1 fields of code i in place, filling eig
// (len numEig) so the hot scan loop allocates nothing. Callers hold lz.mu
// (read suffices) with sections fetched.
func (lz *lazyCodes) summaryAt(i int, eig []float64) codeSummary {
	e := lz.summaries[i*lz.summaryStride():]
	for k := range eig {
		eig[k] = math.Float64frombits(binary.LittleEndian.Uint64(e[summaryFixed+8*k:]))
	}
	return codeSummary{
		id:        graph.ID(binary.LittleEndian.Uint32(e)),
		nVertices: int32(binary.LittleEndian.Uint32(e[4:])),
		nEdges:    int32(binary.LittleEndian.Uint32(e[8:])),
		labelBits: binary.LittleEndian.Uint32(e[12:]),
		nbrBits:   binary.LittleEndian.Uint32(e[16:]),
		maxEig:    eig,
	}
}

// decodeSigs decodes the signature block of summary position i. Callers
// hold lz.mu with sections fetched.
func (lz *lazyCodes) decodeSigs(i int) ([]vertexSignature, error) {
	e := lz.summaries[i*lz.summaryStride():]
	off := binary.LittleEndian.Uint32(e[20:])
	blen := binary.LittleEndian.Uint32(e[24:])
	if uint64(off)+uint64(blen) > uint64(len(lz.sigBlob)) {
		return nil, fmt.Errorf("gcode: signature block for code %d out of bounds", i)
	}
	b := lz.sigBlob[off : off+blen]
	if len(b) < 4 {
		return nil, fmt.Errorf("gcode: signature block for code %d truncated", i)
	}
	n := int(binary.LittleEndian.Uint32(b))
	stride := lz.sigStride()
	if 4+n*stride != len(b) {
		return nil, fmt.Errorf("gcode: signature block for code %d holds %d bytes for %d sigs", i, len(b), n)
	}
	sigs := make([]vertexSignature, n)
	for j := range sigs {
		s := b[4+j*stride:]
		eig := make([]float64, lz.numEig)
		for k := range eig {
			eig[k] = math.Float64frombits(binary.LittleEndian.Uint64(s[sigFixed+8*k:]))
		}
		sigs[j] = vertexSignature{
			label:     graph.Label(binary.LittleEndian.Uint32(s)),
			labelBits: binary.LittleEndian.Uint32(s[4:]),
			nbrBits:   binary.LittleEndian.Uint32(s[8:]),
			degree:    int32(binary.LittleEndian.Uint32(s[12:])),
			eig:       eig,
		}
	}
	return sigs, nil
}

// sigsAt materializes (and caches) the signatures of summary position i.
func (lz *lazyCodes) sigsAt(i int) ([]vertexSignature, error) {
	lz.mu.RLock()
	sigs, cached := lz.sigs[i]
	lz.mu.RUnlock()
	if cached {
		return sigs, nil
	}
	lz.mu.Lock()
	defer lz.mu.Unlock()
	if sigs, cached = lz.sigs[i]; cached {
		return sigs, nil
	}
	if err := lz.fetchSections(); err != nil {
		return nil, err
	}
	sigs, err := lz.decodeSigs(i)
	if err != nil {
		lz.err = err
		return nil, err
	}
	lz.sigs[i] = sigs
	delta := int64(len(sigs)) * int64(sigFixed+lz.numEig*8+24)
	lz.resident += delta
	obs.IndexLazyLoadInc("gCode")
	obs.IndexResidentAdd("gCode", core.StorageMmap, delta)
	return sigs, nil
}

// decodeAll materializes every code in summary order. Callers hold lz.mu.
func (lz *lazyCodes) decodeAll() ([]graphCode, error) {
	if err := lz.fetchSections(); err != nil {
		return nil, err
	}
	codes := make([]graphCode, lz.nCodes)
	for i := range codes {
		eig := make([]float64, lz.numEig)
		s := lz.summaryAt(i, eig)
		sigs, err := lz.decodeSigs(i)
		if err != nil {
			return nil, err
		}
		codes[i] = graphCode{
			id:        s.id,
			nVertices: s.nVertices,
			nEdges:    s.nEdges,
			labelBits: s.labelBits,
			nbrBits:   s.nbrBits,
			maxEig:    eig,
			sigs:      sigs,
		}
	}
	return codes, nil
}

// residentBytes estimates the heap bytes pinned by materialized signature
// blocks.
func (lz *lazyCodes) residentBytes() int64 {
	lz.mu.RLock()
	defer lz.mu.RUnlock()
	return lz.resident
}
