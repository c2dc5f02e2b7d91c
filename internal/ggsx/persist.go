package ggsx

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/diskfmt"
	"repro/internal/graph"
	"repro/internal/pathkey"
)

// Container layout for GGSX: a meta section and pathkey's key directory,
// sorted by key bytes so a single path resolves by binary search against
// the mapping. A query decodes exactly the postings of its paths.
//
//	secMeta  maxPathLen, numGraphs, numFeatures (3×u32)
//	pathkey.SecKeyDir, pathkey.SecKeyBlob: the key directory (2, 3)
//	pathkey.SecPostings (4) per feature: roaring ids, then counts card×u32
const secMeta = 1

var (
	_ core.Persistable     = (*Index)(nil)
	_ core.StorageSelector = (*Index)(nil)
	_ core.Warmable        = (*Index)(nil)
)

// StorageMode implements core.StorageSelector.
func (ix *Index) StorageMode() string { return core.StorageMode(ix.opts.Storage) }

// SaveIndex implements core.Persistable. A mapped index is written from
// its mapped sections once their checksums hold, and stays mapped: the
// caller may hold only a read lock, under which queries still read the
// mapping.
func (ix *Index) SaveIndex(w *diskfmt.Writer) error {
	if !ix.built {
		return fmt.Errorf("ggsx: save before Build")
	}
	w.AddSection(secMeta, ix.meta())
	if ix.lazy != nil {
		if err := ix.lazy.CopyTo(w); err != nil {
			return fmt.Errorf("ggsx: save: %w", err)
		}
		return nil
	}
	pathkey.WriteDir(w, ix.features, cardinality, func(p *posting) int {
		return diskfmt.EncodedIDsLen(p.ids) + 4*len(p.ids)
	}, func(dst []byte, p *posting) []byte {
		dst = diskfmt.AppendIDs(dst, p.ids)
		for _, c := range p.counts {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(c))
		}
		return dst
	})
	return nil
}

// meta encodes the meta section.
func (ix *Index) meta() []byte {
	meta := binary.LittleEndian.AppendUint32(make([]byte, 0, 12), uint32(ix.opts.MaxPathLen))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(ix.nGr))
	return binary.LittleEndian.AppendUint32(meta, uint32(ix.NumFeatures()))
}

// LoadIndex implements core.Persistable. storage=heap decodes every
// posting eagerly; storage=mmap touches only the meta section and decodes
// postings on first touch, taking ownership of the reader.
func (ix *Index) LoadIndex(r *diskfmt.Reader, ds *graph.Dataset) error {
	meta, err := r.Section(secMeta)
	if err != nil {
		return fmt.Errorf("ggsx: load: %w", err)
	}
	if len(meta) != 12 {
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
	m := pathkey.NewMapped(r, int(binary.LittleEndian.Uint32(meta[8:])), "GGSX", func(rec []byte, card int) (*posting, error) {
		return decode(rec, card, numGraphs)
	}, (*posting).size)
	ix.nGr, ix.features, ix.lazy = numGraphs, nil, nil
	if ix.StorageMode() == core.StorageMmap {
		ix.lazy = m
	} else {
		// Heap mode reads everything anyway, so verify every payload CRC
		// up front: a bit-flipped file fails here and triggers a rebuild.
		if err := r.VerifySections(pathkey.Sections...); err != nil {
			return fmt.Errorf("ggsx: load: %w", err)
		}
		if ix.features, err = m.All(); err != nil {
			return fmt.Errorf("ggsx: load: %w", err)
		}
	}
	ix.built = true
	return nil
}

// decode decodes a posting record of card ids over numGraphs slots and
// gives the posting its rank bitmap.
func decode(rec []byte, card, numGraphs int) (*posting, error) {
	if 4*uint64(card) > uint64(len(rec)) {
		return nil, errors.New("ggsx: posting record truncated")
	}
	countsAt := len(rec) - 4*card
	ps, err := diskfmt.MakePostings(rec[:countsAt])
	if err != nil {
		return nil, err
	}
	ids, err := ps.DecodeIDs(numGraphs)
	if err != nil {
		return nil, err
	}
	if len(ids) != card {
		return nil, fmt.Errorf("ggsx: posting holds %d ids, directory says %d", len(ids), card)
	}
	p := &posting{ids: ids, counts: make([]int32, card)}
	for k := range p.counts {
		p.counts[k] = int32(binary.LittleEndian.Uint32(rec[countsAt+4*k:]))
	}
	p.index()
	return p, nil
}

// WarmIndex implements core.Warmable: fetch and validate the key
// directory, so first queries resolve paths without a checksum pass.
// Postings stay lazy.
func (ix *Index) WarmIndex() {
	if ix.lazy != nil {
		ix.lazy.Fetch()
	}
}

// Close releases the container mapping behind a storage=mmap index that
// will not be queried again; a heap-resident index holds none.
func (ix *Index) Close() error {
	if ix.lazy == nil {
		return nil
	}
	return ix.lazy.R.Close()
}

// materializeAll decodes every posting to the heap and releases the
// mapping; mutations splice heap postings and require it.
func (ix *Index) materializeAll() error {
	if ix.lazy == nil {
		return nil
	}
	features, err := ix.lazy.Materialize()
	if err != nil {
		return fmt.Errorf("ggsx: materialize: %w", err)
	}
	ix.features, ix.lazy = features, nil
	return nil
}
