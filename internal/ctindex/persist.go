package ctindex

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/bitset"
	"repro/internal/graph"
)

// indexDTO is the serialized form of a CT-Index.
type indexDTO struct {
	FingerprintBits int
	MaxTreeSize     int
	MaxCycleSize    int
	NumGraphs       int
	Words           [][]uint64
}

// SaveIndex implements core.Persistable.
func (ix *Index) SaveIndex(w io.Writer) error {
	if !ix.built {
		return fmt.Errorf("ctindex: save before Build")
	}
	dto := indexDTO{
		FingerprintBits: ix.opts.FingerprintBits,
		MaxTreeSize:     ix.opts.MaxTreeSize,
		MaxCycleSize:    ix.opts.MaxCycleSize,
		NumGraphs:       len(ix.fps),
		Words:           make([][]uint64, len(ix.fps)),
	}
	for i, fp := range ix.fps {
		if fp == nil {
			continue // tombstoned slot: no fingerprint
		}
		dto.Words[i] = fp.Words()
	}
	return gob.NewEncoder(w).Encode(&dto)
}

// LoadIndex implements core.Persistable; ds must be the dataset the saved
// index was built over.
func (ix *Index) LoadIndex(r io.Reader, ds *graph.Dataset) error {
	var dto indexDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return fmt.Errorf("ctindex: load: %w", err)
	}
	if dto.NumGraphs != ds.Len() {
		return fmt.Errorf("ctindex: load: index covers %d graphs, dataset has %d", dto.NumGraphs, ds.Len())
	}
	ix.opts = Options{
		FingerprintBits: dto.FingerprintBits,
		MaxTreeSize:     dto.MaxTreeSize,
		MaxCycleSize:    dto.MaxCycleSize,
	}
	ix.opts.fill()
	ix.fps = make([]*bitset.Bitset, dto.NumGraphs)
	for i, words := range dto.Words {
		if words == nil {
			if ds.Alive(graph.ID(i)) {
				return fmt.Errorf("ctindex: load: live graph %d has no fingerprint", i)
			}
			continue // tombstoned slot persisted without a fingerprint
		}
		fp := bitset.FromWords(dto.FingerprintBits, words)
		if fp == nil {
			return fmt.Errorf("ctindex: load: fingerprint %d has wrong width", i)
		}
		ix.fps[i] = fp
	}
	ix.labelFreq = countLabels(ds)
	ix.built = true
	return nil
}
