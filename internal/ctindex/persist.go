package ctindex

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/diskfmt"
	"repro/internal/graph"
)

// Container layout for CT-Index: the per-graph fingerprints as one
// fixed-stride table. Each slot leads with a presence word, so a
// tombstoned graph keeps its slot (all zero) and fingerprint i sits at a
// computable offset.
//
//	secMeta   fingerprintBits, maxTreeSize, maxCycleSize, numGraphs (4×u32)
//	secPrints numGraphs × {present u64 (bit 0), words ⌈fingerprintBits/64⌉×u64}
const (
	secMeta   = 1
	secPrints = 2
)

var _ core.Persistable = (*Index)(nil)

// slotStride is the byte length of one fingerprint slot.
func slotStride(fingerprintBits int) int { return 8 * (1 + (fingerprintBits+63)/64) }

// SaveIndex implements core.Persistable.
func (ix *Index) SaveIndex(w *diskfmt.Writer) error {
	if !ix.built {
		return fmt.Errorf("ctindex: save before Build")
	}
	n, stride := len(ix.fps), slotStride(ix.opts.FingerprintBits)
	table := make([]byte, n*stride)
	for i, fp := range ix.fps {
		if fp == nil {
			continue // tombstoned slot
		}
		slot := table[i*stride:]
		slot[0] = 1
		for k, word := range fp.Words() {
			binary.LittleEndian.PutUint64(slot[8+8*k:], word)
		}
	}
	meta := binary.LittleEndian.AppendUint32(nil, uint32(ix.opts.FingerprintBits))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(ix.opts.MaxTreeSize))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(ix.opts.MaxCycleSize))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(n))
	w.AddSection(secMeta, meta)
	w.AddSection(secPrints, table)
	return nil
}

// LoadIndex implements core.Persistable; ds must be the dataset the saved
// index was built over.
func (ix *Index) LoadIndex(r *diskfmt.Reader, ds *graph.Dataset) error {
	meta, err := r.Section(secMeta)
	if err != nil {
		return fmt.Errorf("ctindex: load: %w", err)
	}
	if len(meta) != 16 {
		return fmt.Errorf("ctindex: load: meta section of %d bytes", len(meta))
	}
	opts := Options{
		FingerprintBits: int(binary.LittleEndian.Uint32(meta)),
		MaxTreeSize:     int(binary.LittleEndian.Uint32(meta[4:])),
		MaxCycleSize:    int(binary.LittleEndian.Uint32(meta[8:])),
	}
	n := int(binary.LittleEndian.Uint32(meta[12:]))
	if n != ds.Len() {
		return fmt.Errorf("ctindex: load: index covers %d graphs, dataset has %d", n, ds.Len())
	}
	if err := diskfmt.CheckSizeParams(opts.MaxTreeSize, opts.MaxCycleSize); err != nil {
		return fmt.Errorf("ctindex: load: %w", err)
	}
	table, err := r.Section(secPrints)
	if err != nil {
		return fmt.Errorf("ctindex: load: %w", err)
	}
	stride := slotStride(opts.FingerprintBits)
	if opts.FingerprintBits == 0 || len(table) != n*stride {
		return fmt.Errorf("ctindex: load: fingerprint table of %d bytes for %d graphs × %d bits",
			len(table), n, opts.FingerprintBits)
	}
	fps := make([]*bitset.Bitset, n)
	words := make([]uint64, stride/8-1)
	for i := range fps {
		slot := table[i*stride:]
		if slot[0]&1 == 0 {
			if ds.Alive(graph.ID(i)) {
				return fmt.Errorf("ctindex: load: live graph %d has no fingerprint", i)
			}
			continue // tombstoned slot persisted without a fingerprint
		}
		for k := range words {
			words[k] = binary.LittleEndian.Uint64(slot[8+8*k:])
		}
		fps[i] = bitset.FromWords(opts.FingerprintBits, words) // copies words
	}
	ix.opts = opts
	ix.opts.fill()
	ix.fps = fps
	ix.labelFreq = countLabels(ds)
	ix.built = true
	return nil
}
