package gindex

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/diskfmt"
	"repro/internal/graph"
)

// Container layout for gIndex: the discriminative-feature hash table as
// one keyed-postings section (diskfmt.EncodeKeyedPostings).
//
//	secMeta     maxFeatureSize, fragmentBudget, numGraphs, reserved (4×u32),
//	            supportRatio, discriminativeGate (2×f64)
//	secPostings feature key → graph ids
const (
	secMeta     = 1
	secPostings = 2
)

var _ core.Persistable = (*Index)(nil)

// SaveIndex implements core.Persistable.
func (ix *Index) SaveIndex(w *diskfmt.Writer) error {
	if !ix.built {
		return fmt.Errorf("gindex: save before Build")
	}
	meta := binary.LittleEndian.AppendUint32(nil, uint32(ix.opts.MaxFeatureSize))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(ix.opts.FragmentBudget))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(ix.nGraphs))
	meta = binary.LittleEndian.AppendUint32(meta, 0)
	meta = binary.LittleEndian.AppendUint64(meta, math.Float64bits(ix.opts.SupportRatio))
	meta = binary.LittleEndian.AppendUint64(meta, math.Float64bits(ix.opts.DiscriminativeGate))
	w.AddSection(secMeta, meta)
	w.AddSection(secPostings, diskfmt.EncodeKeyedPostings(ix.postings))
	return nil
}

// LoadIndex implements core.Persistable.
func (ix *Index) LoadIndex(r *diskfmt.Reader, ds *graph.Dataset) error {
	meta, err := r.Section(secMeta)
	if err != nil {
		return fmt.Errorf("gindex: load: %w", err)
	}
	if len(meta) != 32 {
		return fmt.Errorf("gindex: load: meta section of %d bytes", len(meta))
	}
	opts := Options{
		MaxFeatureSize:     int(binary.LittleEndian.Uint32(meta)),
		FragmentBudget:     int(binary.LittleEndian.Uint32(meta[4:])),
		SupportRatio:       math.Float64frombits(binary.LittleEndian.Uint64(meta[16:])),
		DiscriminativeGate: math.Float64frombits(binary.LittleEndian.Uint64(meta[24:])),
	}
	nGraphs := int(binary.LittleEndian.Uint32(meta[8:]))
	if nGraphs != ds.Len() {
		return fmt.Errorf("gindex: load: index covers %d graphs, dataset has %d", nGraphs, ds.Len())
	}
	if err := diskfmt.CheckSizeParams(opts.MaxFeatureSize); err != nil {
		return fmt.Errorf("gindex: load: %w", err)
	}
	raw, err := r.Section(secPostings)
	if err != nil {
		return fmt.Errorf("gindex: load: %w", err)
	}
	postings, err := diskfmt.DecodeKeyedPostings(raw, nGraphs)
	if err != nil {
		return fmt.Errorf("gindex: load: %w", err)
	}
	ix.opts = opts
	ix.opts.fill()
	ix.nGraphs = nGraphs
	ix.postings = postings
	ix.built = true
	return nil
}
