package treedelta

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/diskfmt"
	"repro/internal/graph"
)

// Container layout for Tree+Δ: the frequent tree features and the Δ
// features admitted so far (with their full postings), each as one
// keyed-postings section (diskfmt.EncodeKeyedPostings). The transient Δ
// admission statistics (query counts, prototype graphs) are workload
// state, not index content, and are reset on load.
//
//	secMeta   maxFeatureSize, maxCycleLen, numGraphs, reserved (4×u32),
//	          supportRatio, discriminativeRatio, querySupportToAdd (3×f64)
//	secTrees  tree feature key → graph ids
//	secDeltas Δ feature key → graph ids
const (
	secMeta   = 1
	secTrees  = 2
	secDeltas = 3
)

var _ core.Persistable = (*Index)(nil)

// SaveIndex implements core.Persistable.
func (ix *Index) SaveIndex(w *diskfmt.Writer) error {
	if !ix.built {
		return fmt.Errorf("treedelta: save before Build")
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	meta := binary.LittleEndian.AppendUint32(nil, uint32(ix.opts.MaxFeatureSize))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(ix.opts.MaxCycleLen))
	meta = binary.LittleEndian.AppendUint32(meta, uint32(len(ix.graphs)))
	meta = binary.LittleEndian.AppendUint32(meta, 0)
	meta = binary.LittleEndian.AppendUint64(meta, math.Float64bits(ix.opts.SupportRatio))
	meta = binary.LittleEndian.AppendUint64(meta, math.Float64bits(ix.opts.DiscriminativeRatio))
	meta = binary.LittleEndian.AppendUint64(meta, math.Float64bits(ix.opts.QuerySupportToAdd))
	w.AddSection(secMeta, meta)
	w.AddSection(secTrees, diskfmt.EncodeKeyedPostings(ix.trees))
	w.AddSection(secDeltas, diskfmt.EncodeKeyedPostings(ix.deltas))
	return nil
}

// LoadIndex implements core.Persistable.
func (ix *Index) LoadIndex(r *diskfmt.Reader, ds *graph.Dataset) error {
	meta, err := r.Section(secMeta)
	if err != nil {
		return fmt.Errorf("treedelta: load: %w", err)
	}
	if len(meta) != 40 {
		return fmt.Errorf("treedelta: load: meta section of %d bytes", len(meta))
	}
	opts := Options{
		MaxFeatureSize:      int(binary.LittleEndian.Uint32(meta)),
		MaxCycleLen:         int(binary.LittleEndian.Uint32(meta[4:])),
		SupportRatio:        math.Float64frombits(binary.LittleEndian.Uint64(meta[16:])),
		DiscriminativeRatio: math.Float64frombits(binary.LittleEndian.Uint64(meta[24:])),
		QuerySupportToAdd:   math.Float64frombits(binary.LittleEndian.Uint64(meta[32:])),
	}
	if n := int(binary.LittleEndian.Uint32(meta[8:])); n != ds.Len() {
		return fmt.Errorf("treedelta: load: index covers %d graphs, dataset has %d", n, ds.Len())
	}
	if err := diskfmt.CheckSizeParams(opts.MaxFeatureSize, opts.MaxCycleLen); err != nil {
		return fmt.Errorf("treedelta: load: %w", err)
	}
	var tables [2]canon.Postings
	for i, sec := range []uint32{secTrees, secDeltas} {
		raw, err := r.Section(sec)
		if err != nil {
			return fmt.Errorf("treedelta: load: %w", err)
		}
		if tables[i], err = diskfmt.DecodeKeyedPostings(raw, ds.Len()); err != nil {
			return fmt.Errorf("treedelta: load: %w", err)
		}
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.opts = opts
	ix.opts.fill()
	ix.graphs = liveGraphs(ds)
	ix.trees, ix.deltas = tables[0], tables[1]
	ix.seen = make(map[canon.Key]int)
	ix.protos = make(map[canon.Key]*graph.Graph)
	ix.queries = 0
	ix.built = true
	return nil
}
