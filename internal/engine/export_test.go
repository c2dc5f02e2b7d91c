package engine

import "repro/internal/graph"

// NewLeg makes a merge leg over e whose local id i is parent id global[i],
// for tests that drive Drain and MergeStream over engines opened with
// WithMethod, which OpenSharded refuses.
func NewLeg(e *Engine, global []graph.ID) *Shard { return &Shard{eng: e, global: global} }
