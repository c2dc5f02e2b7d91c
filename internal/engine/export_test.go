package engine

import (
	"repro/internal/core"
	"repro/internal/graph"
)

// NewLeg makes a merge leg over e whose local id i is parent id global[i],
// for tests that drive Drain and MergeStream over engines opened with
// WithMethod, which OpenSharded refuses.
func NewLeg(e *Engine, global []graph.ID) *Shard { return &Shard{eng: e, global: global} }

// WrapMethods replaces every shard engine's method with wrap's result, for
// tests that count the calls a Sharded engine makes into its methods.
func WrapMethods(s *Sharded, wrap func(core.Method) core.Method) {
	for _, sh := range s.shards {
		sh.eng.method = wrap(sh.eng.method)
		sh.eng.proc.Method = sh.eng.method
	}
}
