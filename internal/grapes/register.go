package grapes

import (
	"repro/internal/core"
	"repro/internal/engine"
)

func init() {
	engine.Register(engine.Descriptor{
		Name:    "grapes",
		Display: "Grapes",
		Help:    "exhaustive label-path index with location info, parallel build and component-wise verification",
		Notes: "Reproduces GRAPES (Giugno et al., PLoS One 2013), the fastest builder in the " +
			"paper's comparison thanks to its multi-threaded construction. Indexing enumerates every " +
			"label path of up to `maxPathLen` edges from every vertex, so build cost and index size " +
			"grow roughly with the sum of per-vertex degree^maxPathLen; the paper's §4.1 defaults are " +
			"`maxPathLen=4` and 6 worker threads. Location info makes verification run against " +
			"individual connected components instead of whole graphs.",
		Fields: []engine.Field{
			{Name: "maxPathLen", Kind: engine.Int, Default: DefaultMaxPathLen, Help: "maximum path feature size in edges"},
			{Name: "workers", Kind: engine.Int, Default: DefaultWorkers, Help: "build/verify parallelism"},
			{Name: "storage", Kind: engine.String, Default: core.StorageHeap, Runtime: true,
				Help: "how a restored index is held: heap (eager decode) or mmap (lazy, paged)"},
		},
		Factory: func(p engine.Params) (core.Method, error) {
			return New(Options{
				MaxPathLen: p.Int("maxPathLen"),
				Workers:    p.Int("workers"),
				Storage:    p.String("storage"),
			}), nil
		},
		Check: engine.CheckStorageField,
	})
}
