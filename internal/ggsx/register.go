package ggsx

import (
	"repro/internal/core"
	"repro/internal/engine"
)

func init() {
	engine.Register(engine.Descriptor{
		Name:    "ggsx",
		Display: "GGSX",
		Aliases: []string{"GraphGrepSX"},
		Help:    "exhaustive label paths with per-graph occurrence counts, one posting per path and its reverse",
		Notes: "Reproduces GraphGrepSX (Bonnici et al., PRIB 2010). Like Grapes it enumerates all " +
			"label paths of up to `maxPathLen` edges (paper default 4), but stores only per-graph " +
			"occurrence counts — no locations — so the index is smaller and the build is serial. " +
			"Filtering keeps graphs whose counts dominate the query's on every path. The original keeps " +
			"the paths in a suffix trie with a node per path direction; here a path and its reverse, which " +
			"always carry equal counts, share one canonical key and one posting in the key directory Grapes " +
			"uses too, with the same candidates from about half the postings. The rarest of the query's " +
			"postings drives, and every other is probed in ascending cardinality until one rejects — " +
			"in O(1) through a rank bitmap when the posting is dense enough that the bitmap costs no more " +
			"than its id list, by a forward merge cursor otherwise. Verification is plain VF2 over whole graphs.",
		Fields: []engine.Field{
			{Name: "maxPathLen", Kind: engine.Int, Default: DefaultMaxPathLen, Help: "maximum path feature size in edges"},
			{Name: "storage", Kind: engine.String, Default: core.StorageHeap, Runtime: true,
				Help: "how a restored index is held: heap (eager decode) or mmap (lazy, paged)"},
		},
		Factory: func(p engine.Params) (core.Method, error) {
			return New(Options{MaxPathLen: p.Int("maxPathLen"), Storage: p.String("storage")}), nil
		},
		Check: engine.CheckStorageField,
	})
}
