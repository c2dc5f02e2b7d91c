package ctindex

import (
	"repro/internal/core"
	"repro/internal/engine"
)

func init() {
	engine.Register(engine.Descriptor{
		Name:    "ctindex",
		Display: "CTindex",
		Aliases: []string{"CT-Index"},
		Help:    "tree+cycle canonical-label fingerprints with tuned verification",
		Notes: "Reproduces CT-Index (Klein, Kriege, Mutzel, ICDE 2011). Each graph becomes one " +
			"fixed-width bit fingerprint (hashed canonical labels of all subtrees and simple cycles up " +
			"to the size limits), so the index is among the smallest of the six (the smallest at " +
			"`sqbench -exp fig2 -scale bench` 40 and 60 nodes; at 20 nodes gIndex's and Tree+Δ's are " +
			"smaller) and filtering is a bitwise " +
			"subset test — O(fingerprintBits/64) words per graph. Filtering power is the weakest, but " +
			"the tuned verifier keeps query times low; the paper runs size-4 features and 4096-bit " +
			"fingerprints (§4.1), trading a little filtering power against the original's size-6.",
		Fields: []engine.Field{
			{Name: "fingerprintBits", Kind: engine.Int, Default: DefaultFingerprintBits, Help: "fingerprint width in bits"},
			{Name: "maxTreeSize", Kind: engine.Int, Default: DefaultMaxTreeSize, Help: "maximum tree feature size in edges"},
			{Name: "maxCycleSize", Kind: engine.Int, Default: DefaultMaxCycleSize, Help: "maximum cycle feature size in edges"},
		},
		Factory: func(p engine.Params) (core.Method, error) {
			return New(Options{
				FingerprintBits: p.Int("fingerprintBits"),
				MaxTreeSize:     p.Int("maxTreeSize"),
				MaxCycleSize:    p.Int("maxCycleSize"),
			}), nil
		},
	})
}
