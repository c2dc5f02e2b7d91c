package ggsx

import (
	"testing"

	"repro/internal/core"
	"repro/internal/testutil/maintain"
)

// BenchmarkMaintain: an add counts the graph's paths, a removal sweeps
// every posting of the index, so its cost follows the index's feature
// count — small at three labels, large at ten.
func BenchmarkMaintain(b *testing.B) {
	maintain.Benchmark(b, func() core.Method { return New(Options{}) })
}
