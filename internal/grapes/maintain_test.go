package grapes

import (
	"testing"

	"repro/internal/core"
	"repro/internal/testutil/maintain"
)

// BenchmarkMaintain: an add records and sorts the graph's path visits, a
// removal re-walks its distinct paths; both cost the graph, not the index.
func BenchmarkMaintain(b *testing.B) {
	maintain.Benchmark(b, func() core.Method { return New(Options{Workers: 2}) })
}
