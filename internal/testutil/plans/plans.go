// Package plans drains a method's query plan for tests that assert on the
// filter's output as one candidate set.
package plans

import (
	"context"

	"repro/internal/core"
	"repro/internal/graph"
)

// Candidates plans q with m over ds and drains the plan's chunks into the
// sorted candidate set.
func Candidates(m core.Method, ds *graph.Dataset, q *graph.Graph) (graph.IDSet, error) {
	plan, err := core.NewPlan(context.Background(), m, ds, q)
	if err != nil {
		return nil, err
	}
	return plan.Candidates(), nil
}
