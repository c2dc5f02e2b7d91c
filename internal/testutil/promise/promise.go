// Package promise checks the stream promise every engine, node and cluster
// stream makes under concurrent writes: ids come out strictly ascending,
// each once; every graph live for the stream's whole life that contains
// the query is yielded; and every yielded graph contains the query and was
// live at some moment of the stream. Usage:
//
//	promise.Check(t, got, always, ever)
//
// with always the answers over the graphs live throughout the stream and
// ever those over the graphs live at some moment of it (a superset of the
// latter is a weaker but still valid bound).
package promise

import "repro/internal/graph"

// TB is the subset of testing.TB the check needs.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// Check asserts the stream promise on a stream's answers got.
func Check(t TB, got, always, ever graph.IDSet) {
	t.Helper()
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("stream ids not strictly ascending: %d after %d in %v", got[i], got[i-1], got)
		}
	}
	if !always.Intersect(got).Equal(always) {
		t.Errorf("stream %v misses answers live throughout it %v", got, always)
	}
	if !got.Intersect(ever).Equal(got) {
		t.Errorf("stream %v yields ids outside the answers live at some moment %v", got, ever)
	}
}
