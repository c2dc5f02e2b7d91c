package main

import (
	"math"
	"testing"

	"repro/internal/graph"
)

func TestPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 500}, {0.99, 990}, {1, 1000}, {0, 1}, {0.001, 1}, {0.0011, 2},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 1000 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestBestOfPasses(t *testing.T) {
	if got := best([]float64{2.5, 1.5, 9}); got != 1.5 {
		t.Errorf("best = %v, want the minimum 1.5", got)
	}
	if got := best(nil); got != 0 {
		t.Errorf("best(nil) = %v, want 0", got)
	}
	// The per-op floor: a disturbance in one pass (the 9s) leaves no trace
	// as long as every op ran clean once.
	passes := [][]float64{{1, 9, 3, 4}, {9, 2, 3, 9}, {1.5, 2.5, 9, 4}}
	got := floor(passes)
	for i, want := range []float64{1, 2, 3, 4} {
		if got[i] != want {
			t.Errorf("floor[%d] = %v, want %v", i, got[i], want)
		}
	}
	if passes[0][1] != 9 {
		t.Error("floor changed its argument")
	}
	if floor(nil) != nil {
		t.Error("floor(nil) != nil")
	}
	m := floorMutations([]mutations{{addMs: []float64{4, 2}, removeMs: []float64{1, 3}}, {addMs: []float64{3, 5}, removeMs: []float64{2, 2}}})
	if m.p50() != (2+1)/2.0 { // adds {3,2} -> median 2; removes {1,2} -> median 1
		t.Errorf("floorMutations p50 = %v, want 1.5", m.p50())
	}
}

// The expected values are Python's: statistics.quantiles(v, n=4) and
// statistics.median(v).
func TestQuartileSpread(t *testing.T) {
	v := []float64{10, 12, 11, 13, 9, 10.5, 11.5, 12.5, 10.2, 11.1}
	// quantiles -> [10.15, 11.05, 12.125], median 11.05
	want := (12.125 - 10.15) / 11.05
	if got := quartileSpread(v); math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// quantiles([1, 2, 3], n=4) -> [1.0, 2.0, 3.0]
	if got := quartileSpread([]float64{3, 1, 2}); got != 1 {
		t.Errorf("quartileSpread(1,2,3) = %v, want 1", got)
	}
	if got := pyMedian([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("pyMedian = %v, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "a.inner", Start: 15, End: 25}, // nested in a
		{ID: 4, Parent: 1, Name: "b", Start: 30, End: 60},       // overlaps a by 10
		{ID: 5, Parent: 1, Name: "c", Start: 90, End: 120},      // runs past its parent
		{ID: 6, Parent: 0, Name: "op", Start: 100, End: 130},    // no children
	}
	got := selfTimes(spans)
	// op: 100 - |[10,60) u [90,100)| = 100 - 60 = 40; a: 30 - 10; others whole.
	want := []int64{40, 20, 10, 30, 30, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", spans[i].ID, spans[i].Name, got[i], want[i])
		}
	}
	agg := aggregate(spans, 0)
	if a := agg["op"]; a.n != 2 || a.total != 130 || a.self != 70 {
		t.Errorf("aggregate[op] = %+v, want n=2 total=130 self=70", a)
	}
	if a := aggregate(spans, 5)["op"]; a.n != 1 || a.total != 30 {
		t.Errorf("aggregate from 5 [op] = %+v, want only the last op", a)
	}
}

func TestAnswerHashAndMix(t *testing.T) {
	if answerHash(graph.IDSet{}) == answerHash(graph.IDSet{0}) {
		t.Error("empty set and {0} hash alike")
	}
	if answerHash(graph.IDSet{1, 2}) == answerHash(graph.IDSet{2, 1}) {
		t.Error("hash ignores order; answers are sorted, so order is part of the value")
	}
	seen := map[int64]bool{}
	for seed := int64(0); seed < 4; seed++ {
		for k := int64(1); k <= 6; k++ {
			seen[mix(seed, k)] = true
			if mix(seed, k) < 0 {
				t.Errorf("mix(%d,%d) negative", seed, k)
			}
		}
	}
	if len(seen) != 24 {
		t.Errorf("mix produced %d distinct sub-seeds of 24", len(seen))
	}
}
