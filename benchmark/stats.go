package main

import (
	"slices"

	"repro/internal/graph"
)

// percentile returns the p-quantile (0..1) of xs by the nearest-rank rule on
// a sorted copy: the smallest value with at least p of the samples at or
// below it. p99 of 1000 samples is therefore the 990th, with ten beyond it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(p*float64(len(s))+0.999999) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// best is the estimator for timings on a shared box: neighbours only ever
// slow a pass down, so over identical passes the minimum repeats across
// processes where the median does not.
func best(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

// floor is the per-op best over repeated identical passes: element i is the
// fastest op i ever ran. It is best-of-passes taken op by op: a disturbance
// counts only if it hits the same op in every pass, where the best pass as a
// whole still carries whatever hit it. A GC cycle is such a disturbance too,
// so what allocation costs shows in allocs_per_query and bytes_per_query, not
// here.
func floor(passes [][]float64) []float64 {
	if len(passes) == 0 {
		return nil
	}
	out := slices.Clone(passes[0])
	for _, p := range passes[1:] {
		for i := range min(len(out), len(p)) { // lengths differ only after a failed op
			out[i] = min(out[i], p[i])
		}
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// answerHash folds a sorted answer set into 64 bits (FNV-1a over the ids);
// it allocates nothing, so it can run inside a measured pass.
func answerHash(ids graph.IDSet) uint64 {
	h := uint64(14695981039346656037)
	for _, id := range ids {
		v := uint32(id)
		for range 4 {
			h ^= uint64(v & 0xff)
			h *= 1099511628211
			v >>= 8
		}
	}
	return h ^ uint64(len(ids))
}

// mix derives the k-th sub-seed of a run, so that the dataset, the queries,
// the traffic and the added graphs are independent streams of one --seed.
func mix(seed int64, k int64) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return int64(x >> 1)
}
