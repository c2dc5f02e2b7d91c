package grapes

import (
	"context"
	"slices"

	"repro/internal/canon"
	"repro/internal/graph"
	"repro/internal/pathkey"
)

// postings turns sorted build records into one posting per distinct key,
// in ascending key order: a run of equal keys is the key's posting, a run
// of one graph id within it that graph's location — count is the run's
// length, starts its distinct start vertices. A counting pass sizes every
// output exactly; the key bytes, ids, locations and starts are each carved
// out of one allocation, with capacities clipped so that an insert into one
// posting reallocates it instead of overwriting its neighbour. Both passes
// check ctx every pathkey.CheckEvery records.
func postings(ctx context.Context, pk *pathkey.Packing, recs []uint64) ([]canon.Key, []posting, error) {
	w := pk.Words()
	stride := w + 1
	sameKey := func(at int) bool { return at > 0 && slices.Equal(recs[at-stride:at-1], recs[at:at+w]) }
	var nKeys, nPairs, nStarts, keyBytes int
	for at, n := 0, 0; at < len(recs); at, n = at+stride, n+1 {
		if n%pathkey.CheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		switch {
		case !sameKey(at):
			nKeys++
			keyBytes += pk.KeyLen(recs[at:])
			nPairs++
			nStarts++
		case recs[at-1]>>32 != recs[at+w]>>32:
			nPairs++
			nStarts++
		case recs[at-1] != recs[at+w]:
			nStarts++
		}
	}

	blob := make([]byte, 0, keyBytes)
	ends := make([]int, 0, nKeys)
	posts := make([]posting, nKeys)
	ids := make(graph.IDSet, nPairs)
	locs := make([]location, nPairs)
	starts := make([]int32, nStarts)
	k, pair, start := -1, -1, -1
	firstPair, firstStart := 0, 0
	for at, n := 0, 0; at < len(recs); at, n = at+stride, n+1 {
		if n%pathkey.CheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		visit := recs[at+w]
		newKey := !sameKey(at)
		if newKey {
			k++
			firstPair = pair + 1
			blob = pk.AppendKeyBytes(blob, recs[at:at+w])
			ends = append(ends, len(blob))
		}
		newPair := newKey || recs[at-1]>>32 != visit>>32
		if newPair {
			pair++
			firstStart = start + 1
			ids[pair] = graph.ID(visit >> 32)
			posts[k].ids = ids[firstPair : pair+1 : pair+1]
			posts[k].locs = locs[firstPair : pair+1 : pair+1]
		}
		if newPair || recs[at-1] != visit {
			start++
			starts[start] = int32(uint32(visit))
			locs[pair].starts = starts[firstStart : start+1 : start+1]
		}
		locs[pair].count++
	}

	all := string(blob)
	keys := make([]canon.Key, nKeys)
	for i, end := range ends {
		lo := 0
		if i > 0 {
			lo = ends[i-1]
		}
		keys[i] = canon.Key(all[lo:end])
	}
	return keys, posts, nil
}
