package grapes

import (
	"cmp"
	"encoding/binary"
	"math/bits"
	"slices"

	"repro/internal/canon"
	"repro/internal/features"
	"repro/internal/graph"
)

// packing lays canonical path keys out as fixed-width integer records over
// one label alphabet. Ranks number the alphabet's distinct labels from 1 in
// the byte order of their 4-byte key encodings; a key is its labels' ranks
// of b bits each, most significant first, zero-padded to maxPathLen+1 ranks
// over w 64-bit words (no rank straddles two words). Records therefore
// compare exactly as their canon.PathKey bytes do, and a key sorts before
// every longer key it prefixes.
type packing struct {
	labels     []graph.Label // rank r is labels[r-1]
	b, w       int           // bits per rank, words per key
	perWord    int           // ranks per word
	maxPathLen int
}

func byKeyBytes(a, b graph.Label) int {
	return cmp.Compare(bits.ReverseBytes32(uint32(a)), bits.ReverseBytes32(uint32(b)))
}

// reset makes pk the packing of the distinct labels among labels, reusing
// its label buffer.
func (pk *packing) reset(labels []graph.Label, maxPathLen int) {
	pk.labels = append(pk.labels[:0], labels...)
	slices.SortFunc(pk.labels, byKeyBytes)
	pk.labels = slices.Compact(pk.labels)
	pk.b = max(bits.Len(uint(len(pk.labels))), 1)
	pk.perWord = 64 / pk.b
	pk.w = (maxPathLen + pk.perWord) / pk.perWord // ⌈(maxPathLen+1) / perWord⌉
	pk.maxPathLen = maxPathLen
}

// ranks returns g's vertex → rank table in dst, resliced as needed. Every
// label of g must be in pk's alphabet.
func (pk *packing) ranks(g *graph.Graph, dst []uint64) []uint64 {
	dst = dst[:0]
	for _, l := range g.Labels() {
		i, _ := slices.BinarySearchFunc(pk.labels, l, byKeyBytes)
		dst = append(dst, uint64(i+1))
	}
	return dst
}

// appendKey appends the w key words of the path vs of g, whose vertices
// have the given ranks, read in canon.PathKey's direction: the label
// sequence or its reverse, whichever is smaller at the first position
// where they differ.
func (pk *packing) appendKey(recs []uint64, g *graph.Graph, rank []uint64, vs []int32) []uint64 {
	last := len(vs) - 1
	forward := true
	for i, j := 0, last; i < j; i, j = i+1, j-1 {
		if a, b := g.Label(vs[i]), g.Label(vs[j]); a != b {
			forward = a < b
			break
		}
	}
	at := len(recs)
	for range pk.w {
		recs = append(recs, 0)
	}
	word, shift := at, 64
	for i := range vs {
		v := vs[i]
		if !forward {
			v = vs[last-i]
		}
		if shift < pk.b {
			word, shift = word+1, 64
		}
		shift -= pk.b
		recs[word] |= rank[v] << shift
	}
	return recs
}

// forRanks calls fn with each rank of the key in key (its first w words),
// in order.
func (pk *packing) forRanks(key []uint64, fn func(r uint64)) {
	word, shift := 0, 64
	for range pk.maxPathLen + 1 {
		if shift < pk.b {
			word, shift = word+1, 64
		}
		shift -= pk.b
		r := key[word] >> shift & (1<<pk.b - 1)
		if r == 0 {
			return
		}
		fn(r)
	}
}

// keyLen returns the length of the canon.PathKey bytes of key.
func (pk *packing) keyLen(key []uint64) int {
	n := 0
	pk.forRanks(key, func(uint64) { n += 4 })
	return n
}

// appendKeyBytes appends the canon.PathKey bytes of key to dst.
func (pk *packing) appendKeyBytes(dst []byte, key []uint64) []byte {
	pk.forRanks(key, func(r uint64) { dst = binary.LittleEndian.AppendUint32(dst, uint32(pk.labels[r-1])) })
	return dst
}

// recorder appends one build record per path visit of each graph it is
// given: the visit's key words, then one word holding the graph id in the
// high half and the visit's start vertex in the low half. VisitPaths visits
// a graph's paths grouped by start vertex, ascending, so a graph's records
// come out in start order.
type recorder struct {
	pk   *packing
	rank []uint64 // vertex → rank, for the graph being recorded
	recs []uint64
}

func (rc *recorder) record(g *graph.Graph) {
	rc.rank = rc.pk.ranks(g, rc.rank)
	id := uint64(uint32(g.ID())) << 32
	features.VisitPaths(g, rc.pk.maxPathLen, func(vs []int32) bool {
		rc.recs = rc.pk.appendKey(rc.recs, g, rc.rank, vs)
		rc.recs = append(rc.recs, id|uint64(uint32(vs[0])))
		return true
	})
}

// radixDigit is one counting pass of sortRecords: bits [shift, shift+width)
// of key word word.
type radixDigit struct {
	word, shift, width int
}

// maxDigitBits bounds a counting pass's histogram to 2^11 buckets.
const maxDigitBits = 11

// digits returns the key's used bits as counting-pass digits, least
// significant first: the last word's before the first's, and within a word
// from its lowest used bit up. A word's unused low bits are always zero and
// take no pass.
func (pk *packing) digits() []radixDigit {
	var ds []radixDigit
	for word := pk.w - 1; word >= 0; word-- {
		used := pk.b * min(pk.perWord, pk.maxPathLen+1-word*pk.perWord)
		passes := (used + maxDigitBits - 1) / maxDigitBits
		width := (used + passes - 1) / passes
		for lo := 64 - used; lo < 64; lo += width {
			ds = append(ds, radixDigit{word: word, shift: lo, width: min(width, 64-lo)})
		}
	}
	return ds
}

// sortRecords sorts the build records of parts, taken in order as one
// sequence, stably on their key words: an LSD radix sort with one counting
// pass per digit. The first pass scatters straight out of parts, which it
// then releases; a pass whose digit is the same in every record is
// skipped. Records with equal keys keep their order, so records that
// arrive in (graph id, start) order leave in (key, graph id, start) order.
func (pk *packing) sortRecords(parts [][]uint64) []uint64 {
	stride := pk.w + 1
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		return nil
	}
	ds := pk.digits()
	counts := make([][]int, len(ds))
	for d, dg := range ds {
		counts[d] = make([]int, 1<<dg.width)
	}
	// One read of the records fills every digit's histogram.
	for _, p := range parts {
		for at := 0; at < len(p); at += stride {
			for d, dg := range ds {
				counts[d][p[at+dg.word]>>dg.shift&(1<<dg.width-1)]++
			}
		}
	}
	var src, dst, spare []uint64
	for d, dg := range ds {
		c := counts[d]
		if d > 0 && slices.Contains(c, total/stride) {
			continue
		}
		if dst = spare; dst == nil {
			dst = make([]uint64, total)
		}
		// c[v] becomes the next free record slot of digit value v.
		next := 0
		for v, n := range c {
			c[v], next = next, next+n
		}
		scatter := func(p []uint64) {
			mask := uint64(1)<<dg.width - 1
			for at := 0; at < len(p); at += stride {
				v := p[at+dg.word] >> dg.shift & mask
				o := c[v] * stride
				c[v]++
				copy(dst[o:o+stride], p[at:at+stride])
			}
		}
		if d == 0 {
			for i, p := range parts {
				scatter(p)
				parts[i] = nil
			}
		} else {
			scatter(src)
		}
		src, spare = dst, src
	}
	return src
}

// postings turns sorted build records into one posting per distinct key,
// in ascending key order: a run of equal keys is the key's posting, a run
// of one graph id within it that graph's location — count is the run's
// length, starts its distinct start vertices. A counting pass sizes every
// output exactly; the key bytes, ids, locations and starts are each carved
// out of one allocation, with capacities clipped so that an insert into one
// posting reallocates it instead of overwriting its neighbour.
func (pk *packing) postings(recs []uint64) ([]canon.Key, []posting) {
	w, stride := pk.w, pk.w+1
	sameKey := func(at int) bool { return at > 0 && slices.Equal(recs[at-stride:at-1], recs[at:at+w]) }
	var nKeys, nPairs, nStarts, keyBytes int
	for at := 0; at < len(recs); at += stride {
		switch {
		case !sameKey(at):
			nKeys++
			keyBytes += pk.keyLen(recs[at:])
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
	for at := 0; at < len(recs); at += stride {
		visit := recs[at+w]
		newKey := !sameKey(at)
		if newKey {
			k++
			firstPair = pair + 1
			blob = pk.appendKeyBytes(blob, recs[at:at+w])
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
	return keys, posts
}
