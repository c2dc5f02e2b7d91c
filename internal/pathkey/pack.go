// Package pathkey is where a label path becomes a key and a key finds its
// posting, for the two path methods: Grapes and GraphGrepSX index the same
// feature set — every label path of at most MaxPathLen edges — under one
// canonical key per path and its reverse (canon.PathKey bytes). It holds
// the packed fixed-width form of those keys (Packing), Grapes's record
// sort over it (Recorder, SortRecords), the key numbering (Table) and
// per-graph path counts (Counter) that GraphGrepSX builds from and Grapes
// removes a graph by, a query's analysis into its distinct keys and their
// visit counts (Extract), and the key directory: sorted keys with their
// postings' cardinalities, written by WriteDir and read in place from a
// mapped container by Mapped. Resolve looks a query's keys up in a heap
// map or a Mapped directory.
package pathkey

import (
	"cmp"
	"context"
	"encoding/binary"
	"math/bits"
	"slices"

	"repro/internal/features"
	"repro/internal/graph"
)

// Packing lays canonical path keys out as fixed-width integer records over
// one label alphabet. Ranks number the alphabet's distinct labels from 1 in
// the byte order of their 4-byte key encodings; a key is its labels' ranks
// of b bits each, most significant first, zero-padded to maxPathLen+1 ranks
// over w 64-bit words (no rank straddles two words). Records therefore
// compare exactly as their canon.PathKey bytes do, and a key sorts before
// every longer key it prefixes.
type Packing struct {
	labels     []graph.Label // rank r is labels[r-1]
	b, w       int           // bits per rank, words per key
	perWord    int           // ranks per word
	maxPathLen int
}

func byKeyBytes(a, b graph.Label) int {
	return cmp.Compare(bits.ReverseBytes32(uint32(a)), bits.ReverseBytes32(uint32(b)))
}

// Reset makes pk the packing of the distinct labels among labels, reusing
// its label buffer.
func (pk *Packing) Reset(labels []graph.Label, maxPathLen int) {
	pk.labels = append(pk.labels[:0], labels...)
	slices.SortFunc(pk.labels, byKeyBytes)
	pk.labels = slices.Compact(pk.labels)
	pk.b = max(bits.Len(uint(len(pk.labels))), 1)
	pk.perWord = 64 / pk.b
	pk.w = (maxPathLen + pk.perWord) / pk.perWord // ⌈(maxPathLen+1) / perWord⌉
	pk.maxPathLen = maxPathLen
}

// Words returns the number of 64-bit words of a key.
func (pk *Packing) Words() int { return pk.w }

// Ranks returns g's vertex → rank table in dst, resliced as needed. Every
// label of g must be in pk's alphabet.
func (pk *Packing) Ranks(g *graph.Graph, dst []uint64) []uint64 {
	dst = dst[:0]
	for _, l := range g.Labels() {
		i, _ := slices.BinarySearchFunc(pk.labels, l, byKeyBytes)
		dst = append(dst, uint64(i+1))
	}
	return dst
}

// AppendKey appends the w key words of the path vs of g, whose vertices
// have the given ranks, read in canon.PathKey's direction: the label
// sequence or its reverse, whichever is smaller at the first position
// where they differ.
func (pk *Packing) AppendKey(recs []uint64, g *graph.Graph, rank []uint64, vs []int32) []uint64 {
	last := len(vs) - 1
	i, j := 0, last
	for i < j && g.Label(vs[i]) == g.Label(vs[j]) {
		i, j = i+1, j-1
	}
	reverse := i < j && g.Label(vs[i]) > g.Label(vs[j])
	end := len(recs) + pk.w
	b, shift := uint(pk.b), uint(64)
	var x uint64 // the word being filled
	for k, v := range vs {
		if reverse {
			v = vs[last-k]
		}
		if shift < b {
			recs, x, shift = append(recs, x), 0, 64
		}
		shift -= b
		x |= rank[v] << (shift & 63)
	}
	for recs = append(recs, x); len(recs) < end; {
		recs = append(recs, 0)
	}
	return recs
}

// forRanks calls fn with each rank of the key in key (its first w words),
// in order.
func (pk *Packing) forRanks(key []uint64, fn func(r uint64)) {
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

// KeyLen returns the length of the canon.PathKey bytes of key.
func (pk *Packing) KeyLen(key []uint64) int {
	n := 0
	pk.forRanks(key, func(uint64) { n += 4 })
	return n
}

// AppendKeyBytes appends the canon.PathKey bytes of key to dst.
func (pk *Packing) AppendKeyBytes(dst []byte, key []uint64) []byte {
	pk.forRanks(key, func(r uint64) { dst = binary.LittleEndian.AppendUint32(dst, uint32(pk.labels[r-1])) })
	return dst
}

// Recorder appends one build record per path visit of each graph it is
// given: the visit's key words, then one word holding the graph id in the
// high half and the visit's start vertex in the low half. VisitPaths visits
// a graph's paths grouped by start vertex, ascending, so a graph's records
// come out in start order.
type Recorder struct {
	Pk   *Packing
	Recs []uint64
	rank []uint64 // vertex → rank, for the graph being recorded
}

// Record appends g's records.
func (rc *Recorder) Record(g *graph.Graph) {
	rc.rank = rc.Pk.Ranks(g, rc.rank)
	id := uint64(uint32(g.ID())) << 32
	features.VisitPaths(g, rc.Pk.maxPathLen, func(vs []int32) bool {
		rc.Recs = rc.Pk.AppendKey(rc.Recs, g, rc.rank, vs)
		rc.Recs = append(rc.Recs, id|uint64(uint32(vs[0])))
		return true
	})
}

// radixDigit is one counting pass of SortRecords: bits [shift, shift+width)
// of key word word.
type radixDigit struct {
	word, shift, width int
}

// maxDigitBits bounds a counting pass's histogram to 2^11 buckets.
const maxDigitBits = 11

// CheckEvery is how many records a long pass over build records handles
// between two looks at its context.
const CheckEvery = 1 << 20

// digits returns the key's used bits as counting-pass digits, least
// significant first: the last word's before the first's, and within a word
// from its lowest used bit up. A word's unused low bits are always zero and
// take no pass.
func (pk *Packing) digits() []radixDigit {
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

// SortRecords sorts the Recorder records of parts, taken in order as one
// sequence, stably on their key words: an LSD radix sort with one counting
// pass per digit. The first pass scatters straight out of parts, which it
// then releases; a pass whose digit is the same in every record is
// skipped. Records with equal keys keep their order, so records that
// arrive in (graph id, start) order leave in (key, graph id, start) order.
// ctx is checked before every pass and every CheckEvery records within one.
func (pk *Packing) SortRecords(ctx context.Context, parts [][]uint64) ([]uint64, error) {
	stride := pk.w + 1
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		return nil, ctx.Err()
	}
	ds := pk.digits()
	counts := make([][]int, len(ds))
	for d, dg := range ds {
		counts[d] = make([]int, 1<<dg.width)
	}
	batch := CheckEvery * stride
	// One read of the records fills every digit's histogram.
	for _, p := range parts {
		for lo := 0; lo < len(p); lo += batch {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for at, hi := lo, min(lo+batch, len(p)); at < hi; at += stride {
				for d, dg := range ds {
					counts[d][p[at+dg.word]>>dg.shift&(1<<dg.width-1)]++
				}
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
		scatter := func(p []uint64) error {
			mask := uint64(1)<<dg.width - 1
			for lo := 0; lo < len(p); lo += batch {
				if err := ctx.Err(); err != nil {
					return err
				}
				for at, hi := lo, min(lo+batch, len(p)); at < hi; at += stride {
					v := p[at+dg.word] >> dg.shift & mask
					o := c[v] * stride
					c[v]++
					copy(dst[o:o+stride], p[at:at+stride])
				}
			}
			return nil
		}
		if d == 0 {
			for i, p := range parts {
				if err := scatter(p); err != nil {
					return nil, err
				}
				parts[i] = nil
			}
		} else if err := scatter(src); err != nil {
			return nil, err
		}
		src, spare = dst, src
	}
	return src, nil
}
