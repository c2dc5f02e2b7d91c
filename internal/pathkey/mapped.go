package pathkey

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/diskfmt"
	"repro/internal/obs"
)

// Mapped is the key directory of an open container with its postings of
// type P, each decoded on first touch (storage=mmap): the directory and
// key bytes CRC-checked, the posting records an unverified slice of the
// mapping, so that only the records a query touches ever fault in. Fetch
// runs once; after it every read is lock-free: the directory is immutable
// bytes, and the cache is a slice of atomic pointers by directory slot.
// Two goroutines that touch one posting first may both decode it; the one
// whose CompareAndSwap lands publishes it and is the only one counted.
type Mapped[P any] struct {
	R      *diskfmt.Reader // owned: Close it when done
	n      int
	method string // the index, in metrics
	decode func(rec []byte, card int) (*P, error)
	size   func(*P) int64

	once            sync.Once
	err             error // sticky: the directory failed to fetch or validate
	dir, blob, post []byte
	cache           []atomic.Pointer[P]
	resident        atomic.Int64
}

// NewMapped returns the directory of n keys in r, of the index named
// method, whose posting records decode decodes and whose decoded postings
// pin size bytes of heap. It reads nothing yet.
func NewMapped[P any](r *diskfmt.Reader, n int, method string,
	decode func(rec []byte, card int) (*P, error), size func(*P) int64) *Mapped[P] {
	return &Mapped[P]{R: r, n: n, method: method, decode: decode, size: size}
}

// Len returns the number of keys.
func (m *Mapped[P]) Len() int { return m.n }

// Fetch reads the directory and validates every entry against the
// sections it points into, once, in one pass over bytes it has just read:
// keys in range and strictly ascending (find binary-searches them),
// posting records in range. Nothing read through the directory can then
// go out of bounds. The outcome is sticky.
func (m *Mapped[P]) Fetch() error {
	m.once.Do(func() { m.err = m.fetch() })
	return m.err
}

func (m *Mapped[P]) fetch() error {
	var err error
	if m.dir, err = m.R.Section(SecKeyDir); err != nil {
		return err
	}
	if m.blob, err = m.R.Section(SecKeyBlob); err != nil {
		return err
	}
	if m.post, err = m.R.SectionLazy(SecPostings); err != nil {
		return err
	}
	if len(m.dir) != m.n*entrySize {
		return fmt.Errorf("key directory of %d bytes for %d keys", len(m.dir), m.n)
	}
	for i := range m.n {
		keyOff, keyLen, _, postOff, postLen := m.entry(i)
		if uint64(keyOff)+uint64(keyLen) > uint64(len(m.blob)) ||
			uint64(postOff)+uint64(postLen) > uint64(len(m.post)) {
			return fmt.Errorf("key directory entry %d out of bounds", i)
		}
		if i > 0 && string(m.keyAt(i-1)) >= string(m.keyAt(i)) {
			return fmt.Errorf("key directory out of order at entry %d", i)
		}
	}
	m.cache = make([]atomic.Pointer[P], m.n)
	return nil
}

func (m *Mapped[P]) entry(i int) (keyOff, keyLen, card, postOff, postLen uint32) {
	e := m.dir[i*entrySize : (i+1)*entrySize]
	return binary.LittleEndian.Uint32(e), binary.LittleEndian.Uint32(e[4:]), binary.LittleEndian.Uint32(e[8:]),
		binary.LittleEndian.Uint32(e[12:]), binary.LittleEndian.Uint32(e[16:])
}

// keyAt returns the key bytes of slot i.
func (m *Mapped[P]) keyAt(i int) []byte {
	off, n, _, _, _ := m.entry(i)
	return m.blob[off : off+n]
}

// card returns the posting cardinality of slot i.
func (m *Mapped[P]) card(i int) int {
	_, _, card, _, _ := m.entry(i)
	return int(card)
}

// decodeAt decodes the posting of slot i.
func (m *Mapped[P]) decodeAt(i int) (*P, error) {
	_, _, card, off, n := m.entry(i)
	p, err := m.decode(m.post[off:off+n], int(card))
	if err != nil {
		return nil, fmt.Errorf("posting %d: %w", i, err)
	}
	return p, nil
}

// find binary-searches the directory for key and returns its slot.
func (m *Mapped[P]) find(key string) (int, bool) {
	lo, hi := 0, m.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if string(m.keyAt(mid)) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < m.n && string(m.keyAt(lo)) == key
}

// Posting returns the posting of directory slot i, decoding it on first
// touch. The directory must be fetched.
func (m *Mapped[P]) Posting(i int) (*P, error) {
	if p := m.cache[i].Load(); p != nil {
		return p, nil
	}
	p, err := m.decodeAt(i)
	if err != nil {
		return nil, err
	}
	if !m.cache[i].CompareAndSwap(nil, p) {
		return m.cache[i].Load(), nil
	}
	m.Account(m.size(p))
	return p, nil
}

// Account records one lazy materialization of n heap bytes.
func (m *Mapped[P]) Account(n int64) {
	m.resident.Add(n)
	obs.IndexLazyLoadInc(m.method)
	obs.IndexResidentAdd(m.method, core.StorageMmap, n)
}

// Resident returns the heap bytes that decoded entries pin.
func (m *Mapped[P]) Resident() int64 { return m.resident.Load() }

// All decodes every posting: the heap form of the directory.
func (m *Mapped[P]) All() (map[canon.Key]*P, error) {
	if err := m.Fetch(); err != nil {
		return nil, err
	}
	all := make(map[canon.Key]*P, m.n)
	for i := range m.n {
		p, err := m.decodeAt(i)
		if err != nil {
			return nil, err
		}
		all[canon.Key(m.keyAt(i))] = p
	}
	return all, nil
}

// CopyTo adds the directory's sections and the method's sections ids to w
// as they are, once their checksums hold.
func (m *Mapped[P]) CopyTo(w *diskfmt.Writer, ids ...uint32) error {
	for _, id := range append(Sections[:len(Sections):len(Sections)], ids...) {
		b, err := m.R.Section(id)
		if err != nil {
			return err
		}
		w.AddSection(id, b)
	}
	return nil
}

// Materialize decodes every posting to the heap and closes the mapping; a
// mutation needs heap postings to splice. The caller holds the write lock,
// so no query or warm-up still reads the mapping.
func (m *Mapped[P]) Materialize() (map[canon.Key]*P, error) {
	all, err := m.All()
	if err != nil {
		return nil, err
	}
	obs.IndexResidentSet(m.method, core.StorageMmap, 0)
	return all, m.R.Close()
}
