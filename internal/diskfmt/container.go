// Package diskfmt defines the repro-index on-disk container — the one
// format every persisted index uses: a versioned, memory-mappable
// section-table layout, a compressed posting-list representation
// (postings.go), and the keyed-postings section codec the hash-table
// methods share (keyed.go).
//
// File layout (all integers little-endian):
//
//	magic      [8]byte   "RIX2\r\n\x1a\x00"
//	epoch      uint64    dataset epoch the index was built against
//	tag        uint64    dataset structural fingerprint (VersionTag)
//	reserved   uint32
//	nSections  uint32
//	specLen    uint32
//	spec       [specLen]byte   canonical engine spec ("" when unbound)
//	pad to 4-byte boundary
//	table      nSections × {id uint32, crc uint32, off uint64, len uint64}
//	headerCRC  uint32    CRC32 (IEEE) of every byte above
//	payload    sections, each starting on an 8-byte boundary
//
// Opening a file parses and checksums only the header and section table —
// O(header), independent of payload size. Section payload CRCs are
// verified lazily on first access, so an mmap-backed reader faults pages
// in only when a section is actually touched.
package diskfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"
)

// Magic identifies a container. The trailing CR/LF/SUB/NUL bytes guard
// against text-mode transfer mangling, like the PNG signature does.
var Magic = [8]byte{'R', 'I', 'X', '2', '\r', '\n', 0x1a, 0x00}

// ErrNotDiskFmt reports that a file does not start with the container
// magic; loaders treat it like a corrupt file and rebuild.
var ErrNotDiskFmt = errors.New("diskfmt: not a repro-index v2 container")

// CorruptError reports a structurally invalid or checksum-failing
// container. Loaders treat it as "rebuild the index", never as fatal.
type CorruptError struct {
	Detail string
}

func (e *CorruptError) Error() string { return "diskfmt: corrupt container: " + e.Detail }

func corruptf(format string, args ...any) error {
	return &CorruptError{Detail: fmt.Sprintf(format, args...)}
}

// IsCorrupt reports whether err indicates a damaged (but recognized)
// container.
func IsCorrupt(err error) bool {
	var ce *CorruptError
	return errors.As(err, &ce)
}

// CheckSizeParams rejects size-like parameters restored from a meta
// section (feature edges, path lengths, eigenvalue counts) that only a
// damaged file can hold. Query-time enumerators size their scratch space by
// these, so a wild value has to fail the load, not the first query; no
// method is usable anywhere near the bound.
func CheckSizeParams(vals ...int) error {
	const limit = 1 << 16
	for _, v := range vals {
		if v < 0 || v > limit {
			return corruptf("size parameter %d outside [0, %d]", v, limit)
		}
	}
	return nil
}

// IsMagic reports whether b begins with the container magic.
func IsMagic(b []byte) bool {
	return len(b) >= len(Magic) && bytes.Equal(b[:len(Magic)], Magic[:])
}

const (
	fixedHeaderSize  = 8 + 8 + 8 + 4 + 4 + 4 // magic..specLen
	tableEntrySize   = 4 + 4 + 8 + 8
	maxSections      = 1 << 10
	maxSpecLen       = 1 << 16
	sectionAlignment = 8
)

// Writer accumulates named sections in memory and flushes a complete
// container in one pass, so it composes with atomic rename-into-place
// helpers that take an io.Writer.
type Writer struct {
	epoch uint64
	tag   uint64
	spec  string
	ids   []uint32
	data  [][]byte
}

// NewWriter starts a container stamped with the dataset epoch, structural
// tag, and canonical engine spec ("" when the index is not spec-bound).
func NewWriter(epoch, tag uint64, spec string) *Writer {
	return &Writer{epoch: epoch, tag: tag, spec: spec}
}

// AddSection appends a section. Section ids must be unique per container;
// a duplicate id replaces the earlier payload. The Writer takes ownership
// of data.
func (w *Writer) AddSection(id uint32, data []byte) {
	for i, have := range w.ids {
		if have == id {
			w.data[i] = data
			return
		}
	}
	w.ids = append(w.ids, id)
	w.data = append(w.data, data)
}

// WriteTo emits the complete container.
func (w *Writer) WriteTo(out io.Writer) (int64, error) {
	if len(w.ids) > maxSections {
		return 0, fmt.Errorf("diskfmt: %d sections exceeds limit %d", len(w.ids), maxSections)
	}
	if len(w.spec) > maxSpecLen {
		return 0, fmt.Errorf("diskfmt: spec of %d bytes exceeds limit %d", len(w.spec), maxSpecLen)
	}
	var hdr []byte
	hdr = append(hdr, Magic[:]...)
	hdr = binary.LittleEndian.AppendUint64(hdr, w.epoch)
	hdr = binary.LittleEndian.AppendUint64(hdr, w.tag)
	hdr = binary.LittleEndian.AppendUint32(hdr, 0) // reserved
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(w.ids)))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(w.spec)))
	hdr = append(hdr, w.spec...)
	for len(hdr)%4 != 0 {
		hdr = append(hdr, 0)
	}

	// Lay out payload offsets relative to the start of the file: header,
	// table, header CRC, then 8-aligned sections.
	headerEnd := len(hdr) + len(w.ids)*tableEntrySize + 4
	off := uint64(headerEnd)
	offs := make([]uint64, len(w.ids))
	for i, d := range w.data {
		off = alignUp(off, sectionAlignment)
		offs[i] = off
		off += uint64(len(d))
	}
	for i, id := range w.ids {
		hdr = binary.LittleEndian.AppendUint32(hdr, id)
		hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(w.data[i]))
		hdr = binary.LittleEndian.AppendUint64(hdr, offs[i])
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(w.data[i])))
	}
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))

	var n int64
	wn, err := out.Write(hdr)
	n += int64(wn)
	if err != nil {
		return n, err
	}
	var pad [sectionAlignment]byte
	pos := uint64(len(hdr))
	for i, d := range w.data {
		if gap := offs[i] - pos; gap > 0 {
			wn, err = out.Write(pad[:gap])
			n += int64(wn)
			if err != nil {
				return n, err
			}
			pos += gap
		}
		wn, err = out.Write(d)
		n += int64(wn)
		if err != nil {
			return n, err
		}
		pos += uint64(len(d))
	}
	return n, nil
}

func alignUp(v, a uint64) uint64 { return (v + a - 1) &^ (a - 1) }

type sectionEntry struct {
	id   uint32
	crc  uint32
	off  uint64
	size uint64
}

// Reader gives random access to a container's sections. The header and
// section table are parsed and checksummed at open; each section payload
// is CRC-verified once, on first access. When backed by an mmap the
// returned section slices alias the mapping and are valid until Close.
type Reader struct {
	data    []byte
	mapped  bool
	closeFn func() error
	epoch   uint64
	tag     uint64
	spec    string
	entries []sectionEntry
	// verified[i]: section i's payload CRC has been checked OK.
	// accessed[i]: section i's payload was read in full (Section or
	// VerifySection; SectionLazy only slices the mapping and does not
	// count) — exposed so cold-start tests can assert laziness.
	verified []atomic.Bool
	accessed []atomic.Bool
}

// Open maps (mapped=true) or reads (mapped=false) the file at path and
// parses the header. Returns ErrNotDiskFmt when the file is not a v2
// container, or a *CorruptError when it is damaged.
func Open(path string, mapped bool) (*Reader, error) {
	if mapped {
		data, closeFn, err := mapFile(path)
		if err != nil {
			return nil, err
		}
		r, err := FromBytes(data)
		if err != nil {
			closeFn()
			return nil, err
		}
		r.mapped = true
		r.closeFn = closeFn
		return r, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return FromBytes(data)
}

// FromBytes parses a container already in memory. The Reader aliases b.
func FromBytes(b []byte) (*Reader, error) {
	if !IsMagic(b) {
		return nil, ErrNotDiskFmt
	}
	if len(b) < fixedHeaderSize {
		return nil, corruptf("file of %d bytes shorter than fixed header", len(b))
	}
	epoch := binary.LittleEndian.Uint64(b[8:])
	tag := binary.LittleEndian.Uint64(b[16:])
	nSections := binary.LittleEndian.Uint32(b[28:])
	specLen := binary.LittleEndian.Uint32(b[32:])
	if nSections > maxSections {
		return nil, corruptf("section count %d exceeds limit %d", nSections, maxSections)
	}
	if specLen > maxSpecLen {
		return nil, corruptf("spec length %d exceeds limit %d", specLen, maxSpecLen)
	}
	specEnd := uint64(fixedHeaderSize) + uint64(specLen)
	tableStart := alignUp(specEnd, 4)
	headerEnd := tableStart + uint64(nSections)*tableEntrySize + 4
	if headerEnd > uint64(len(b)) {
		return nil, corruptf("header of %d bytes overruns file of %d bytes", headerEnd, len(b))
	}
	wantCRC := binary.LittleEndian.Uint32(b[headerEnd-4:])
	if got := crc32.ChecksumIEEE(b[:headerEnd-4]); got != wantCRC {
		return nil, corruptf("header CRC mismatch: stored %08x computed %08x", wantCRC, got)
	}
	r := &Reader{
		data:     b,
		epoch:    epoch,
		tag:      tag,
		spec:     string(b[fixedHeaderSize:specEnd]),
		entries:  make([]sectionEntry, nSections),
		verified: make([]atomic.Bool, nSections),
		accessed: make([]atomic.Bool, nSections),
	}
	for i := range r.entries {
		base := tableStart + uint64(i)*tableEntrySize
		e := sectionEntry{
			id:   binary.LittleEndian.Uint32(b[base:]),
			crc:  binary.LittleEndian.Uint32(b[base+4:]),
			off:  binary.LittleEndian.Uint64(b[base+8:]),
			size: binary.LittleEndian.Uint64(b[base+16:]),
		}
		if e.off < headerEnd || e.off > uint64(len(b)) || e.size > uint64(len(b))-e.off {
			return nil, corruptf("section %d [%d,+%d) overruns file of %d bytes", e.id, e.off, e.size, len(b))
		}
		r.entries[i] = e
	}
	return r, nil
}

// Epoch returns the dataset epoch stamped at write time.
func (r *Reader) Epoch() uint64 { return r.epoch }

// Tag returns the dataset structural fingerprint stamped at write time.
func (r *Reader) Tag() uint64 { return r.tag }

// Spec returns the canonical engine spec stamped at write time.
func (r *Reader) Spec() string { return r.spec }

// Mapped reports whether the reader is backed by a memory mapping.
func (r *Reader) Mapped() bool { return r.mapped }

// FileSize returns the container size in bytes.
func (r *Reader) FileSize() int64 { return int64(len(r.data)) }

// Has reports whether the container holds a section with the given id.
func (r *Reader) Has(id uint32) bool { return r.find(id) >= 0 }

// SectionLen returns the payload length of a section without touching its
// bytes, or -1 when absent.
func (r *Reader) SectionLen(id uint32) int64 {
	if i := r.find(id); i >= 0 {
		return int64(r.entries[i].size)
	}
	return -1
}

func (r *Reader) find(id uint32) int {
	for i := range r.entries {
		if r.entries[i].id == id {
			return i
		}
	}
	return -1
}

// Section returns a section's payload, verifying its CRC on first access.
// The slice aliases the mapping (or the in-memory buffer); callers must
// copy anything they retain past Close.
func (r *Reader) Section(id uint32) ([]byte, error) {
	i := r.find(id)
	if i < 0 {
		return nil, corruptf("section %d absent", id)
	}
	e := r.entries[i]
	r.accessed[i].Store(true)
	p := r.data[e.off : e.off+e.size : e.off+e.size]
	if !r.verified[i].Load() {
		if got := crc32.ChecksumIEEE(p); got != e.crc {
			return nil, corruptf("section %d CRC mismatch: stored %08x computed %08x", id, e.crc, got)
		}
		r.verified[i].Store(true)
	}
	return p, nil
}

// SectionLazy returns a section's payload without verifying its CRC —
// meant for bulk sections resolved incrementally under mmap, where a
// wholesale checksum at first touch would fault every page in and defeat
// the lazy open. The section's bounds were already validated at open;
// structural validation of the bytes is the decoder's responsibility.
// VerifySection checks the payload explicitly when a caller (a background
// warmer, an integrity scrub) wants the full guarantee.
func (r *Reader) SectionLazy(id uint32) ([]byte, error) {
	i := r.find(id)
	if i < 0 {
		return nil, corruptf("section %d absent", id)
	}
	e := r.entries[i]
	return r.data[e.off : e.off+e.size : e.off+e.size], nil
}

// VerifySection reads a section in full and checks its CRC.
func (r *Reader) VerifySection(id uint32) error {
	_, err := r.Section(id)
	return err
}

// VerifySections checks the CRC of every listed section. Heap-mode loaders
// read every payload anyway, so they verify up front: a bit-flipped file
// fails here and triggers a rebuild.
func (r *Reader) VerifySections(ids ...uint32) error {
	for _, id := range ids {
		if err := r.VerifySection(id); err != nil {
			return err
		}
	}
	return nil
}

// Accessed reports whether the section's payload has ever been read in
// full (Section or VerifySection) — cold-start tests use it to prove an
// mmap open left payload sections untouched. SectionLazy does not count:
// it only slices the mapping, which faults no pages in.
func (r *Reader) Accessed(id uint32) bool {
	if i := r.find(id); i >= 0 {
		return r.accessed[i].Load()
	}
	return false
}

// Close releases the mapping, if any. Section slices handed out earlier
// must not be used afterwards.
func (r *Reader) Close() error {
	r.data = nil
	r.entries = nil
	if r.closeFn != nil {
		fn := r.closeFn
		r.closeFn = nil
		return fn()
	}
	return nil
}
