package engine

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"slices"

	"repro/internal/graph"
)

// A persisted index is a base file plus a journal. The base is the
// container writeIndexFile writes, stamped with the dataset state it
// indexes; the journal, at JournalPath(base), holds one fixed-size record
// per mutation applied since. A durable mutation appends its record — O(1)
// bytes — instead of rewriting the base, and an open restores the base and
// replays the records through the method's AddGraphToIndex and
// RemoveGraphFromIndex.
//
// Journal layout, little-endian:
//
//	magic   [4]byte  "RJL1"
//	epoch   uint64   \
//	tag     uint64    | the base file's stamp, which the journal continues
//	slots   uint64    | (and the dataset's slot count at that stamp)
//	specLen uint32    |
//	spec    [specLen]byte
//	crc     uint32   IEEE CRC-32 of the header bytes before it
//	records ...      recordLen bytes each:
//	  kind  byte     recAdd or recRemove
//	  id    uint32   the dataset-local id added or removed
//	  epoch uint64   the dataset's epoch and tag after the mutation
//	  tag   uint64
//	  crc   uint32   IEEE CRC-32 of the record bytes before it
//
// Records form a chain from the header: each moves the epoch by one, an add
// takes the next slot and a remove names an existing one. A scan stops at
// the first record that is torn, fails its CRC or breaks the chain, so a
// crash mid-append — or any damage — costs at most the tail, never an
// error.
const journalMagic = "RJL1"

const (
	recAdd    byte = 1
	recRemove byte = 2
	recordLen      = 1 + 4 + 8 + 8 + 4
)

// JournalPath returns the journal of the index file at path:
// "<path>.journal".
func JournalPath(path string) string { return path + ".journal" }

func journalHeader(base stamp, slots int) []byte {
	b := make([]byte, 0, len(journalMagic)+28+len(base.spec)+4)
	b = append(b, journalMagic...)
	b = binary.LittleEndian.AppendUint64(b, base.epoch)
	b = binary.LittleEndian.AppendUint64(b, base.tag)
	b = binary.LittleEndian.AppendUint64(b, uint64(slots))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(base.spec)))
	b = append(b, base.spec...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

func appendRecord(b []byte, kind byte, id graph.ID, epoch, tag uint64) []byte {
	start := len(b)
	b = append(b, kind)
	b = binary.LittleEndian.AppendUint32(b, uint32(id))
	b = binary.LittleEndian.AppendUint64(b, epoch)
	b = binary.LittleEndian.AppendUint64(b, tag)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
}

type journalRecord struct {
	kind       byte
	id         graph.ID
	epoch, tag uint64
}

// journalFile is a parsed journal: its header and the longest prefix of
// records that are whole, checksummed and chained.
type journalFile struct {
	base   stamp
	slots  int
	hdrLen int
	recs   []journalRecord
}

// size is the byte length of the header plus the records held.
func (jf *journalFile) size() int64 { return int64(jf.hdrLen + len(jf.recs)*recordLen) }

// readJournal parses the journal at path. A missing or unreadable journal,
// or one whose header is damaged, is nil: a journal never fails an open.
func readJournal(path string) *journalFile {
	b, err := os.ReadFile(path)
	if err != nil || len(b) < len(journalMagic)+28 || string(b[:len(journalMagic)]) != journalMagic {
		return nil
	}
	le := binary.LittleEndian
	p := b[len(journalMagic):]
	specLen := int(le.Uint32(p[24:]))
	hdrLen := len(journalMagic) + 28 + specLen + 4
	if hdrLen > len(b) || crc32.ChecksumIEEE(b[:hdrLen-4]) != le.Uint32(b[hdrLen-4:]) {
		return nil
	}
	jf := &journalFile{
		base:   stamp{epoch: le.Uint64(p), tag: le.Uint64(p[8:]), spec: string(p[28 : 28+specLen])},
		slots:  int(le.Uint64(p[16:])),
		hdrLen: hdrLen,
	}
	epoch, next := jf.base.epoch, jf.slots
	for off := hdrLen; off+recordLen <= len(b); off += recordLen {
		r := b[off : off+recordLen]
		if crc32.ChecksumIEEE(r[:recordLen-4]) != le.Uint32(r[recordLen-4:]) {
			break
		}
		rec := journalRecord{kind: r[0], id: graph.ID(le.Uint32(r[1:])), epoch: le.Uint64(r[5:]), tag: le.Uint64(r[13:])}
		chained := rec.epoch == epoch+1 && rec.id >= 0 &&
			(rec.kind == recAdd && int(rec.id) == next || rec.kind == recRemove && int(rec.id) < next)
		if !chained {
			break
		}
		if rec.kind == recAdd {
			next++
		}
		epoch = rec.epoch
		jf.recs = append(jf.recs, rec)
	}
	return jf
}

// journal is an engine's handle on the journal of its index file. Appends
// run under the Store's write lock; compaction (saveLocked) resets it
// under the Store's read lock plus the engine's jmu.
type journal struct {
	path  string
	base  stamp // the stamp of the base file the journal continues
	slots int   // the dataset's slot count at base
	// f is open for appending; nil until the first append after an open or
	// a compaction, which first cuts the file to keep bytes — the accepted
	// prefix of a replayed journal — or, with keep 0, starts it afresh.
	f       *os.File
	keep    int64
	records int // records since base
	// due makes the mutation under way, or else the next one, end in a
	// compaction, and stops appends until then: the journal outgrew its
	// bound, an append failed, the dataset moved without a record, or no
	// base file holds the index yet. A compaction that fails leaves it set.
	due bool
	buf [recordLen]byte
}

// append writes one record, opening the journal first if needed. After a
// failed write the tail may hold a torn record, so the caller marks the
// journal due and appends nothing more until a compaction resets it.
func (j *journal) append(kind byte, id graph.ID, epoch, tag uint64) error {
	if j.f == nil {
		f, err := j.open()
		if err != nil {
			return err
		}
		j.f = f
	}
	if _, err := j.f.Write(appendRecord(j.buf[:0], kind, id, epoch, tag)); err != nil {
		j.close()
		return err
	}
	return nil
}

func (j *journal) open() (*os.File, error) {
	if j.keep > 0 {
		f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			return nil, err
		}
		if err := f.Truncate(j.keep); err != nil {
			f.Close()
			return nil, err
		}
		return f, nil
	}
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(journalHeader(j.base, j.slots)); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func (j *journal) close() {
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
}

// reset starts the journal afresh after its base was rewritten at base. The
// old journal is removed — a crash before that leaves a journal bound to
// the previous base, which the next open ignores — and the next append
// writes a new header.
func (j *journal) reset(base stamp, slots int) {
	j.close()
	os.Remove(j.path)
	*j = journal{path: j.path, base: base, slots: slots}
}

// accept decides what an index file stamped got restores as, and returns
// the dataset to load it against plus the journal it continues:
//
//   - got is the dataset's own stamp: the file is the index, replay
//     nothing, and the journal on disk — whatever it holds — is started
//     afresh at the first append;
//   - the journal binds to this very file, and one of its records carries
//     the dataset's stamp:
//     load against the dataset as it stood at the file (Dataset.Prefix)
//     and replay the records up to that one, which the journal keeps;
//   - otherwise the file is stale.
func (e *Engine) accept(got stamp) (*graph.Dataset, *journalFile, error) {
	want := stampOf(e.ds, e.stampSpec)
	if got == want {
		return e.ds, &journalFile{base: got, slots: e.ds.Len()}, nil
	}
	if got.spec != want.spec {
		return nil, nil, errStaleIndex
	}
	jf := readJournal(JournalPath(e.indexPath))
	if jf == nil || jf.base != got {
		return nil, nil, errStaleIndex
	}
	k := slices.IndexFunc(jf.recs, func(r journalRecord) bool { return r.epoch == want.epoch && r.tag == want.tag })
	if k < 0 {
		return nil, nil, errStaleIndex
	}
	jf.recs = jf.recs[:k+1]
	var revive []graph.ID
	slots := jf.slots
	for _, r := range jf.recs {
		switch {
		case r.kind == recAdd:
			slots++
		case int(r.id) < jf.slots:
			revive = append(revive, r.id)
		}
	}
	if slots != e.ds.Len() {
		return nil, nil, errStaleIndex
	}
	return e.ds.Prefix(jf.slots, revive), jf, nil
}

// replay folds the accepted records into the index just loaded against the
// dataset as it stood at the base: every add of a graph still live, every
// remove of a graph the base held. An add whose graph a later record
// removed again is skipped together with that remove — except in the
// dataset's last slot, whose add and remove replay as recorded: an index
// covers the slots up to its highest add, and the next open's load demands
// every slot covered.
func (e *Engine) replay(jf *journalFile) error {
	if len(jf.recs) == 0 {
		return nil
	}
	last := graph.ID(e.ds.Len() - 1)
	for _, r := range jf.recs {
		var err error
		switch {
		case r.kind == recAdd && (e.ds.Alive(r.id) || r.id == last):
			err = e.method.AddGraphToIndex(e.ds.Graphs[r.id])
		case r.kind == recRemove && (int(r.id) < jf.slots || r.id == last):
			err = e.method.RemoveGraphFromIndex(r.id)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// journalLocked makes the mutation just applied durable by appending its
// record, under the Store's write lock, so records land in apply order.
// When the journal is already behind the dataset (due), it appends
// nothing, and the compaction after the apply captures the index whole. A
// failed append leaves the journal due and is returned, for the caller to
// undo the apply.
func (e *Engine) journalLocked(kind byte, id graph.ID) error {
	if e.indexPath == "" || e.jr.due {
		return nil
	}
	if err := e.jr.append(kind, id, e.ds.Epoch(), e.ds.VersionTag()); err != nil {
		e.jr.due = true
		return err
	}
	e.jr.records++
	e.jr.due = e.jr.records > e.ds.Len()/4
	return nil
}

// compact rewrites the index file and starts its journal afresh when the
// last mutation left the journal due (see journal.due). It holds only the
// Store's read lock, so queries proceed during the O(index) write while
// the Store's writers wait; the Store calls it after every mutation with
// its write lock released. A failed compaction fails no mutation: an acked
// mutation is journaled or held by the dataset, and an open over a file
// the dataset has moved past rebuilds. The journal stays due, so the next
// mutation or Save tries again.
func (e *Engine) compact() {
	if e.indexPath == "" {
		return
	}
	st := e.root()
	st.mu.RLock()
	defer st.mu.RUnlock()
	e.jmu.Lock()
	defer e.jmu.Unlock()
	if e.jr.due {
		_ = e.saveLocked(e.indexPath)
	}
}
