package engine_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/workload"
)

// journalRecordLen is the fixed size of one journal record: kind, id,
// epoch, tag, CRC (see journal.go).
const journalRecordLen = 25

// journalOp is one mutation of a history: an add of pool graph add, or
// (add < 0) the removal of graph remove.
type journalOp struct {
	add    int
	remove graph.ID
}

// journalHistory is a base dataset plus a mutation history over it, and
// the brute-force answers of a few queries at every prefix of the history.
type journalHistory struct {
	cfg     gen.SynthConfig
	pool    []*graph.Graph
	ops     []journalOp
	queries []*graph.Graph
	states  []*graph.Dataset // states[j]: at(j), for opens that only read it
	want    [][]graph.IDSet  // want[j][i]: query i over states[j]
}

// newJournalHistory builds a history over a base of n graphs: three adds and
// three removes, one of them of a graph the history added.
func newJournalHistory(t testing.TB, n int) *journalHistory {
	t.Helper()
	return newJournalHistoryOps(t, &journalHistory{
		cfg: gen.SynthConfig{NumGraphs: n, MeanNodes: 8, MeanDensity: 0.3, NumLabels: 3, Seed: 91},
		pool: gen.Synthetic(gen.SynthConfig{
			NumGraphs: 3, MeanNodes: 8, MeanDensity: 0.3, NumLabels: 3, Seed: 92,
		}).Graphs,
		ops: []journalOp{
			{add: 0}, {add: -1, remove: 2}, {add: 1}, {add: -1, remove: graph.ID(n)}, {add: 2}, {add: -1, remove: 5},
		},
	})
}

// newJournalHistoryOps completes h, whose base, pool and ops are set, with
// its queries and their answers at every prefix.
func newJournalHistoryOps(t testing.TB, h *journalHistory) *journalHistory {
	t.Helper()
	h.queries, h.states, h.want = nil, nil, nil
	var err error
	if h.queries, err = workload.Generate(h.at(0), workload.Config{NumQueries: 3, QueryEdges: 3, Seed: 93}); err != nil {
		t.Fatal(err)
	}
	for j := range len(h.ops) + 1 {
		ds := h.at(j)
		h.states = append(h.states, ds)
		answers := make([]graph.IDSet, len(h.queries))
		for i, q := range h.queries {
			if answers[i], err = core.BruteForceAnswers(context.Background(), ds, q); err != nil {
				t.Fatal(err)
			}
		}
		h.want = append(h.want, answers)
	}
	return h
}

// at returns a fresh dataset in the state after the first j mutations.
func (h *journalHistory) at(j int) *graph.Dataset {
	ds := gen.Synthetic(h.cfg)
	for _, op := range h.ops[:j] {
		if op.add >= 0 {
			ds.Add(h.pool[op.add].ShallowWithID(0))
		} else {
			ds.Remove(op.remove)
		}
	}
	return ds
}

// id is the graph op i adds or removes.
func (h *journalHistory) id(i int) graph.ID {
	if h.ops[i].add < 0 {
		return h.ops[i].remove
	}
	adds := 0
	for _, op := range h.ops[:i] {
		if op.add >= 0 {
			adds++
		}
	}
	return graph.ID(h.cfg.NumGraphs + adds)
}

// apply runs the history's mutations j0..j1-1 on eng.
func (h *journalHistory) apply(t testing.TB, eng engine.Mutable, j0, j1 int) {
	t.Helper()
	ctx := context.Background()
	for i, op := range h.ops[j0:j1] {
		if op.add >= 0 {
			id, err := eng.AddGraph(ctx, h.pool[op.add].ShallowWithID(0))
			if err != nil {
				t.Fatal(err)
			}
			if id != h.id(j0+i) {
				t.Fatalf("add %d took id %d, want %d", j0+i, id, h.id(j0+i))
			}
		} else if err := eng.RemoveGraph(ctx, op.remove); err != nil {
			t.Fatal(err)
		}
	}
}

// journaled is what the journal tests need of an engine, flat or sharded.
type journaled interface {
	opened
	engine.Mutable
}

// openJournaled opens spec over ds persisted at path: flat with shards 0.
func openJournaled(t testing.TB, spec string, shards int, ds *graph.Dataset, path string) journaled {
	t.Helper()
	opts := []engine.Option{engine.WithSpec(spec), engine.WithIndexPath(path)}
	var (
		e   journaled
		err error
	)
	if shards == 0 {
		e, err = engine.Open(context.Background(), ds, opts...)
	} else {
		e, err = engine.OpenSharded(context.Background(), ds, shards, opts...)
	}
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// checkAnswers compares every query's answers with the history's at j.
func (h *journalHistory) checkAnswers(t testing.TB, stage string, e opened, j int) {
	t.Helper()
	for i, q := range h.queries {
		got, err := e.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: query %d: %v", stage, i, err)
		}
		if !got.Answers.Equal(h.want[j][i]) {
			t.Fatalf("%s: query %d answers %v, want %v", stage, i, got.Answers, h.want[j][i])
		}
	}
}

// readFiles snapshots every file in dir.
func readFiles(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// writeFiles writes files into dir, each by rename: an engine opened over
// an earlier copy may still have its file mapped.
func writeFiles(t testing.TB, dir string, files map[string][]byte) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, b := range files {
		if err := engine.AtomicWriteFile(filepath.Join(dir, name), func(w io.Writer) error {
			_, err := w.Write(b)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalCrashConsistency is the crash slice of the persistence
// contract. For every indexed method — GGSX, Grapes and gCode heap and
// mmap, CT-Index, gIndex and Tree+Δ heap — flat and 4-shard, a mutation
// history is journaled; then one journal is cut at every byte
// offset — the states a crash mid-append can leave — and, separately, each
// byte of its last record is flipped. Every damaged copy is reopened over
// the dataset at the longest prefix of the history its surviving records
// reach, and at the next one; a journal cut at a record boundary is
// reopened at every prefix. Each open must answer exactly as brute force
// does, and it must restore precisely when the surviving records reach the
// dataset's state (or the dataset is at the base state), rebuilding
// otherwise; a damaged journal is never an error.
func TestJournalCrashConsistency(t *testing.T) {
	var specs []string
	for _, method := range []string{"ggsx", "grapes", "gcode"} {
		for _, storage := range []string{"heap", "mmap"} {
			specs = append(specs, fmt.Sprintf("%s:storage=%s", method, storage))
		}
	}
	specs = append(specs, "ctindex", gindexSpec, treedeltaSpec)
	for _, spec := range specs {
		for _, shards := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", spec, shards), func(t *testing.T) {
				t.Parallel()
				testJournalCrash(t, spec, shards)
			})
		}
	}
}

func testJournalCrash(t *testing.T, spec string, shards int) {
	// Slots enough per shard that six records stay under the compaction
	// bound of a quarter of the slots.
	h := newJournalHistory(t, 30+30*shards)
	root := t.TempDir()
	liveDir := filepath.Join(root, "live")
	if err := os.MkdirAll(liveDir, 0o755); err != nil {
		t.Fatal(err)
	}
	live := openJournaled(t, spec, shards, h.at(0), filepath.Join(liveDir, "idx"))
	h.apply(t, live, 0, len(h.ops))
	h.checkAnswers(t, "live", live, len(h.ops))

	// The damaged journal is the flat one, or the shard journal with the
	// most records; routed(j) counts the records it holds of the first j.
	shard := -1
	routed := func(j int) int { return j }
	name := "idx.journal"
	if shards > 0 {
		counts := make([]int, shards)
		for i := range h.ops {
			counts[engine.ShardOf(h.id(i), shards)]++
		}
		shard = 0
		for k, c := range counts {
			if c > counts[shard] {
				shard = k
			}
		}
		routed = func(j int) int {
			c := 0
			for i := range j {
				if engine.ShardOf(h.id(i), shards) == shard {
					c++
				}
			}
			return c
		}
		name = filepath.Base(engine.JournalPath(engine.ShardIndexPath(filepath.Join(liveDir, "idx"), shard)))
	}
	files := readFiles(t, liveDir)
	journal := files[name]
	records := routed(len(h.ops))
	hdr := len(journal) - records*journalRecordLen
	if records == 0 || hdr <= 0 || hdr > 200 {
		t.Fatalf("journal %s: %d bytes for %d records", name, len(journal), records)
	}

	// A restoring open writes nothing, so only the damaged journal changes
	// between opens — until an open rebuilds, rewriting its files.
	dir := filepath.Join(root, "open")
	writeFiles(t, dir, files)
	reopen := func(stage string, damaged []byte, kept int, prefixes []int) {
		t.Helper()
		for _, j := range prefixes {
			if err := os.WriteFile(filepath.Join(dir, name), damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			e := openJournaled(t, spec, shards, h.states[j], filepath.Join(dir, "idx"))
			at := fmt.Sprintf("%s, dataset after %d mutations", stage, j)
			if want := routed(j) <= kept; e.Restored() != want {
				t.Fatalf("%s: restored %v, want %v", at, e.Restored(), want)
			}
			h.checkAnswers(t, at, e, j)
			waitReady(t, e.Ready)
			if !e.Restored() {
				writeFiles(t, dir, files)
			}
		}
	}
	every := make([]int, len(h.ops)+1)
	for j := range every {
		every[j] = j
	}
	// boundary is the last prefix kept records reach and the first they do
	// not: where restore turns into rebuild.
	boundary := func(kept int) []int {
		last := 0
		for last < len(h.ops) && routed(last+1) <= kept {
			last++
		}
		return every[last:min(last+2, len(every))]
	}
	for off := 0; off <= len(journal); off++ {
		atRecord := off >= hdr && (off-hdr)%journalRecordLen == 0
		if testing.Short() && !atRecord && off%7 != 0 {
			continue // every seventh byte, which lands at every offset within a record
		}
		kept, prefixes := 0, boundary(0)
		if off >= hdr {
			kept = (off - hdr) / journalRecordLen
			prefixes = boundary(kept)
		}
		if atRecord {
			prefixes = every
		}
		reopen(fmt.Sprintf("journal cut at byte %d", off), journal[:off], kept, prefixes)
	}
	for off := len(journal) - journalRecordLen; off < len(journal); off++ {
		flipped := bytes.Clone(journal)
		flipped[off] ^= 0xff
		reopen(fmt.Sprintf("journal byte %d flipped", off), flipped, records-1, boundary(records-1))
	}
}

// TestStaleJournalAfterPassReset is the benchmark's pass reset: fresh base
// files are copied over a persisted sharded index, the previous pass's
// journals stay beside them, and the next pass opens over the base-state
// dataset. It must restore with no record replayed, truncate each journal
// before its first append, and — after a different mutation history — a
// reopen must restore that history exactly, with no record of the previous
// pass leaking into it.
func TestStaleJournalAfterPassReset(t *testing.T) {
	const spec, shards = "ggsx:storage=heap", 4
	h := newJournalHistory(t, 120)
	root := t.TempDir()
	saved := filepath.Join(root, "saved")
	setup, err := engine.OpenSharded(context.Background(), h.at(0), shards, engine.WithSpec(spec))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(saved, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := setup.Save(filepath.Join(saved, "ix")); err != nil {
		t.Fatal(err)
	}
	baseFiles := readFiles(t, saved)
	pass := filepath.Join(root, "pass")
	base := filepath.Join(pass, "ix")

	// Pass 1 journals the first half of the history.
	writeFiles(t, pass, baseFiles)
	p1 := openJournaled(t, spec, shards, h.at(0), base)
	if !p1.Restored() {
		t.Fatal("pass 1 did not restore the copied base files")
	}
	h.apply(t, p1, 0, 3)

	// Pass 2 starts from the copied base again and replays a different
	// history: the second half, over the base state.
	writeFiles(t, pass, baseFiles)
	ds := h.at(0)
	p2 := openJournaled(t, spec, shards, ds, base)
	if !p2.Restored() {
		t.Fatal("pass 2 did not restore the copied base files beside the old journals")
	}
	h.checkAnswers(t, "pass 2 open", p2, 0)
	other := &journalHistory{cfg: h.cfg, pool: h.pool, ops: []journalOp{{add: -1, remove: 7}, {add: 2}, {add: -1, remove: 11}}, queries: h.queries}
	other.apply(t, p2, 0, len(other.ops))
	hdr := 4 + 28 + len(p2.(*engine.Sharded).Spec()) + 4
	counts := make([]int, shards)
	for i := range other.ops {
		counts[engine.ShardOf(other.id(i), shards)]++
	}
	for k, c := range counts {
		if c == 0 {
			continue
		}
		fi, err := os.Stat(engine.JournalPath(engine.ShardIndexPath(base, k)))
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(hdr + c*journalRecordLen); fi.Size() != want {
			t.Fatalf("shard %d journal holds %d bytes after %d appends, want %d: the old pass was not truncated", k, fi.Size(), c, want)
		}
	}

	reopened := openJournaled(t, spec, shards, other.at(len(other.ops)), base)
	if !reopened.Restored() {
		t.Fatal("reopen after pass 2 rebuilt instead of replaying its journals")
	}
	for i, q := range h.queries {
		want, err := core.BruteForceAnswers(context.Background(), ds, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := reopened.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Answers.Equal(want) {
			t.Fatalf("query %d after pass 2 and a reopen: answers %v, want %v", i, got.Answers, want)
		}
	}
}

// TestStaleJournalAfterCompactionCrash: a crash after a compaction renamed
// the new base into place but before it removed the journal leaves the old
// journal beside the new base. The journal binds to the old base, so it is
// ignored: the new base restores at its own state and anything else
// rebuilds, always with exact answers.
func TestStaleJournalAfterCompactionCrash(t *testing.T) {
	const spec = "ggsx:storage=heap"
	h := newJournalHistory(t, 40)
	root := t.TempDir()
	liveDir := filepath.Join(root, "live")
	if err := os.MkdirAll(liveDir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(liveDir, "idx")
	live := openJournaled(t, spec, 0, h.at(0), path).(*engine.Engine)
	h.apply(t, live, 0, len(h.ops))
	old := readFiles(t, liveDir)["idx.journal"]
	if len(old) == 0 {
		t.Fatal("the history left no journal")
	}
	if err := live.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(engine.JournalPath(path)); !os.IsNotExist(err) {
		t.Fatalf("compaction left its journal behind: %v", err)
	}
	files := readFiles(t, liveDir)
	files["idx.journal"] = old
	for j := range len(h.ops) + 1 {
		dir := filepath.Join(root, strconv.Itoa(j))
		writeFiles(t, dir, files)
		e := openJournaled(t, spec, 0, h.at(j), filepath.Join(dir, "idx"))
		if want := j == len(h.ops); e.Restored() != want {
			t.Fatalf("dataset after %d mutations: restored %v, want %v", j, e.Restored(), want)
		}
		h.checkAnswers(t, fmt.Sprintf("dataset after %d mutations", j), e, j)
	}
}

// BenchmarkOpenWithJournal times restoring a mutate_mix-shaped shard — 200
// graphs of 40 vertices, GGSX on the heap — from its base file alone and
// from the base plus a journal just under the compaction bound: 25 adds
// that stay live and 25 removals of base graphs, all replayed.
func BenchmarkOpenWithJournal(b *testing.B) {
	ctx := context.Background()
	const spec = "ggsx:storage=heap"
	pool := gen.Synthetic(gen.SynthConfig{NumGraphs: 25, MeanNodes: 40, MeanDensity: 0.06, NumLabels: 4, Seed: 2})
	for _, records := range []int{0, 50} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			ds := gen.Synthetic(gen.SynthConfig{NumGraphs: 200, MeanNodes: 40, MeanDensity: 0.06, NumLabels: 4, Seed: 1})
			path := filepath.Join(b.TempDir(), "ix")
			e, err := engine.Open(ctx, ds, engine.WithSpec(spec), engine.WithIndexPath(path))
			if err != nil {
				b.Fatal(err)
			}
			for i := range records / 2 {
				if _, err := e.AddGraph(ctx, pool.Graphs[i].ShallowWithID(0)); err != nil {
					b.Fatal(err)
				}
				if err := e.RemoveGraph(ctx, graph.ID(8*i)); err != nil {
					b.Fatal(err)
				}
			}
			if fi, err := os.Stat(engine.JournalPath(path)); records > 0 && (err != nil || fi.Size() < int64(records*journalRecordLen)) {
				b.Fatalf("journal holds fewer than %d records: %v", records, err)
			}
			b.ResetTimer()
			for range b.N {
				r, err := engine.Open(ctx, ds, engine.WithSpec(spec), engine.WithIndexPath(path))
				if err != nil {
					b.Fatal(err)
				}
				if !r.Restored() {
					b.Fatal("open rebuilt instead of restoring")
				}
			}
		})
	}
}

// TestJournalReplayCoversEverySlot: a replay skips an add that a later
// record removed again, yet the replayed index must still cover every slot
// of the dataset — the file its compaction writes must restore on the next
// open rather than fail its load and rebuild. The history ends with an add
// removed again, so the dataset's last slot is dead.
func TestJournalReplayCoversEverySlot(t *testing.T) {
	for _, spec := range []string{"ggsx:storage=heap", "grapes:storage=heap", "gcode:storage=mmap", "ctindex", gindexSpec, treedeltaSpec} {
		t.Run(spec, func(t *testing.T) {
			h := newJournalHistory(t, 30)
			h.ops = []journalOp{{add: 0}, {add: 1}, {add: -1, remove: 31}, {add: -1, remove: 4}}
			newJournalHistoryOps(t, h)
			path := filepath.Join(t.TempDir(), "idx")
			live := openJournaled(t, spec, 0, h.at(0), path)
			h.apply(t, live, 0, len(h.ops))

			n := len(h.ops)
			replayed := openJournaled(t, spec, 0, h.at(n), path).(*engine.Engine)
			if !replayed.Restored() {
				t.Fatal("open over the journaled state rebuilt instead of replaying")
			}
			h.checkAnswers(t, "replayed", replayed, n)
			if err := replayed.Save(path); err != nil {
				t.Fatal(err)
			}
			compacted := openJournaled(t, spec, 0, h.at(n), path)
			if !compacted.Restored() {
				t.Fatal("the compacted replay did not restore: its index misses a slot")
			}
			h.checkAnswers(t, "compacted", compacted, n)
		})
	}
}

// TestJournalReplayRemovesByGraph: Grapes removes a graph by re-walking
// the paths of the graph it holds, so a removal replayed at open must find
// the graph in the dataset view the base file loads against, where graphs
// removed since the base are live again. A journaled history of adds and
// removes, one of them of a graph the history added, is reopened from base
// plus journal on storage=heap and mmap, flat and 4-shard; the reopened
// index must save the files a fresh build over the same dataset saves.
func TestJournalReplayRemovesByGraph(t *testing.T) {
	for _, storage := range []string{"heap", "mmap"} {
		for _, shards := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", storage, shards), func(t *testing.T) {
				t.Parallel()
				spec := "grapes:workers=2,storage=" + storage
				// Slots enough per shard that the history stays under the
				// compaction bound of a quarter of the slots.
				h := newJournalHistory(t, 30+30*shards)
				h.ops = append(h.ops, journalOp{add: -1, remove: 0}, journalOp{add: -1, remove: graph.ID(h.cfg.NumGraphs + 1)})
				newJournalHistoryOps(t, h)
				n := len(h.ops)
				root := t.TempDir()
				for _, dir := range []string{"live", "fresh", "replayed"} {
					if err := os.MkdirAll(filepath.Join(root, dir), 0o755); err != nil {
						t.Fatal(err)
					}
				}
				live := openJournaled(t, spec, shards, h.at(0), filepath.Join(root, "live", "idx"))
				h.apply(t, live, 0, n)

				reopened := openJournaled(t, spec, shards, h.at(n), filepath.Join(root, "live", "idx"))
				if !reopened.Restored() {
					t.Fatal("open over the journaled state rebuilt instead of replaying")
				}
				h.checkAnswers(t, "replayed", reopened, n)
				waitReady(t, reopened.Ready)
				fresh := openJournaled(t, spec, shards, h.at(n), filepath.Join(root, "fresh", "idx"))
				if fresh.Restored() {
					t.Fatal("the fresh open restored")
				}
				for name, e := range map[string]journaled{"replayed": reopened, "fresh": fresh} {
					if err := e.(interface{ Save(string) error }).Save(filepath.Join(root, name, "idx")); err != nil {
						t.Fatal(err)
					}
				}
				replayed, built := readFiles(t, filepath.Join(root, "replayed")), readFiles(t, filepath.Join(root, "fresh"))
				if len(replayed) != len(built) {
					t.Fatalf("the replayed index saves %d files, a fresh build %d", len(replayed), len(built))
				}
				for name, b := range built {
					if !bytes.Equal(replayed[name], b) {
						t.Errorf("%s: the replayed index saves other bytes than a fresh build", name)
					}
				}
			})
		}
	}
}

// TestJournalReplayFeedsDeltaAdmission: Tree+Δ computes an admitted Δ
// feature's posting over the graphs it indexes. An open that replays a
// journal loads the base against the dataset as it stood at the base;
// the graphs the journal then adds must still reach Δ admission, as must
// those added after the open. Triangle queries, admitted on first sight,
// must answer as brute force does, flat and 4-shard.
func TestJournalReplayFeedsDeltaAdmission(t *testing.T) {
	ctx := context.Background()
	cfg := gen.SynthConfig{NumGraphs: 40, MeanNodes: 10, MeanDensity: 0.3, NumLabels: 3, Seed: 61}
	pool := gen.Synthetic(gen.SynthConfig{NumGraphs: 9, MeanNodes: 10, MeanDensity: 0.4, NumLabels: 3, Seed: 65}).Graphs
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "idx")
			live := openJournaled(t, treedeltaSpec, shards, gen.Synthetic(cfg), path)
			ds := gen.Synthetic(cfg)
			for _, g := range pool[:8] {
				if _, err := live.AddGraph(ctx, g.ShallowWithID(0)); err != nil {
					t.Fatal(err)
				}
				ds.Add(g.ShallowWithID(0))
			}
			e := openJournaled(t, treedeltaSpec, shards, ds, path)
			if !e.Restored() {
				t.Fatal("the open rebuilt instead of replaying the journal")
			}
			check := func(stage string) {
				t.Helper()
				for i, q := range triangles(3) {
					want, err := core.BruteForceAnswers(ctx, ds, q)
					if err != nil {
						t.Fatal(err)
					}
					got, err := e.Query(ctx, q)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Answers.Equal(want) {
						t.Fatalf("%s: triangle %d answers %v, want %v", stage, i, got.Answers, want)
					}
				}
			}
			check("replayed")
			if _, err := e.AddGraph(ctx, pool[8].ShallowWithID(0)); err != nil {
				t.Fatal(err)
			}
			check("added after the open")
		})
	}
}

// TestJournalRejectsRecordsOffTheChain: records count only as a chain from
// the base, each moving the epoch by one. A journal whose second record
// comes from another history — checksummed, and carrying the reopened
// dataset's very stamp — must not splice that history's removal after the
// first record's: the open rebuilds instead of restoring an index that
// lacks a live graph.
func TestJournalRejectsRecordsOffTheChain(t *testing.T) {
	const spec = "ggsx:storage=heap"
	ctx := context.Background()
	h := newJournalHistory(t, 30)
	dirA, dirB := t.TempDir(), t.TempDir()
	journal := func(dir string, remove graph.ID) []byte {
		e := openJournaled(t, spec, 0, h.at(0), filepath.Join(dir, "idx"))
		if err := e.RemoveGraph(ctx, remove); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, "idx.journal"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := journal(dirA, 5), journal(dirB, 3)
	spliced := append(bytes.Clone(a), b[len(b)-journalRecordLen:]...)
	if err := os.WriteFile(filepath.Join(dirA, "idx.journal"), spliced, 0o644); err != nil {
		t.Fatal(err)
	}
	ds := h.at(0)
	ds.Remove(3)
	e := openJournaled(t, spec, 0, ds, filepath.Join(dirA, "idx"))
	if e.Restored() {
		t.Fatal("the open replayed a record off the chain")
	}
	for i, q := range h.queries {
		want, err := core.BruteForceAnswers(ctx, ds, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Answers.Equal(want) {
			t.Fatalf("query %d: answers %v, want %v", i, got.Answers, want)
		}
	}
}
