package engine_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/diskfmt"
	"repro/internal/engine"
	_ "repro/internal/engine/std"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/testutil/plans"
	"repro/internal/workload"
)

func tinyDataset(t testing.TB) *graph.Dataset {
	t.Helper()
	return gen.Synthetic(gen.SynthConfig{
		NumGraphs: 25, MeanNodes: 14, MeanDensity: 0.2, NumLabels: 4, Seed: 41,
	})
}

func tinyQueries(t testing.TB, ds *graph.Dataset) []*graph.Graph {
	t.Helper()
	qs, err := workload.Generate(ds, workload.Config{NumQueries: 4, QueryEdges: 5, Seed: 42})
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	return qs
}

// allSpecs pairs every registered method with a spec that overrides at least
// one parameter (where the method has any), exercising the full grammar.
var allSpecs = []struct {
	def      string // default spec (name or alias)
	override string // spec with explicit params ("" = method has none)
}{
	{"grapes", "Grapes:maxPathLen=3,workers=2"},
	{"GGSX", "GraphGrepSX:maxPathLen=3"},
	{"CT-Index", "ctindex:fingerprintBits=512,maxTreeSize=3"},
	{"gIndex", "gindex:maxPatterns=20000,supportRatio=0.2"},
	{"tree+delta", "treedelta:maxPatterns=20000,querySupportToAdd=0.5"},
	{"gCode", "gcode:pathLen=1"},
	{"NoIndex", ""},
}

// compositeSpecs are registry entries that are not a single indexing
// method: they parse and validate like any spec but construct through
// OpenAny instead of New.
var compositeSpecs = []string{"router"}

func TestRegistryCoversAllMethods(t *testing.T) {
	if got, want := len(engine.Descriptors()), len(allSpecs)+len(compositeSpecs); got != want {
		t.Fatalf("registered methods = %d, want %d", got, want)
	}
	for _, d := range engine.Descriptors() {
		if _, ok := engine.Lookup(d.Name); !ok {
			t.Errorf("Lookup(%q) failed for registered method", d.Name)
		}
		if _, ok := engine.Lookup(d.Display); !ok {
			t.Errorf("Lookup(%q) (display) failed", d.Display)
		}
	}
}

// TestDescriptorsSortedByName: the registry lists methods by canonical
// name, not in the order their packages happened to initialize, so every
// listing built from it (docs/METHODS.md, -list, /methods) is stable.
func TestDescriptorsSortedByName(t *testing.T) {
	ds := engine.Descriptors()
	if !slices.IsSortedFunc(ds, func(a, b *engine.Descriptor) int { return strings.Compare(a.Name, b.Name) }) {
		names := make([]string, len(ds))
		for i, d := range ds {
			names[i] = d.Name
		}
		t.Fatalf("Descriptors() in order %v, want sorted by Name", names)
	}
	if names := engine.Names(); !slices.IsSorted(names) {
		t.Fatalf("Names() = %v, want sorted", names)
	}
}

func TestSpecRoundTripEveryMethod(t *testing.T) {
	for _, tc := range allSpecs {
		for _, spec := range []string{tc.def, tc.override} {
			if spec == "" {
				continue
			}
			m, err := engine.New(spec)
			if err != nil {
				t.Fatalf("New(%q): %v", spec, err)
			}
			if m == nil {
				t.Fatalf("New(%q) = nil", spec)
			}
			// The parsed params re-render to a canonical spec that parses
			// back to the same method.
			d, p, err := engine.ParseSpec(spec)
			if err != nil {
				t.Fatalf("ParseSpec(%q): %v", spec, err)
			}
			canon := p.Spec()
			d2, p2, err := engine.ParseSpec(canon)
			if err != nil {
				t.Fatalf("ParseSpec(canonical %q): %v", canon, err)
			}
			if d2 != d {
				t.Errorf("canonical spec %q resolved to %s, want %s", canon, d2.Name, d.Name)
			}
			if got := p2.Spec(); got != canon {
				t.Errorf("canonical spec not stable: %q then %q", canon, got)
			}
		}
	}
}

func TestSpecErrors(t *testing.T) {
	cases := []struct {
		spec    string
		wantSub string
	}{
		{"bogus", "unknown method"},
		{"grapes:nope=3", "no parameter"},
		{"grapes:maxPathLen=abc", "not an int"},
		{"gindex:supportRatio=x", "not a float"},
		{"grapes:", "empty parameter list"},
		{"grapes:maxPathLen", "not key=value"},
	}
	for _, tc := range cases {
		if _, err := engine.New(tc.spec); err == nil {
			t.Errorf("New(%q): want error containing %q, got nil", tc.spec, tc.wantSub)
		} else if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("New(%q): error %q does not mention %q", tc.spec, err, tc.wantSub)
		}
	}
}

func TestAliasNormalization(t *testing.T) {
	for _, alias := range []string{"Tree+Delta", "tree_delta", "TREEDELTA", " tree delta "} {
		d, ok := engine.Lookup(alias)
		if !ok || d.Name != "treedelta" {
			t.Errorf("Lookup(%q) = %v, %v; want treedelta", alias, d, ok)
		}
	}
}

// TestSaveLoadRoundTripEveryMethod is the registry round-trip: every
// persistable method builds on a fixed dataset, saves, reloads into a
// freshly constructed instance, and must produce identical candidate sets
// over a fixed workload.
func TestSaveLoadRoundTripEveryMethod(t *testing.T) {
	ds := tinyDataset(t)
	queries := tinyQueries(t, ds)
	dir := t.TempDir()
	ctx := context.Background()

	for _, tc := range allSpecs {
		spec := tc.override
		if spec == "" {
			spec = tc.def
		}
		t.Run(spec, func(t *testing.T) {
			built, err := engine.New(spec)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if err := built.Build(ctx, ds); err != nil {
				t.Fatalf("Build: %v", err)
			}
			path := filepath.Join(dir, strings.ReplaceAll(built.Name(), "+", "_")+".idx")
			if _, ok := built.(core.Persistable); !ok {
				if err := engine.SaveMethod(path, built); err == nil {
					t.Fatalf("SaveMethod on non-persistable %s: want error", built.Name())
				}
				return
			}
			if err := engine.SaveMethod(path, built); err != nil {
				t.Fatalf("SaveMethod: %v", err)
			}
			loaded, err := engine.New(spec)
			if err != nil {
				t.Fatalf("New (loaded): %v", err)
			}
			if err := engine.LoadMethod(path, loaded, ds); err != nil {
				t.Fatalf("LoadMethod: %v", err)
			}
			for i, q := range queries {
				want, err := plans.Candidates(built, ds, q)
				if err != nil {
					t.Fatalf("built: query %d: %v", i, err)
				}
				got, err := plans.Candidates(loaded, ds, q)
				if err != nil {
					t.Fatalf("loaded: query %d: %v", i, err)
				}
				if !got.Equal(want) {
					t.Errorf("query %d: candidates diverge after reload: built %v, loaded %v", i, want, got)
				}
			}
		})
	}
}

func TestOpenPersistenceLifecycle(t *testing.T) {
	ds := tinyDataset(t)
	queries := tinyQueries(t, ds)
	path := filepath.Join(t.TempDir(), "grapes.idx")
	ctx := context.Background()

	eng1, err := engine.Open(ctx, ds, engine.WithSpec("grapes:workers=2"), engine.WithIndexPath(path))
	if err != nil {
		t.Fatalf("first Open: %v", err)
	}
	if eng1.Restored() {
		t.Fatalf("first Open restored a nonexistent index")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("first Open did not persist the index: %v", err)
	}

	eng2, err := engine.Open(ctx, ds, engine.WithSpec("grapes:workers=2"), engine.WithIndexPath(path))
	if err != nil {
		t.Fatalf("second Open: %v", err)
	}
	if !eng2.Restored() {
		t.Fatalf("second Open rebuilt instead of restoring")
	}
	for i, q := range queries {
		r1, err := eng1.Query(ctx, q)
		if err != nil {
			t.Fatalf("eng1 query %d: %v", i, err)
		}
		r2, err := eng2.Query(ctx, q)
		if err != nil {
			t.Fatalf("eng2 query %d: %v", i, err)
		}
		if !r1.Answers.Equal(r2.Answers) {
			t.Errorf("query %d: restored engine answers diverge", i)
		}
	}

	// A corrupt index file is rebuilt and overwritten, not trusted.
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	eng3, err := engine.Open(ctx, ds, engine.WithSpec("grapes:workers=2"), engine.WithIndexPath(path))
	if err != nil {
		t.Fatalf("Open over corrupt index: %v", err)
	}
	if eng3.Restored() {
		t.Fatalf("Open trusted a corrupt index")
	}
	eng4, err := engine.Open(ctx, ds, engine.WithSpec("grapes:workers=2"), engine.WithIndexPath(path))
	if err != nil {
		t.Fatalf("Open after rebuild: %v", err)
	}
	if !eng4.Restored() {
		t.Fatalf("rebuild did not overwrite the corrupt index")
	}
}

func TestOpenBuildCancellation(t *testing.T) {
	ds := tinyDataset(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := engine.Open(ctx, ds, engine.WithSpec("grapes")); !errors.Is(err, context.Canceled) {
		t.Fatalf("Open with canceled ctx: err = %v, want context.Canceled", err)
	}
}

func TestQueryCancellation(t *testing.T) {
	ds := tinyDataset(t)
	queries := tinyQueries(t, ds)
	eng, err := engine.Open(context.Background(), ds, engine.WithSpec("noindex"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		eng.Processor().VerifyWorkers = workers
		if _, err := eng.Query(ctx, queries[0]); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestVerifyWorkersParity checks the concurrent verification pool returns
// exactly the serial pipeline's answers for every method.
func TestVerifyWorkersParity(t *testing.T) {
	ds := tinyDataset(t)
	queries := tinyQueries(t, ds)
	ctx := context.Background()
	for _, tc := range allSpecs {
		spec := tc.override
		if spec == "" {
			spec = tc.def
		}
		m, err := engine.New(spec)
		if err != nil {
			t.Fatalf("New(%q): %v", spec, err)
		}
		if err := m.Build(ctx, ds); err != nil {
			t.Fatalf("%s: Build: %v", spec, err)
		}
		serial := core.Processor{Method: m, DS: ds, VerifyWorkers: 1}
		pooled := core.Processor{Method: m, DS: ds, VerifyWorkers: 4}
		for i, q := range queries {
			want, err := serial.QueryCtx(ctx, q)
			if err != nil {
				t.Fatalf("%s query %d serial: %v", spec, i, err)
			}
			got, err := pooled.QueryCtx(ctx, q)
			if err != nil {
				t.Fatalf("%s query %d pooled: %v", spec, i, err)
			}
			if !got.Answers.Equal(want.Answers) {
				t.Errorf("%s query %d: pooled answers %v != serial %v", spec, i, got.Answers, want.Answers)
			}
		}
	}
}

func TestStreamMatchesQuery(t *testing.T) {
	ds := tinyDataset(t)
	queries := tinyQueries(t, ds)
	ctx := context.Background()
	eng, err := engine.Open(ctx, ds, engine.WithSpec("grapes"))
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		res, err := eng.Query(ctx, q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		var streamed graph.IDSet
		for id, err := range eng.Stream(ctx, q) {
			if err != nil {
				t.Fatalf("stream %d: %v", i, err)
			}
			streamed = append(streamed, id)
		}
		if !streamed.Equal(res.Answers) {
			t.Errorf("query %d: streamed %v != answers %v", i, streamed, res.Answers)
		}
	}
}

// failingSaver is a Persistable method whose SaveIndex fails after adding
// a section, to prove SaveMethod never leaves a partial index behind.
type failingSaver struct{ core.Method }

func (f *failingSaver) SaveIndex(w *diskfmt.Writer) error {
	w.AddSection(1, []byte("partial bytes"))
	return fmt.Errorf("disk on fire")
}

func (f *failingSaver) LoadIndex(r *diskfmt.Reader, ds *graph.Dataset) error {
	return fmt.Errorf("unreachable")
}

// dirEntries lists dir, so a failed save can be shown to have left nothing.
func dirEntries(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

func TestSaveMethodCleansUpOnFailure(t *testing.T) {
	ds := tinyDataset(t)
	m, err := engine.New("noindex")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Build(context.Background(), ds); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "broken.idx")

	// A failure inside SaveIndex, before any byte reaches the disk.
	err = engine.SaveMethod(path, &failingSaver{Method: m})
	if err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("SaveMethod: err = %v, want the save failure", err)
	}
	if names := dirEntries(t, dir); len(names) != 0 {
		t.Fatalf("failed save left files behind: %v", names)
	}

	// A failure of the writer inside AtomicWriteFile, after the temporary
	// file already holds bytes.
	err = engine.AtomicWriteFile(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("partial bytes")); err != nil {
			return err
		}
		return fmt.Errorf("disk full")
	})
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("AtomicWriteFile: err = %v, want the write failure", err)
	}
	if names := dirEntries(t, dir); len(names) != 0 {
		t.Fatalf("failed write left files behind: %v", names)
	}
}
