package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
)

func tinyScale() Scale {
	s := BenchScale()
	s.Graphs = 15
	s.Nodes = 15
	s.Density = 0.2
	s.Labels = 4
	s.NodeGrid = []int{10, 15}
	s.DensityGrid = []float64{0.15, 0.25}
	s.LabelGrid = []int{3, 6}
	s.GraphCountGrid = []int{10, 20}
	s.QuerySizes = []int{3, 5}
	s.QueriesPerSize = 2
	s.BuildTimeout = 20 * time.Second
	s.QueryTimeout = 20 * time.Second
	s.MaxPatterns = 5000
	return s
}

func TestNewMethodKnownIDs(t *testing.T) {
	for _, id := range AllMethods {
		m, err := engine.New(string(id))
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if m.Name() == "" {
			t.Errorf("%s: empty name", id)
		}
	}
	if _, err := engine.New("bogus"); err == nil {
		t.Errorf("unknown method accepted")
	}
}

func TestRunProducesAllCells(t *testing.T) {
	s := tinyScale()
	exp := Fig2(s)
	results, err := Run(context.Background(), exp, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(results) != len(s.NodeGrid) {
		t.Fatalf("points = %d, want %d", len(results), len(s.NodeGrid))
	}
	for _, pr := range results {
		if len(pr.Methods) != len(AllMethods) {
			t.Fatalf("point %s: %d method cells", pr.Spec.Label, len(pr.Methods))
		}
		for _, mr := range pr.Methods {
			if mr.DNF {
				continue // a DNF cell is a valid outcome
			}
			if mr.BuildTime <= 0 {
				t.Errorf("%s@%s: no build time", mr.Method, pr.Spec.Label)
			}
			if mr.IndexSize <= 0 {
				t.Errorf("%s@%s: no index size", mr.Method, pr.Spec.Label)
			}
			if mr.QueriesRun == 0 {
				t.Errorf("%s@%s: no queries ran", mr.Method, pr.Spec.Label)
			}
			if mr.FPRatio < 0 || mr.FPRatio > 1 {
				t.Errorf("%s@%s: FP ratio %v", mr.Method, pr.Spec.Label, mr.FPRatio)
			}
		}
	}
}

func TestRunHonorsMethodSubset(t *testing.T) {
	s := tinyScale()
	exp := Fig2(s)
	exp.Points = exp.Points[:1]
	exp.Methods = []MethodID{Grapes, GGSX}
	results, err := Run(context.Background(), exp, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(results[0].Methods) != 2 {
		t.Fatalf("method cells = %d, want 2", len(results[0].Methods))
	}
}

func TestRunTimeoutYieldsDNF(t *testing.T) {
	s := tinyScale()
	s.Graphs = 40
	s.Nodes = 60
	s.Density = 0.1
	exp := Fig2(s)
	exp.Points = exp.Points[len(exp.Points)-1:]
	exp.Methods = []MethodID{CTIndex}
	exp.BuildTimeout = 1 * time.Nanosecond
	results, err := Run(context.Background(), exp, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	mr := results[0].Methods[0]
	if !mr.DNF {
		t.Fatalf("nanosecond budget did not DNF")
	}
	if !strings.Contains(mr.Reason, "indexing") {
		t.Errorf("DNF reason %q should mention indexing", mr.Reason)
	}
}

func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Fig2(tinyScale()), nil)
	if err == nil {
		t.Fatalf("cancelled run should error")
	}
}

func TestWriteReportFormat(t *testing.T) {
	s := tinyScale()
	exp := Fig2(s)
	exp.Points = exp.Points[:1]
	exp.Methods = []MethodID{Grapes, CTIndex}
	results, err := Run(context.Background(), exp, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var buf bytes.Buffer
	WriteReport(&buf, exp, results)
	out := buf.String()
	for _, want := range []string{
		"(a) Indexing Time", "(b) Index Size", "(c) Query Processing Time",
		"(d) Avg False Positive Ratio", "Grapes", "CTindex",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	var perSize bytes.Buffer
	WritePerSizeReport(&perSize, exp, results)
	if !strings.Contains(perSize.String(), "Query Size: 3") {
		t.Errorf("per-size report missing size panel:\n%s", perSize.String())
	}
}

func TestTable1StatsAndReport(t *testing.T) {
	s := tinyScale()
	s.RealConfigs = []gen.RealConfig{func() gen.RealConfig {
		c := gen.AIDS.Scaled(1000, 2)
		c.Seed = 3
		return c
	}()}
	names, stats := Table1Stats(s)
	if len(names) != 1 || len(stats) != 1 {
		t.Fatalf("stats size mismatch")
	}
	if stats[0].NumGraphs != s.RealConfigs[0].NumGraphs {
		t.Errorf("graph count %d", stats[0].NumGraphs)
	}
	var buf bytes.Buffer
	WriteTable1(&buf, names, stats)
	if !strings.Contains(buf.String(), "AIDS") || !strings.Contains(buf.String(), "avg degree") {
		t.Errorf("table 1 output malformed:\n%s", buf.String())
	}
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"bench", "default", "paper"} {
		s, err := ScaleByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Graphs <= 0 || len(s.NodeGrid) == 0 {
			t.Errorf("%s: incomplete scale", name)
		}
	}
	if _, err := ScaleByName("huge"); err == nil {
		t.Errorf("unknown scale accepted")
	}
	if s, err := ScaleByName(""); err != nil || s.Name != "default" {
		t.Errorf("empty scale should default")
	}
}

func TestExperimentConstructors(t *testing.T) {
	s := tinyScale()
	for _, exp := range []Experiment{Fig1(s), Fig2(s), Fig3(s), Fig5(s), Fig6(s)} {
		if exp.Name == "" || exp.Title == "" || exp.XAxis == "" {
			t.Errorf("experiment %q incomplete", exp.Name)
		}
		if len(exp.Points) == 0 {
			t.Errorf("experiment %q has no points", exp.Name)
		}
		for _, p := range exp.Points {
			ds := p.Make()
			if ds.Len() == 0 {
				t.Errorf("%s point %s: empty dataset", exp.Name, p.Label)
			}
		}
	}
}

func TestPaperScaleGridsMatchPaper(t *testing.T) {
	s := PaperScale()
	if len(s.NodeGrid) != 19 {
		t.Errorf("node grid size %d, want 19 (§5.2.1)", len(s.NodeGrid))
	}
	if len(s.DensityGrid) != 21 {
		t.Errorf("density grid size %d, want 21 (§5.2.2)", len(s.DensityGrid))
	}
	if len(s.GraphCountGrid) != 9 {
		t.Errorf("graph count grid size %d, want 9 (§5.2.4)", len(s.GraphCountGrid))
	}
	if s.BuildTimeout != 8*time.Hour {
		t.Errorf("paper build timeout %v, want 8h", s.BuildTimeout)
	}
	if s.Graphs != 1000 || s.Nodes != 200 || s.Density != 0.025 || s.Labels != 20 {
		t.Errorf("paper sane defaults wrong: %+v", s)
	}
}

func TestWriteCSV(t *testing.T) {
	s := tinyScale()
	exp := Fig2(s)
	exp.Points = exp.Points[:1]
	exp.Methods = []MethodID{Grapes, GGSX}
	results, err := Run(context.Background(), exp, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, exp, results); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+2 { // header + 2 method rows
		t.Fatalf("csv rows = %d, want 3:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "experiment,nodes,method,dnf,") {
		t.Errorf("csv header = %q", lines[0])
	}
	for _, line := range lines[1:] {
		if !strings.HasPrefix(line, "fig2,") {
			t.Errorf("csv row missing experiment name: %q", line)
		}
	}
}

func TestRunAblationAndReport(t *testing.T) {
	s := tinyScale()
	ds := AblationDataset(s)
	ab := Ablations()[0] // path length
	results, err := RunAblation(context.Background(), ab, ds, s, nil)
	if err != nil {
		t.Fatalf("RunAblation: %v", err)
	}
	if len(results) != len(ab.Variants) {
		t.Fatalf("results = %d, want %d", len(results), len(ab.Variants))
	}
	// Longer path limits must index at least as much data.
	var prev int64 = -1
	for _, mr := range results {
		if mr.DNF {
			t.Fatalf("%s DNF at tiny scale", mr.Method)
		}
		if mr.IndexSize < prev {
			t.Errorf("index size not monotone over path length: %d then %d", prev, mr.IndexSize)
		}
		prev = mr.IndexSize
	}
	var buf bytes.Buffer
	WriteAblationReport(&buf, ab, results)
	if !strings.Contains(buf.String(), "Path feature length") {
		t.Errorf("ablation report malformed:\n%s", buf.String())
	}
}

func TestAblationsAreComplete(t *testing.T) {
	abs := Ablations()
	if len(abs) < 5 {
		t.Fatalf("ablations = %d, want >= 5", len(abs))
	}
	seen := map[string]bool{}
	for _, ab := range abs {
		if seen[ab.Name] {
			t.Errorf("duplicate ablation %q", ab.Name)
		}
		seen[ab.Name] = true
		if len(ab.Variants) < 2 {
			t.Errorf("ablation %q has %d variants", ab.Name, len(ab.Variants))
		}
		for _, v := range ab.Variants {
			if m, err := engine.New(v.Spec); err != nil || m == nil {
				t.Errorf("ablation %q variant %q spec %q: %v", ab.Name, v.Name, v.Spec, err)
			}
		}
	}
}

func TestNoIndexMethodAvailable(t *testing.T) {
	m, err := engine.New(string(NoIndex))
	if err != nil {
		t.Fatalf("NoIndex: %v", err)
	}
	if m.Name() != "NoIndex" {
		t.Errorf("name = %q", m.Name())
	}
	for _, id := range AllMethods {
		if id == NoIndex {
			t.Errorf("NoIndex must not be part of the paper's six-method set")
		}
	}
}

func TestFmtBytes(t *testing.T) {
	cases := map[int64]string{
		100:     "100B",
		2048:    "2.0KiB",
		3 << 20: "3.0MiB",
		5 << 30: "5.0GiB",
	}
	for in, want := range cases {
		if got := fmtBytes(in); got != want {
			t.Errorf("fmtBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestFindMethod(t *testing.T) {
	ms := []MethodResult{{Method: Grapes}, {Method: GCode}}
	if _, ok := findMethod(ms, GCode); !ok {
		t.Errorf("GCode not found")
	}
	if _, ok := findMethod(ms, GIndex); ok {
		t.Errorf("absent method found")
	}
}

var _ = graph.Stats{} // keep the import for table tests
