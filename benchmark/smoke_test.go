package main

import (
	"context"
	"fmt"
	"math"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

func loadContract(t *testing.T) contract {
	t.Helper()
	c, err := readContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestContractMatchesProgram: BENCHMARK.json names exactly the workloads and
// metrics the program reports, with the same units.
func TestContractMatchesProgram(t *testing.T) {
	c := loadContract(t)
	if len(c.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(c.Workloads), len(specs))
	}
	for i, w := range c.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, specs[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(c.EndToEnd) != len(endToEnd) || len(c.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d", len(c.EndToEnd), len(c.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	hasSetup := false
	for i, m := range c.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		seen[m.Name] = true
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	for i, m := range c.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if seen[m.Name] {
			t.Errorf("metric name %s used twice", m.Name)
		}
		seen[m.Name] = true
	}
	for name := range seen {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", name)
		}
	}
}

// smokeRun runs one workload at smoke scale in this process and returns its
// result and log.
func smokeRun(t *testing.T, name string, seed int64, trace bool) (*result, []string) {
	t.Helper()
	sp, err := specByName(name)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var lines []string
	res, err := runWorkload(context.Background(), sp, options{
		seed: seed, seconds: 1, trace: trace, smoke: true, workDir: t.TempDir(),
		log: func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) },
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res, lines
}

// TestSmoke runs all four workloads end to end and traced, and checks the
// shape of what they report.
func TestSmoke(t *testing.T) {
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", sp.name, trace), func(t *testing.T) {
				res, lines := smokeRun(t, sp.name, 1, trace)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%t attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, strings.Join(lines, "\n"))
				}
				if res.oracleRan < oracleSample {
					t.Errorf("%d oracle checks ran, want >= %d", res.oracleRan, oracleSample)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics on the result line, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.name]
					if !ok {
						t.Errorf("%s missing from the result line", d.name)
						continue
					}
					if v.Unit != d.unit {
						t.Errorf("%s: unit %q, want %q", d.name, v.Unit, d.unit)
					}
					if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 {
						t.Errorf("%s = %v, want finite and >= 0", d.name, v.Value)
					}
					if !trace && v.Value == 0 {
						t.Errorf("%s = 0: an end-to-end metric is never 0", d.name)
					}
					printed := 0
					for _, l := range lines {
						f := strings.Fields(l)
						if len(f) == 3 && f[0] == d.name && f[2] == d.unit {
							printed++
						}
					}
					if printed != 1 {
						t.Errorf("%s [%s] printed %d times, want once", d.name, d.unit, printed)
					}
				}
				if trace {
					for _, l := range lines {
						if strings.Contains(l, "span self times") && !strings.Contains(l, "self-check ok") {
							t.Errorf("span accounting: %s", l)
						}
					}
				}
			})
		}
	}
}

// TestDeterminism: the same seed gives the same inputs, answers and counts;
// another seed gives other inputs that still pass the oracle.
func TestDeterminism(t *testing.T) {
	for _, name := range []string{"serve_zipf", "mutate_mix"} {
		a, _ := smokeRun(t, name, 7, false)
		b, _ := smokeRun(t, name, 7, false)
		c, _ := smokeRun(t, name, 8, false)
		if a.opListHash != b.opListHash || a.answersHash != b.answersHash {
			t.Errorf("%s: same seed, different op list or answers", name)
		}
		if a.cache != b.cache {
			t.Errorf("%s: same seed, cache counters %+v and %+v", name, a.cache, b.cache)
		}
		if name == "serve_zipf" && a.cache.Hits == 0 {
			t.Errorf("%s: no cache hits", name)
		}
		for _, m := range []string{"allocs_per_query", "index_mb"} {
			x, y := a.Metrics[m].Value, b.Metrics[m].Value
			if math.Abs(x-y) > 0.01*x {
				t.Errorf("%s: same seed, %s %v and %v differ by more than 1%%", name, m, x, y)
			}
		}
		if c.opListHash == a.opListHash {
			t.Errorf("%s: another seed gave the same op list", name)
		}
		if !c.Correct || c.oracleRan < oracleSample {
			t.Errorf("%s: seed 8 failed %d ops, %d oracle checks", name, c.Failed, c.oracleRan)
		}
	}
	at, _ := smokeRun(t, "verify_heavy", 7, true)
	bt, _ := smokeRun(t, "verify_heavy", 7, true)
	for _, m := range []string{"ggsx.candidates_per_query", "grapes.candidates_per_query", "core.verified_per_query", "server.cache_hit_ratio", "server.cache_evictions_per_pass"} {
		if at.Metrics[m].Value != bt.Metrics[m].Value {
			t.Errorf("verify_heavy: same seed, %s %v and %v", m, at.Metrics[m].Value, bt.Metrics[m].Value)
		}
	}
}
