package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
)

// contract is BENCHMARK.json: the A/A mode takes the bounds from it, the
// tests check that it and the program name the same things.
type contract struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readContract(path string) (contract, error) {
	var c contract
	data, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	return c, json.Unmarshal(data, &c)
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4): the acceptance rule of the pipeline
// that runs this benchmark.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (q(3) - q(1)) / pyMedian(s)
}

// pyMedian is statistics.median: the two middle values averaged when the
// count is even.
func pyMedian(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// runAA runs every workload as two interleaved sets of n runs of the same
// code (A B A B ...; run i of both sets has seed+i) and compares, per
// workload and end-to-end metric, the two medians with the metric's bound
// and each set's quartile spread with the same bound. It is the recorded
// noise floor of a box: a cell that fails here cannot gate a change there.
func runAA(n int, opt options) int {
	c, err := readContract("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -aa reads the bounds from BENCHMARK.json in the current directory:", err)
		return 2
	}
	// vals[set][workload][metric]
	var vals [2]map[string]map[string][]float64
	for s := range vals {
		vals[s] = make(map[string]map[string][]float64)
		for _, sp := range specs {
			vals[s][sp.name] = make(map[string][]float64)
		}
	}
	opt.trace = false
	for i := range n {
		for s := range vals {
			for _, sp := range specs {
				o := opt
				o.seed = opt.seed + int64(i)
				res, err := runChild(sp.name, o, false)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %d of %d ops failed\n", sp.name, o.seed, res.Failed, res.Attempted)
					return 1
				}
				for name, v := range res.Metrics {
					vals[s][sp.name][name] = append(vals[s][sp.name][name], v.Value)
				}
				fmt.Fprintf(os.Stderr, "run %d/%d set %c %s done\n", i+1, n, 'A'+s, sp.name)
			}
		}
	}
	fmt.Printf("| workload | metric | unit | median A | median B | B vs A | spread A | spread B | bound | |\n")
	fmt.Printf("|---|---|---|---:|---:|---:|---:|---:|---:|---|\n")
	code := 0
	for _, sp := range specs {
		for _, m := range c.EndToEnd {
			a, b := vals[0][sp.name][m.Name], vals[1][sp.name][m.Name]
			ma, mb := pyMedian(a), pyMedian(b)
			diff := (mb - ma) / ma
			sa, sb := quartileSpread(a), quartileSpread(b)
			verdict := "ok"
			// setup_s is exempt from the spread rule of the pipeline, not
			// from the drift rule.
			if math.Abs(diff) > m.Bound || (m.Name != "setup_s" && max(sa, sb) > m.Bound) {
				verdict = "EXCEEDS"
				code = 1
			}
			fmt.Printf("| %s | %s | %s | %.4f | %.4f | %+.2f%% | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				sp.name, m.Name, m.Unit, ma, mb, 100*diff, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	return code
}
