// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§5): it builds datasets, runs all six
// methods under a per-point time budget (the analogue of the paper's 8-hour
// kill switch), and reports indexing time, index size, query processing
// time, and false positive ratio as gnuplot-style series.
//
// Methods are constructed through the engine registry (repro/internal/
// engine); the harness's only method-specific knowledge is the list of
// figure-legend names below.
package bench

import (
	"fmt"

	"repro/internal/engine"
	_ "repro/internal/engine/std" // link all built-in methods
)

// MethodID names one of the six compared methods, spelled as in the paper's
// figure legends. Every MethodID doubles as an engine registry name.
type MethodID string

// The six methods of §3, plus the naive no-index baseline of §1.
const (
	Grapes    MethodID = "Grapes"
	GGSX      MethodID = "GGSX"
	CTIndex   MethodID = "CTindex"
	GIndex    MethodID = "gIndex"
	TreeDelta MethodID = "tree+delta"
	GCode     MethodID = "gCode"
	// NoIndex is the sequential VF2 scan the paper's introduction motivates
	// against. It is not part of AllMethods (the paper's figures exclude
	// it); select it explicitly with -methods NoIndex.
	NoIndex MethodID = "NoIndex"
)

// AllMethods lists the six compared methods in the paper's legend order.
var AllMethods = []MethodID{Grapes, GGSX, CTIndex, GIndex, TreeDelta, GCode}

// MethodLimits bounds the work of the unbounded-cost methods so that a
// stress point degenerates into a DNF instead of hanging forever. The zero
// value means "paper defaults with the harness's standard budgets".
type MethodLimits struct {
	// MaxPatterns caps gSpan pattern emission for gIndex and Tree+Δ
	// (0 = harness default).
	MaxPatterns int
}

// DefaultMaxPatterns is the standard mining budget; exceeding it marks the
// run DNF, mirroring the frequent-mining methods' 8-hour timeouts in the
// paper. It equals the engine registry's maxPatterns default.
const DefaultMaxPatterns = 200000

// specFor renders the canonical engine spec for one experiment cell — an
// explicit per-method override from the experiment wins, otherwise the
// registry defaults narrowed by the experiment's limits apply — for runners
// to instantiate (once, or one instance per shard) and to record on the
// cell's result.
func specFor(id MethodID, exp Experiment) (string, error) {
	var p engine.Params
	if spec := exp.MethodSpecs[id]; spec != "" {
		_, parsed, err := engine.ParseSpec(spec)
		if err != nil {
			return "", err
		}
		p = parsed
	} else {
		d, ok := engine.Lookup(string(id))
		if !ok {
			return "", fmt.Errorf("bench: unknown method %q", id)
		}
		p = d.Params()
	}
	if exp.Limits.MaxPatterns > 0 && p.Has("maxPatterns") && !p.IsSet("maxPatterns") {
		if err := p.SetInt("maxPatterns", exp.Limits.MaxPatterns); err != nil {
			return "", err
		}
	}
	return p.Spec(), nil
}

// ResolveMethod maps a method spec string (name, alias, or full
// "name:key=value,..." spec) to its figure-legend MethodID and canonical
// spec, validating the parameters against the registry.
func ResolveMethod(spec string) (MethodID, string, error) {
	d, p, err := engine.ParseSpec(spec)
	if err != nil {
		return "", "", err
	}
	return MethodID(d.Display), p.Spec(), nil
}
