// Package engine is the single front door to the reproduction: a registry
// of the indexed subgraph query processing methods, a typed spec syntax for
// constructing them ("grapes:maxPathLen=4,workers=8"), an Engine type that
// owns the build/restore/query lifecycle around the core filter-and-verify
// pipeline, and a Sharded variant that hash-partitions the dataset, builds
// per-shard indexes in parallel, and serves queries by fan-out/merge.
//
// Method packages self-register in their init functions via Register, so
// importing a method package (directly, or through the convenience package
// engine/std which links all built-ins) makes it constructible by name:
//
//	import _ "repro/internal/engine/std"
//
//	m, err := engine.New("gIndex:maxPatterns=20000")
//	eng, err := engine.Open(ctx, ds, engine.WithSpec("grapes:workers=8"))
//	sh, err := engine.OpenSharded(ctx, ds, 4, engine.WithSpec("grapes"))
//
// The registry doubles as the source of truth for documentation:
// WriteMethodsMarkdown renders docs/METHODS.md from the live descriptors
// (via sqbench -describe), so the reference can never drift from the code.
package engine

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
)

// Descriptor is the neutral description one method package registers:
// naming, typed parameters with defaults, and a factory. It carries no
// method-specific types, so the registry depends only on core.
type Descriptor struct {
	// Name is the canonical registry name (conventionally lower-case,
	// e.g. "grapes", "treedelta").
	Name string
	// Display is the paper's figure-legend spelling (e.g. "tree+delta").
	// It doubles as a lookup alias.
	Display string
	// Aliases are extra accepted spellings. Lookup normalizes case and
	// separators, so "CT-Index" finds "ctindex" without an explicit alias.
	Aliases []string
	// Help is a one-line description surfaced by CLIs.
	Help string
	// Notes carries the longer reference prose rendered into docs/METHODS.md:
	// complexity characteristics, the paper's parameter defaults, and
	// anything an operator should know before picking the method.
	Notes string
	// Fields declare the method's typed parameters and defaults.
	Fields []Field
	// Factory builds an unbuilt method from a resolved parameter set.
	// Composite entries that are not a single indexing method (the adaptive
	// router) return a descriptive error here and open through OpenQuerier
	// instead.
	Factory func(p Params) (core.Method, error)
	// Check optionally validates a resolved parameter set beyond per-field
	// typing — cross-field constraints, or values that must resolve against
	// the registry (the router's method list). ParseSpec runs it, so invalid
	// composite specs fail at parse time like any other malformed spec.
	Check func(p Params) error
	// OpenQuerier, when set, marks the entry as a composite engine: OpenAny
	// routes construction here instead of the Open/OpenSharded lifecycle.
	OpenQuerier func(ctx context.Context, ds *graph.Dataset, p Params, cfg OpenConfig) (Querier, error)
}

// Params returns the descriptor's parameter set with every field at its
// default.
func (d *Descriptor) Params() Params { return newParams(d) }

// New constructs the method with the given parameters.
func (d *Descriptor) New(p Params) (core.Method, error) {
	if p.desc != d {
		return nil, fmt.Errorf("engine: params for %s used with %s", p.desc.Name, d.Name)
	}
	return d.Factory(p)
}

var registry = struct {
	sync.RWMutex
	byKey map[string]*Descriptor // normalized name/alias -> descriptor
	order []*Descriptor          // sorted by Name
}{byKey: map[string]*Descriptor{}}

// Register adds a method descriptor to the registry. It is intended to be
// called from method package init functions and panics on invalid
// descriptors or conflicting names — both are programming errors.
func Register(d Descriptor) {
	if d.Name == "" || d.Factory == nil {
		panic("engine: Register requires a Name and a Factory")
	}
	if d.Display == "" {
		d.Display = d.Name
	}
	for _, f := range d.Fields {
		if err := f.validate(); err != nil {
			panic(fmt.Sprintf("engine: Register(%s): %v", d.Name, err))
		}
	}
	keys := append([]string{d.Name, d.Display}, d.Aliases...)
	registry.Lock()
	defer registry.Unlock()
	desc := &d
	seen := map[string]bool{}
	for _, k := range keys {
		nk := normalize(k)
		if nk == "" || seen[nk] {
			continue
		}
		seen[nk] = true
		if prev, ok := registry.byKey[nk]; ok {
			panic(fmt.Sprintf("engine: method name %q already registered by %s", k, prev.Name))
		}
		registry.byKey[nk] = desc
	}
	at, _ := slices.BinarySearchFunc(registry.order, d.Name, func(e *Descriptor, name string) int {
		return strings.Compare(e.Name, name)
	})
	registry.order = slices.Insert(registry.order, at, desc)
}

// Lookup resolves a method name or alias (case- and separator-insensitive)
// to its descriptor.
func Lookup(name string) (*Descriptor, bool) {
	registry.RLock()
	defer registry.RUnlock()
	d, ok := registry.byKey[normalize(name)]
	return d, ok
}

// Descriptors returns all registered methods sorted by canonical Name, so
// every listing built from it reads the same whatever order the method
// packages were initialized in.
func Descriptors() []*Descriptor {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]*Descriptor, len(registry.order))
	copy(out, registry.order)
	return out
}

// Names returns the canonical names of all registered methods, sorted.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	names := make([]string, 0, len(registry.order))
	for _, d := range registry.order {
		names = append(names, d.Name)
	}
	return names
}

// FprintMethods writes a human-readable listing of every registered method
// and its parameters to w — the shared implementation of the CLIs' -list
// flag.
func FprintMethods(w io.Writer) {
	for _, d := range Descriptors() {
		fmt.Fprintf(w, "%-12s %s\n", d.Display, d.Help)
		for _, f := range d.Fields {
			fmt.Fprintf(w, "    %-22s %-6s default %-8v %s\n", f.Name, f.Kind, f.Default, f.Help)
		}
	}
}

// New constructs an unbuilt method from a spec string — a registered name
// or alias, optionally followed by ":key=value,..." parameter overrides:
//
//	engine.New("grapes")
//	engine.New("grapes:maxPathLen=3,workers=8")
//	engine.New("tree+delta:supportRatio=0.05")
func New(spec string) (core.Method, error) {
	d, p, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return d.New(p)
}
