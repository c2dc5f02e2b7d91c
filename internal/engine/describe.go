package engine

//go:generate sh -c "cd ../.. && go run ./cmd/sqbench -describe > docs/METHODS.md"

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
)

// storageOf classifies how a descriptor's persisted index can be held
// once restored. Every method persists the same container; methods
// implementing core.StorageSelector also honor `storage=mmap`, the rest
// always decode to the heap. Composites delegate persistence to their
// sub-indexes.
func storageOf(d *Descriptor) string {
	if d.OpenQuerier != nil {
		return "per sub-index"
	}
	m, err := d.Factory(d.Params())
	if err != nil {
		return "none"
	}
	if _, ok := m.(core.Persistable); !ok {
		return "none"
	}
	if _, ok := m.(core.StorageSelector); ok {
		return "heap/mmap"
	}
	return "heap"
}

// WriteMethodsMarkdown renders the per-method reference (docs/METHODS.md)
// from the live registry: every registered method's names, aliases, typed
// parameters with defaults, and reference notes, in registration order. It
// is invoked by `sqbench -describe` and by `go generate ./internal/engine`;
// CI regenerates the file and fails on any diff, so the document cannot
// drift from the code.
func WriteMethodsMarkdown(w io.Writer) error {
	bw := &errWriter{w: w}
	bw.printf("# Method reference\n\n")
	bw.printf("<!-- Generated from the engine registry by `sqbench -describe`.\n")
	bw.printf("     Do not edit by hand: run `go generate ./internal/engine`\n")
	bw.printf("     (CI regenerates this file and fails on drift). -->\n\n")
	bw.printf("Every method is constructed from a spec string — a registered name or\n")
	bw.printf("alias, optionally followed by `:key=value,...` typed parameter\n")
	bw.printf("overrides (`grapes:maxPathLen=3,workers=8`). Names and keys match\n")
	bw.printf("case-insensitively, ignoring `+`, `-`, `_`, and spaces.\n\n")

	bw.printf("Engines are mutable: `AddGraph`/`RemoveGraph` have every method fold\n")
	bw.printf("the one graph into (or out of) its built index; no method rebuilds on\n")
	bw.printf("a mutation. Removals are also tombstoned, so a removed graph never\n")
	bw.printf("surfaces. The mined methods (gIndex, Tree+Δ) keep the features chosen\n")
	bw.printf("at build and maintain only their postings: filtering power may drift\n")
	bw.printf("as the dataset moves, answers cannot. Features are re-mined only when\n")
	bw.printf("an open finds the index file stale and builds afresh.\n\n")

	bw.printf("Every method serves the same lazy query pipeline: candidates are\n")
	bw.printf("produced in chunks, filtered for liveness, and verified on demand, so\n")
	bw.printf("`Stream` yields answers in ascending graph-id order as they are proven\n")
	bw.printf("and the server's `limit=N` query parameter stops the pipeline after N\n")
	bw.printf("answers without verifying the unreturned tail. The per-method\n")
	bw.printf("differences below are filtering power and index cost — never answer\n")
	bw.printf("order or early-termination semantics.\n\n")

	bw.printf("Every persistable method saves the same file format, the repro-index\n")
	bw.printf("section container. The **Storage** column shows how a restored index\n")
	bw.printf("can be held. *heap/mmap* methods accept a `storage=heap|mmap` runtime\n")
	bw.printf("parameter: `heap` decodes the file eagerly at open, `mmap` maps it and\n")
	bw.printf("faults sections in on first touch, so a cold open is O(header)\n")
	bw.printf("regardless of index size. *heap* methods always decode eagerly. See\n")
	bw.printf("ARCHITECTURE.md's Storage section for the format and tradeoffs.\n\n")

	bw.printf("| Method | Spec name | Parameters | Storage | Summary |\n")
	bw.printf("|---|---|---|---|---|\n")
	for _, d := range Descriptors() {
		bw.printf("| %s | `%s` | %d | %s | %s |\n", d.Display, d.Name, len(d.Fields), storageOf(d), d.Help)
	}
	bw.printf("\n")

	for _, d := range Descriptors() {
		bw.printf("## %s — `%s`\n\n", d.Display, d.Name)
		bw.printf("%s.\n\n", upperFirst(d.Help))
		names := []string{d.Name}
		if !strings.EqualFold(d.Display, d.Name) {
			names = append(names, d.Display)
		}
		names = append(names, d.Aliases...)
		quoted := make([]string, len(names))
		for i, n := range names {
			quoted[i] = "`" + n + "`"
		}
		bw.printf("**Accepted names:** %s (case- and separator-insensitive).\n\n", strings.Join(quoted, ", "))
		bw.printf("**Storage:** %s.\n\n", storageOf(d))
		if len(d.Fields) == 0 {
			bw.printf("No parameters.\n\n")
		} else {
			bw.printf("| Parameter | Type | Default | Description |\n")
			bw.printf("|---|---|---|---|\n")
			for _, f := range d.Fields {
				bw.printf("| `%s` | %s | `%v` | %s |\n", f.Name, f.Kind, f.Default, f.Help)
			}
			bw.printf("\n")
		}
		if d.Notes != "" {
			bw.printf("%s\n\n", d.Notes)
		}
	}
	return bw.err
}

// errWriter latches the first write error so the renderer stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

func upperFirst(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}
