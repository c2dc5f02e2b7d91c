package router

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"strings"

	"repro/internal/engine"
)

// manifestMagic heads the router manifest file; bump the version when the
// layout changes. v2 added the dataset epoch; v3 dropped the dataset size,
// epoch and tag, because each per-method file's own stamps and journal
// decide whether it restores, so a mutation never rewrites the manifest
// (as the sharded manifest v5 did).
const manifestMagic = "repro-router v3"

// modelMagic identifies the persisted cost-model document.
const modelMagic = "repro-router-model v1"

// MethodIndexPath returns the file path method name's index persists at
// under a router index rooted at base: "<base>.method-<name>". The manifest
// lives at base itself, and a sharded sub-engine nests its own shard files
// under this path ("<base>.method-<name>.shard-<i>").
func MethodIndexPath(base, name string) string {
	return fmt.Sprintf("%s.method-%s", base, name)
}

// ModelPath returns the file path the learned cost model persists at under
// a router index rooted at base.
func ModelPath(base string) string { return base + ".model" }

// manifest renders the router manifest: a short text file binding the
// per-method index files to the method set and shard count they were
// written for.
func manifest(names []string, shards int) string {
	if shards < 2 {
		shards = 0 // 0 and 1 both mean unsharded sub-engines
	}
	return fmt.Sprintf("%s\nmethods %s\nshards %d\n", manifestMagic, strings.Join(names, "+"), shards)
}

// manifestMatches reports whether the manifest at base matches this
// router's configuration. A missing manifest is a mismatch (rebuild
// everything); a present-but-unreadable one is an error, mirroring the
// engine's persistence policy.
func manifestMatches(base string, names []string, shards int) (bool, error) {
	data, err := os.ReadFile(base)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("router: opening manifest at %s: %w", base, err)
	}
	return string(data) == manifest(names, shards), nil
}

// writeManifest atomically writes the manifest at base, at open and on
// Save, never on a mutation, after every per-method index has been
// persisted — a crash mid-save leaves either the old manifest (stale
// per-method files fail their own stamps and rebuild alone) or none (full
// rebuild), never a manifest endorsing files that were not all written.
func writeManifest(base string, names []string, shards int) error {
	return engine.AtomicWriteFile(base, func(w io.Writer) error {
		_, err := io.WriteString(w, manifest(names, shards))
		return err
	})
}

// removeStale deletes the per-method index files and the model file under
// base. It runs when the manifest does not endorse them: a per-method file
// persisted for another method set or shard count could otherwise restore
// loadably but wrongly. Removal errors are ignored — a file that cannot be removed will
// fail its load or be overwritten by the rebuild's atomic save.
func removeStale(base string, names []string) {
	for _, name := range names {
		os.Remove(MethodIndexPath(base, name))
	}
	os.Remove(ModelPath(base))
}

// modelDoc is the persisted form of the learned cost model.
type modelDoc struct {
	Magic string         `json:"magic"`
	Cells []CellSnapshot `json:"cells"`
}

// SaveModel atomically persists the learned cost model at
// ModelPath(base), so a restart resumes routing with warm estimates
// instead of re-exploring from the static heuristics.
func (m *Multi) SaveModel(base string) error {
	doc := modelDoc{Magic: modelMagic, Cells: m.mdl.snapshot()}
	return engine.AtomicWriteFile(ModelPath(base), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	})
}

// Save persists the router's routing state under base: the manifest
// endorsing the per-method index files (which the sub-engines already wrote
// at open time) and the learned cost model. Use it on graceful shutdown so
// the next Open restores both the indexes and the warm routing estimates.
func (m *Multi) Save(base string) error {
	if err := writeManifest(base, m.names, m.shardsHint()); err != nil {
		return err
	}
	return m.SaveModel(base)
}

// shardsHint recovers the sub-engines' shard count for the manifest (0 for
// unsharded subs).
func (m *Multi) shardsHint() int {
	for _, sub := range m.subs {
		if s, ok := sub.(*engine.Sharded); ok {
			return s.Shards()
		}
	}
	return 0
}

// loadModel best-effort restores the cost model from path: a missing,
// unreadable, corrupt, or mismatched file leaves the model cold, exactly
// as if no traffic had been observed yet.
func (m *Multi) loadModel(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		return
	}
	var doc modelDoc
	if json.Unmarshal(data, &doc) != nil || doc.Magic != modelMagic {
		return
	}
	known := make(map[string]bool, len(m.names))
	for _, name := range m.names {
		known[name] = true
	}
	m.mdl.restore(doc.Cells, known)
}
