package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/workload"
)

// TestLoadFromShipsIndexFile: re-replication via /node/load fetches the
// owner's persisted shard index alongside the dump, so the receiving
// node's engine restores it byte-for-byte instead of rebuilding — for a
// method with a storage=mmap mode and for one without, since every method
// persists the same container. The shard has taken adds since it was
// built, which an incremental method journaled: the owner compacts before
// shipping, so the file carries them.
func TestLoadFromShipsIndexFile(t *testing.T) {
	for _, spec := range []string{"grapes", "ctindex"} {
		t.Run(spec, func(t *testing.T) { testLoadFromShipsIndexFile(t, spec) })
	}
}

func testLoadFromShipsIndexFile(t *testing.T, spec string) {
	ctx := context.Background()
	src := gen.Synthetic(gen.SynthConfig{
		NumGraphs: 30, MeanNodes: 12, MeanDensity: 0.2, NumLabels: 4, Seed: 21,
	})
	queries, err := workload.Generate(src, workload.Config{NumQueries: 3, QueryEdges: 4, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	a, err := NewNode(ctx, src, NodeConfig{
		Name: "a", Spec: spec, ShardCount: 2, Shards: []int{0, 1},
		IndexPath: filepath.Join(dir, "a.idx"),
	})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(NewNodeServer(a, NodeServerConfig{}).Handler())
	defer tsA.Close()

	// Two adds to shard 1, under fresh global ids as the coordinator would
	// assign them.
	id := graph.ID(src.Len())
	for added := 0; added < 2; id++ {
		if engine.ShardOf(id, 2) != 1 {
			continue
		}
		if _, err := a.Add(ctx, id, uint64(added+1), src.Graphs[added].ShallowWithID(0)); err != nil {
			t.Fatal(err)
		}
		added++
	}
	journal := engine.JournalPath(a.shardIndexPath(1))
	if fi, err := os.Stat(journal); spec == "grapes" && (err != nil || fi.Size() == 0) {
		t.Fatalf("the adds to shard 1 were not journaled: %v", err)
	}

	b, err := NewNode(ctx, src, NodeConfig{
		Name: "b", Spec: spec, ShardCount: 2, Shards: []int{0},
		IndexPath: filepath.Join(dir, "b.idx"),
	})
	if err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(NewNodeServer(b, NodeServerConfig{}).Handler())
	defer tsB.Close()

	// The indexfile endpoint serves shard 1's container from a.
	resp, err := http.Get(tsA.URL + "/node/indexfile?shard=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /node/indexfile = %d, want 200", resp.StatusCode)
	}
	// A shard the node does not serve is 404.
	resp, err = http.Get(tsB.URL + "/node/indexfile?shard=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /node/indexfile for unserved shard = %d, want 404", resp.StatusCode)
	}

	// Re-replicate shard 1 onto b from a.
	body, _ := json.Marshal(LoadRequest{Shard: 1, From: tsA.URL})
	resp, err = http.Post(tsB.URL+"/node/load", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /node/load = %d, want 200", resp.StatusCode)
	}

	b.mu.RLock()
	sh := b.shards[1]
	b.mu.RUnlock()
	if sh == nil {
		t.Fatalf("shard 1 missing on b after load")
	}
	if !sh.Engine().Restored() {
		t.Fatalf("installed shard rebuilt its index; the shipped file was not restored")
	}

	// The restored replica answers exactly like the owner.
	for i, q := range queries {
		if want, got := nodeAnswers(t, a, 1, q), nodeAnswers(t, b, 1, q); !got.Equal(want) {
			t.Errorf("query %d: replica answers %v != owner answers %v", i, got, want)
		}
	}
}
