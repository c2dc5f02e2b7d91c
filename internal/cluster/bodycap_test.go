package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/server"
)

// TestBodyCapOneByteOver: every serving face caps request bodies at
// server.MaxBodyBytes — a POST /query body of exactly the cap is served,
// one byte more is a 400, on the flat server and on the coordinator alike.
func TestBodyCapOneByteOver(t *testing.T) {
	ds := testDataset(t)
	eng, err := engine.Open(context.Background(), ds, engine.WithSpec("grapes"))
	if err != nil {
		t.Fatal(err)
	}
	flat := httptest.NewServer(server.New(eng, server.Config{}).Handler())
	defer flat.Close()
	tc := startCluster(t, "grapes", 1, 1, 1, cluster.CoordConfig{})
	coord := tc.serve(t, server.Config{})

	query, err := json.Marshal(toWire(testQueries(t, ds)[0], ds))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		face, url string
		size      int
		want      int
	}{
		{"flat", flat.URL, server.MaxBodyBytes, http.StatusOK},
		{"flat", flat.URL, server.MaxBodyBytes + 1, http.StatusBadRequest},
		{"coordinator", coord.URL, server.MaxBodyBytes, http.StatusOK},
		{"coordinator", coord.URL, server.MaxBodyBytes + 1, http.StatusBadRequest},
	} {
		// Leading whitespace pads a valid query to the exact size, so only
		// the cap decides the outcome.
		body := append(bytes.Repeat([]byte{' '}, c.size-len(query)), query...)
		resp, err := http.Post(c.url+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s, %d-byte body: %v", c.face, c.size, err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s, %d-byte body: status %d, want %d", c.face, c.size, resp.StatusCode, c.want)
		}
	}
}
