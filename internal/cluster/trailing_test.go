package cluster_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/cluster"
)

// TestNodeTrailingDataRejected: a node reads each request body as one JSON
// value. Data after it is a 400 on /node/query, /node/graphs and
// /node/load, where it used to be ignored; the same body ended by a
// newline is served.
func TestNodeTrailingDataRejected(t *testing.T) {
	ds := testDataset(t)
	tc := startCluster(t, "grapes", 1, 1, 1, cluster.CoordConfig{})
	node := tc.servers[0].URL
	gj := toWire(testQueries(t, ds)[0], ds)
	for _, c := range []struct {
		path string
		body any
	}{
		{"/node/query?shards=0", gj},
		{"/node/graphs", cluster.AddRequest{ID: 25, Epoch: 1, Graph: gj}},
		{"/node/load", cluster.LoadRequest{Shard: 0}},
	} {
		b, err := json.Marshal(c.body)
		if err != nil {
			t.Fatal(err)
		}
		for _, tail := range []string{"garbage", "{}", "\n"} {
			resp, err := http.Post(node+c.path, "application/json", bytes.NewReader(append(b, tail...)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if rejected := resp.StatusCode == http.StatusBadRequest; rejected != (tail != "\n") {
				t.Errorf("POST %s with %q after the body: %s", c.path, tail, resp.Status)
			}
		}
	}
}
