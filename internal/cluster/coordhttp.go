package cluster

import (
	"encoding/json"
	"net/http"
)

// The coordinator's public face is server.Server over the Coordinator — an
// engine.Querier — so POST /query (streaming, limit=N), /batch, /graphs,
// /stats, /metrics, /methods, health, readiness, admission control, tracing
// and the slow log are the flat server's own code. Handler adds the two
// views only a cluster has.

// Handler serves GET /cluster (topology, per-node health, fan-out
// counters) and GET /metrics/cluster (every member's /metrics federated,
// see Federate), and hands every other request to public — normally
// server.New(c, cfg).Handler() with cfg.Registry set to c.Registry().
func (c *Coordinator) Handler(public http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", public)
	mux.HandleFunc("GET /cluster", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(c.Stats())
	})
	mux.HandleFunc("GET /metrics/cluster", func(w http.ResponseWriter, r *http.Request) {
		snap, _ := c.Federate(r.Context(), c.cfg.ScrapeTimeout)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		snap.Write(w)
	})
	return mux
}
